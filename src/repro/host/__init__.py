"""Host-level middleware: hosts, communities, and the construction subsystem."""

from .community import Community
from .config import HostConfig
from .host import Host
from .initiator import ProblemForm, WorkflowInitiator
from .workflow_manager import WorkflowManager
from .workspace import Workspace, WorkflowPhase, next_workflow_id

__all__ = [
    "Community",
    "Host",
    "HostConfig",
    "ProblemForm",
    "WorkflowInitiator",
    "WorkflowManager",
    "WorkflowPhase",
    "Workspace",
    "next_workflow_id",
]
