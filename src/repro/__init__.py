"""repro — an open workflow management system in Python.

Reproduction of "Achieving Coordination Through Dynamic Construction of
Open Workflows" (Thomas, Wilson, Roman, Gill; WUCSE-2009-14, 2009).

The top-level package re-exports the most commonly used names so that a
downstream user can write::

    from repro import Task, WorkflowFragment, Specification, construct_workflow

for pure in-memory construction, or::

    from repro import OpenWorkflowSystem

to stand up a full simulated community of hosts with discovery, auction
based allocation, and decentralized execution.
"""

from .core import (
    Color,
    ConstructionResult,
    KnowledgeSet,
    Label,
    OpenWorkflowError,
    Solver,
    Specification,
    Supergraph,
    Task,
    TaskMode,
    Workflow,
    WorkflowConstructor,
    WorkflowFragment,
    conjunctive,
    construct_incrementally,
    construct_workflow,
    disjunctive,
    is_feasible,
    specification,
)
from .durability import DurabilityBackend, InMemoryJournal
from .execution import CallableService, ManualService, ServiceDescription
from .host import Community, Host, Workspace, WorkflowPhase
from .owms import OpenWorkflowSystem, SolveReport
from .scheduling import Commitment, ParticipantPreferences

__version__ = "1.0.0"

__all__ = [
    "CallableService",
    "Color",
    "Commitment",
    "Community",
    "ConstructionResult",
    "DurabilityBackend",
    "Host",
    "InMemoryJournal",
    "KnowledgeSet",
    "Label",
    "ManualService",
    "OpenWorkflowError",
    "OpenWorkflowSystem",
    "ParticipantPreferences",
    "ServiceDescription",
    "SolveReport",
    "Solver",
    "Specification",
    "Supergraph",
    "Task",
    "TaskMode",
    "Workflow",
    "WorkflowConstructor",
    "WorkflowFragment",
    "WorkflowPhase",
    "Workspace",
    "conjunctive",
    "construct_incrementally",
    "construct_workflow",
    "disjunctive",
    "is_feasible",
    "specification",
    "__version__",
]
