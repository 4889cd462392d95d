"""Core open workflow model: the paper's primary contribution.

This package contains the formal model of Section 2.2 (labels, tasks,
workflows, fragments, specifications) and the construction algorithm of
Section 3.1 (supergraph colouring, both batch and incremental variants).
Everything here is pure, deterministic, in-memory computation with no
dependency on the networking or middleware substrates.
"""

from .constraints import (
    ConstrainedConstructionResult,
    ConstrainedSpecification,
    WorkflowConstraints,
    construct_constrained_workflow,
    critical_path_duration,
)
from .construction import (
    Color,
    ColoringState,
    ConstructionResult,
    ConstructionStatistics,
    WorkflowConstructor,
    construct_workflow,
    describe_coloring,
    is_feasible,
)
from .errors import (
    AllocationError,
    CommunicationError,
    CompositionError,
    ConfigurationError,
    ConstructionError,
    ExecutionError,
    HostUnreachableError,
    InvalidFragmentError,
    InvalidWorkflowError,
    NoBidsError,
    OpenWorkflowError,
    PruningError,
    ScheduleConflictError,
    SchedulingError,
    ServiceNotFoundError,
    SpecificationError,
    UnsatisfiableSpecificationError,
)
from .fragments import (
    KnowledgeSet,
    WorkflowFragment,
    fragment_from_task,
    fragments_from_tasks,
    knowledge_from_fragments,
)
from .graph import BipartiteGraph, Edge, NodeKind, NodeRef
from .incremental import (
    FragmentSource,
    IncrementalConstructionResult,
    IncrementalConstructor,
    IncrementalStatistics,
    LocalFragmentSource,
    construct_incrementally,
)
from .labels import Label, LabelSet, as_label, as_label_names
from .solver import Solver, results_equivalent
from .specification import PredicateSpecification, Specification, specification
from .supergraph import Supergraph, supergraph_from_knowledge
from .tasks import Task, TaskMode, conjunctive, disjunctive
from .workflow import Workflow, empty_workflow

__all__ = [
    "AllocationError",
    "BipartiteGraph",
    "Color",
    "ColoringState",
    "CommunicationError",
    "CompositionError",
    "ConfigurationError",
    "ConstrainedConstructionResult",
    "ConstrainedSpecification",
    "ConstructionError",
    "ConstructionResult",
    "ConstructionStatistics",
    "Edge",
    "ExecutionError",
    "FragmentSource",
    "HostUnreachableError",
    "IncrementalConstructionResult",
    "IncrementalConstructor",
    "IncrementalStatistics",
    "InvalidFragmentError",
    "InvalidWorkflowError",
    "KnowledgeSet",
    "Label",
    "LabelSet",
    "LocalFragmentSource",
    "NoBidsError",
    "NodeKind",
    "NodeRef",
    "OpenWorkflowError",
    "PredicateSpecification",
    "PruningError",
    "ScheduleConflictError",
    "SchedulingError",
    "ServiceNotFoundError",
    "Solver",
    "Specification",
    "SpecificationError",
    "Supergraph",
    "Task",
    "TaskMode",
    "UnsatisfiableSpecificationError",
    "Workflow",
    "WorkflowConstraints",
    "WorkflowConstructor",
    "WorkflowFragment",
    "as_label",
    "as_label_names",
    "conjunctive",
    "construct_constrained_workflow",
    "construct_incrementally",
    "construct_workflow",
    "critical_path_duration",
    "describe_coloring",
    "disjunctive",
    "empty_workflow",
    "fragment_from_task",
    "fragments_from_tasks",
    "is_feasible",
    "knowledge_from_fragments",
    "results_equivalent",
    "specification",
    "supergraph_from_knowledge",
]
