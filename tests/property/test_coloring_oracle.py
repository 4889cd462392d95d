"""Property: the id colouring kernel equals its ``NodeRef`` oracle.

:class:`~repro.core.construction.WorkflowConstructor` runs Algorithm 1 over
the supergraph's dense integer node ids, and its ties break in ``NodeRef``
order: children are enqueued by name, and pruning picks the
minimum-distance parent with the smallest name.  ``tests/reference/
coloring.py`` keeps the ``NodeRef`` formulation, with adjacency rebuilt
from the task table.  The two must agree exactly, not just on feasibility:

* the colour, distance and blue-edge maps;
* the workflow;
* the effort counters ``nodes_recolored``, ``exploration_iterations`` and
  ``pruning_iterations``.  A visit order other than ``NodeRef`` order leaves
  the workflow alone but changes the counters (a node coloured at a
  provisional distance and improved later counts twice), and trial results
  report them.

They are checked two ways: a solve without a task filter and one with a
task filter.  Every solve colours the supergraph from scratch, so these
cover every construction the middleware runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construction import WorkflowConstructor
from repro.core.supergraph import Supergraph

from ..reference import coloring as reference
from .strategies import knowledge_sets, specifications

SETTINGS = settings(max_examples=120, deadline=None)

MAX_FRAGMENTS = 20
TASK_NAMES = [f"task{i}" for i in range(MAX_FRAGMENTS)]
exclusions = st.frozensets(st.sampled_from(TASK_NAMES), max_size=6)

#: Knowledge sets merged in a random order, so that node ids (merge order)
#: and names (the tie-break order) disagree.  A visit order that differs
#: from name order changes the counters on ~3% of 10-fragment sets and
#: ~13% of 20-fragment sets, hence the larger sets.
shuffled_knowledge = knowledge_sets(max_fragments=MAX_FRAGMENTS).flatmap(
    st.permutations
)


def excluding(excluded: frozenset[str]):
    return lambda task: task.name not in excluded


def assert_matches_oracle(result, state, effort, workflow) -> None:
    assert result.state.colors == state.colors
    assert result.state.distances == state.distances
    assert result.state.blue_edges == state.blue_edges
    assert result.workflow == workflow
    stats = result.statistics
    assert stats.nodes_recolored == effort.nodes_recolored
    assert stats.exploration_iterations == effort.exploration_iterations
    assert stats.pruning_iterations == effort.pruning_iterations


def check_scratch_solve(fragments, spec, task_filter, stop_early) -> None:
    graph = Supergraph(fragments)
    result = WorkflowConstructor(stop_exploration_early=stop_early).construct(
        graph, spec, task_filter=task_filter
    )
    # The constructor added the trigger labels; the oracle sees them too.
    model = reference.ReferenceGraph(graph)
    state, effort = reference.ReferenceState(), reference.Effort()
    reached = reference.explore(model, spec, state, effort, task_filter, stop_early)
    workflow = reference.prune(model, spec, state, effort) if reached else None
    assert result.succeeded == reached
    assert_matches_oracle(result, state, effort, workflow)


@SETTINGS
@given(fragments=shuffled_knowledge, spec=specifications(), stop_early=st.booleans())
def test_scratch_solve_matches_oracle(fragments, spec, stop_early):
    check_scratch_solve(fragments, spec, None, stop_early)


@SETTINGS
@given(
    fragments=shuffled_knowledge,
    spec=specifications(),
    excluded=exclusions,
    stop_early=st.booleans(),
)
def test_filtered_solve_matches_oracle(fragments, spec, excluded, stop_early):
    check_scratch_solve(fragments, spec, excluding(excluded), stop_early)
