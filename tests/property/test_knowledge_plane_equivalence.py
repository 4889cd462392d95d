"""Property: shared-supergraph construction ≡ construction on a fresh graph.

The shared knowledge plane claims that running a *sequence* of workflows on
one host — reusing the accumulated supergraph, skipping fully-synced
remotes, seeding only new local fragments — produces results equivalent to
collecting the community's knowledge into a fresh graph for every
workflow.  These tests drive the plane through fig5-style workloads (one
supergraph partitioned across two hosts, a sweep of guaranteed-satisfiable
path specifications submitted back to back at one initiator) and compare
every workspace with a :class:`~repro.core.solver.Solver` run on a fresh
:class:`~repro.core.supergraph.Supergraph` of both hosts' fragments.

Equivalence is the solver contract (:func:`results_equivalent`): same
feasibility verdict, and on success a valid workflow achieving the
specification.  Every solve colours the whole plane from scratch, so the
plane's colouring work also equals the fresh solve's.  On top of that the
plane must show actual reuse: no fragment queries after the first full
sync.
"""

import pytest

from repro.core.solver import Solver, results_equivalent
from repro.core.supergraph import Supergraph
from repro.experiments.trials import build_trial_community
from repro.host.workspace import WorkflowPhase
from repro.sim.randomness import derive_rng
from repro.workloads.supergraph_gen import RandomSupergraphWorkload

SEED = 20090514


def _run_sequence(num_tasks: int, path_lengths):
    """Submit one spec per path length at host-0; return (community, workspaces)."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(num_tasks)
    community = build_trial_community(workload, num_hosts=2, seed=SEED)
    rng = derive_rng(SEED, "specs", num_tasks)
    workspaces = []
    for path_length in path_lengths:
        specification = workload.path_specification(path_length, rng)
        if specification is None:
            continue
        workspace = community.submit_specification("host-0", specification)
        community.run_until_allocated(workspace)
        workspaces.append(workspace)
    return community, workspaces


def fresh_solve(community, specification):
    """A solve on a fresh graph of every host's fragments."""

    graph = Supergraph()
    for host in community:
        graph.add_fragments_batch(host.fragment_manager.all_fragments())
    return Solver().solve(graph, specification)


@pytest.mark.parametrize("num_tasks", [25, 50])
def test_shared_plane_equivalent_to_per_workspace_graphs(num_tasks):
    path_lengths = [2, 4, 6, 4, 2, 6]  # repeats re-solve the synced plane
    community, shared = _run_sequence(num_tasks, path_lengths)
    assert shared
    for workspace in shared:
        name = workspace.specification.name
        result = workspace.construction_result
        reference = fresh_solve(community, workspace.specification)
        assert result is not None
        assert results_equivalent(result, reference), (
            f"{name}: shared={result!r} fresh={reference!r}"
        )
        assert (
            result.statistics.nodes_recolored == reference.statistics.nodes_recolored
        ), name
        # The end-to-end outcome follows the construction verdict.
        assert (workspace.phase is WorkflowPhase.FAILED) == (not reference.succeeded)

    # The plane must actually have been reused: after the first workflow's
    # full sync, no further fragment traffic goes on the wire ...
    stats = community.network.statistics
    assert stats.kind_count("FragmentQuery") == 1
    assert stats.kind_count("FragmentResponse") == 1
    # ... and every later workspace starts from the accumulated knowledge.
    assert all(ws.fragments_reused > 0 for ws in shared[1:])


def test_shared_plane_seeds_only_new_local_fragments():
    """Local know-how added between submissions reaches the shared graph."""

    workload = RandomSupergraphWorkload(seed=SEED).generate(25)
    community = build_trial_community(workload, num_hosts=2, seed=SEED)
    rng = derive_rng(SEED, "specs", 25)
    first_spec = workload.path_specification(2, rng)
    second_spec = workload.path_specification(4, rng)
    assert first_spec is not None and second_spec is not None

    host = community.host("host-0")
    first = community.submit_specification("host-0", first_spec)
    community.run_until_allocated(first)
    graph = host.workflow_manager.supergraph
    assert graph is not None
    before = len(graph.fragment_ids)

    # New local know-how between submissions: the delta seed picks it up.
    from repro.core.fragments import WorkflowFragment
    from repro.core.tasks import Task

    host.add_fragment(
        WorkflowFragment([Task("late-task", ["late-in"], ["late-out"])],
                         fragment_id="late-fragment")
    )
    second = community.submit_specification("host-0", second_spec)
    community.run_until_allocated(second)
    assert "late-fragment" in graph.fragment_ids
    assert len(graph.fragment_ids) == before + 1
    assert second.fragments_reused == before
