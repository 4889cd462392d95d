"""Unit tests for the pluggable solver engine (core/solver.py) and the
supergraph versioning machinery it relies on."""

from __future__ import annotations

import pytest

from repro.baselines import PlannerSolver, StaticSolver, StaticWorkflowEngine
from repro.core import (
    ColoringSolver,
    ConfigurationError,
    MemoizedColoringSolver,
    Solver,
    Specification,
    Supergraph,
    Task,
    WorkflowFragment,
    construct_workflow,
    make_solver,
    results_equivalent,
)
from repro.core.graph import NodeRef


def chain_fragments(length: int) -> list[WorkflowFragment]:
    """L0 -t0-> L1 -t1-> ... a linear chain of single-task fragments."""

    return [
        WorkflowFragment(
            [Task(f"t{i}", [f"L{i}"], [f"L{i + 1}"], service_type=f"s{i}")],
            fragment_id=f"chain-{i}",
        )
        for i in range(length)
    ]


class TestSupergraphVersioning:
    def test_version_starts_at_zero_and_bumps_on_change(self):
        graph = Supergraph()
        assert graph.version == 0
        graph.add_fragment(chain_fragments(1)[0])
        assert graph.version == 1

    def test_noop_mutations_do_not_bump_version(self):
        fragment = chain_fragments(1)[0]
        graph = Supergraph([fragment])
        version = graph.version
        graph.add_fragment(fragment)  # duplicate id
        graph.add_label("L0")  # already present
        assert graph.version == version

    def test_dirty_since_reports_affected_nodes(self):
        fragments = chain_fragments(2)
        graph = Supergraph([fragments[0]])
        version = graph.version
        graph.add_fragment(fragments[1])
        dirty = graph.dirty_since(version)
        assert NodeRef.task("t1") in dirty
        assert NodeRef.label("L2") in dirty
        assert NodeRef.task("t0") not in dirty
        assert graph.dirty_since(graph.version) == frozenset()

    def test_dirty_since_accumulates_across_versions(self):
        fragments = chain_fragments(3)
        graph = Supergraph([fragments[0]])
        v0 = graph.version
        graph.add_fragment(fragments[1])
        graph.add_fragment(fragments[2])
        dirty = graph.dirty_since(v0)
        assert NodeRef.task("t1") in dirty and NodeRef.task("t2") in dirty

    def test_journal_compaction_over_approximates(self):
        from repro.core import supergraph as sg

        graph = Supergraph()
        threshold = sg._JOURNAL_COMPACTION_THRESHOLD
        fragments = chain_fragments(threshold + 10)
        for fragment in fragments:
            graph.add_fragment(fragment)
        # Everything since version 1 must still be reported (possibly more).
        dirty = graph.dirty_since(1)
        assert NodeRef.task(f"t{threshold + 9}") in dirty
        assert NodeRef.task("t5") in dirty

    def test_degree_indexes(self):
        graph = Supergraph(chain_fragments(2))
        assert graph.in_degree(NodeRef.task("t0")) == 1
        assert graph.out_degree(NodeRef.task("t0")) == 1
        assert graph.in_degree(NodeRef.label("L1")) == 1  # produced by t0
        assert graph.out_degree(NodeRef.label("L1")) == 1  # consumed by t1
        assert graph.in_degree(NodeRef.label("L0")) == 0

    def test_statistics_includes_version(self):
        graph = Supergraph(chain_fragments(2))
        assert graph.statistics()["version"] == graph.version

    def test_conflicting_fragment_still_journals_partial_merge(self):
        from repro.core import InvalidWorkflowError

        graph = Supergraph(chain_fragments(1))
        version = graph.version
        conflicting = WorkflowFragment(
            [
                Task("new-task", ["a"], ["b"]),
                Task("t0", ["different"], ["inputs"]),  # conflicts with chain t0
            ],
            fragment_id="bad",
        )
        with pytest.raises(InvalidWorkflowError):
            graph.add_fragment(conflicting)
        # The partial merge (new-task) must be visible to dirty_since so a
        # memoized solver never serves a stale answer from before it.
        assert NodeRef.task("new-task") in graph.dirty_since(version)
        # The failed fragment id was not registered: a corrected version of
        # the fragment is not silently ignored.
        corrected = WorkflowFragment(
            [Task("new-task", ["a"], ["b"]), Task("t9", ["b"], ["c"])],
            fragment_id="bad",
        )
        graph.add_fragment(corrected)
        assert graph.has_task("t9")


class TestMakeSolver:
    def test_default_is_memoized(self):
        assert isinstance(make_solver(), MemoizedColoringSolver)

    def test_names_resolve(self):
        assert isinstance(make_solver("coloring"), ColoringSolver)
        assert isinstance(make_solver("scratch"), ColoringSolver)
        assert isinstance(make_solver("memoized"), MemoizedColoringSolver)
        assert isinstance(make_solver("incremental"), MemoizedColoringSolver)

    def test_instance_passthrough(self):
        solver = ColoringSolver()
        assert make_solver(solver) is solver

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_solver("simulated-annealing")

    def test_bad_type_raises(self):
        with pytest.raises(ConfigurationError):
            make_solver(42)  # type: ignore[arg-type]


class TestMemoizedColoringSolver:
    def solve_chain(self, solver, length=4):
        graph = Supergraph(chain_fragments(length))
        spec = Specification(["L0"], [f"L{length}"])
        return graph, spec, solver.solve(graph, spec)

    def test_first_solve_is_a_miss(self):
        solver = MemoizedColoringSolver()
        _, _, result = self.solve_chain(solver)
        assert result.succeeded
        assert result.statistics.cache_misses == 1
        assert result.statistics.solver == "memoized"

    def test_resolve_unchanged_graph_is_pure_hit(self):
        solver = MemoizedColoringSolver()
        graph, spec, _ = self.solve_chain(solver)
        result = solver.solve(graph, spec)
        assert result.statistics.cache_hits == 1
        assert result.statistics.nodes_recolored == 0
        assert result.statistics.exploration_iterations == 0
        assert result.succeeded

    def test_incremental_recolor_is_bounded_by_dirty_region(self):
        solver = MemoizedColoringSolver()
        fragments = chain_fragments(5)
        graph = Supergraph(fragments[:4])
        spec = Specification(["L0"], ["L5"])
        assert not solver.solve(graph, spec).succeeded
        graph.add_fragment(fragments[4])
        result = solver.solve(graph, spec)
        assert result.succeeded
        assert 0 < result.statistics.nodes_recolored < graph.node_count

    def test_distinct_specs_get_distinct_entries(self):
        solver = MemoizedColoringSolver()
        graph = Supergraph(chain_fragments(3))
        r1 = solver.solve(graph, Specification(["L0"], ["L3"]))
        r2 = solver.solve(graph, Specification(["L1"], ["L3"]))
        assert r1.succeeded and r2.succeeded
        assert solver.cache_size() == 2

    def test_distinct_graphs_do_not_collide(self):
        solver = MemoizedColoringSolver()
        fragments = chain_fragments(3)
        spec = Specification(["L0"], ["L3"])
        g1 = Supergraph(fragments)
        g2 = Supergraph(fragments[:1])
        assert solver.solve(g1, spec).succeeded
        assert not solver.solve(g2, spec).succeeded

    def test_opaque_filter_bypasses_cache(self):
        solver = MemoizedColoringSolver()
        graph = Supergraph(chain_fragments(3))
        spec = Specification(["L0"], ["L3"])
        result = solver.solve(graph, spec, task_filter=lambda t: True)
        assert result.succeeded
        assert result.statistics.cache_misses == 1
        assert solver.cache_size() == 0

    def test_filter_token_keys_the_cache(self):
        solver = MemoizedColoringSolver()
        graph = Supergraph(chain_fragments(3))
        spec = Specification(["L0"], ["L3"])
        allow_all = lambda t: True  # noqa: E731
        deny_t1 = lambda t: t.name != "t1"  # noqa: E731
        r1 = solver.solve(graph, spec, task_filter=allow_all, filter_token="all")
        r2 = solver.solve(graph, spec, task_filter=deny_t1, filter_token="no-t1")
        r3 = solver.solve(graph, spec, task_filter=allow_all, filter_token="all")
        assert r1.succeeded and not r2.succeeded
        assert r3.statistics.cache_hits == 1 and r3.statistics.nodes_recolored == 0

    def test_lru_eviction(self):
        solver = MemoizedColoringSolver(max_entries=2)
        graph = Supergraph(chain_fragments(4))
        for goal in ("L1", "L2", "L3"):
            solver.solve(graph, Specification(["L0"], [goal]))
        assert solver.cache_size() == 2
        assert solver.eviction_count == 1
        assert solver.statistics()["evictions"] == 1
        assert solver.statistics()["cache_entries"] == 2

    def test_popular_entries_survive_eviction_pressure(self):
        solver = MemoizedColoringSolver(max_entries=2, popular_hit_threshold=2)
        graph = Supergraph(chain_fragments(6))
        popular = Specification(["L0"], ["L1"])
        solver.solve(graph, popular)
        for _ in range(4):  # rack up hits: the entry is now "popular"
            solver.solve(graph, popular)
        # A burst of one-off specifications would evict a plain LRU entry...
        for goal in ("L2", "L3", "L4", "L5"):
            solver.solve(graph, Specification(["L0"], [goal]))
        assert solver.eviction_count > 0
        # ... but the popular entry is still resident: re-solving it is a
        # pure hit with zero colouring work.
        result = solver.solve(graph, popular)
        assert result.statistics.cache_hits == 1
        assert result.statistics.nodes_recolored == 0

    def test_unpopular_entries_are_the_ones_evicted(self):
        solver = MemoizedColoringSolver(max_entries=2, popular_hit_threshold=2)
        graph = Supergraph(chain_fragments(4))
        one_off = Specification(["L0"], ["L1"])
        solver.solve(graph, one_off)  # zero hits: evictable
        solver.solve(graph, Specification(["L0"], ["L2"]))
        solver.solve(graph, Specification(["L0"], ["L3"]))  # forces an eviction
        assert solver.cache_size() == 2
        result = solver.solve(graph, one_off)  # back in: had to be re-explored
        assert result.statistics.cache_misses == 1

    def test_popular_hit_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            MemoizedColoringSolver(popular_hit_threshold=0)

    def test_invalidate_clears_cache(self):
        solver = MemoizedColoringSolver()
        graph, spec, _ = self.solve_chain(solver)
        solver.invalidate()
        assert solver.cache_size() == 0
        assert solver.solve(graph, spec).statistics.cache_misses == 1

    def test_failure_then_irrelevant_arrival_stays_failed(self):
        solver = MemoizedColoringSolver()
        graph = Supergraph(chain_fragments(2))
        spec = Specification(["L0"], ["unknown-goal"])
        assert not solver.solve(graph, spec).succeeded
        graph.add_fragment(
            WorkflowFragment([Task("x", ["a"], ["b"])], fragment_id="x")
        )
        result = solver.solve(graph, spec)
        assert not result.succeeded
        assert "unknown" in result.reason

    def test_solver_statistics_accumulate(self):
        solver = MemoizedColoringSolver()
        graph, spec, _ = self.solve_chain(solver)
        solver.solve(graph, spec)
        stats = solver.statistics()
        assert stats["solves"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1


class TestSolveMany:
    def test_batch_solves_share_the_graph_version(self):
        solver = MemoizedColoringSolver()
        graph = Supergraph(chain_fragments(4))
        specs = [Specification(["L0"], [f"L{i}"]) for i in (1, 2, 3)]
        results = solver.solve_many(graph, specs)
        assert all(r.succeeded for r in results)
        # Re-running the batch is all cache hits.
        again = solver.solve_many(graph, specs)
        assert all(r.statistics.cache_hits == 1 for r in again)


class TestBaselineSolvers:
    def test_planner_solver_agrees_with_coloring(self):
        fragments = chain_fragments(4)
        graph = Supergraph(fragments)
        spec = Specification(["L0"], ["L4"])
        planner_result = PlannerSolver().solve(graph, spec)
        coloring_result = ColoringSolver().solve(graph, spec)
        assert results_equivalent(planner_result, coloring_result)
        assert planner_result.statistics.solver == "forward-chaining"

    def test_planner_solver_reports_infeasible(self):
        graph = Supergraph(chain_fragments(2))
        result = PlannerSolver().solve(graph, Specification(["L0"], ["nowhere"]))
        assert not result.succeeded

    def test_zero_input_tasks_cannot_reach_a_supergraph(self):
        # A zero-input task is applicable to naive forward chaining but can
        # never be coloured green.  The workflow model already forbids such
        # tasks at the fragment boundary (a non-label source), so a
        # supergraph never contains one; PlannerSolver additionally filters
        # them out of the planner table as belt-and-braces, keeping the two
        # strategies' feasibility verdicts aligned by construction.
        from repro.core import InvalidFragmentError

        with pytest.raises(InvalidFragmentError):
            WorkflowFragment([Task("spring", [], ["water"])], fragment_id="source")

    def test_static_solver_answers_with_fixed_workflow(self):
        tasks = [Task("cook", ["ingredients"], ["meal"])]
        solver = StaticWorkflowEngine(tasks).as_solver()
        assert isinstance(solver, StaticSolver)
        graph = Supergraph()
        ok = solver.solve(graph, Specification(["ingredients"], ["meal"]))
        assert ok.succeeded
        assert sorted(ok.workflow.task_names) == ["cook"]
        bad = solver.solve(graph, Specification(["ingredients"], ["dessert"]))
        assert not bad.succeeded

    def test_static_solver_respects_task_filter(self):
        tasks = [Task("cook", ["ingredients"], ["meal"])]
        solver = StaticWorkflowEngine(tasks).as_solver()
        result = solver.solve(
            Supergraph(),
            Specification(["ingredients"], ["meal"]),
            task_filter=lambda t: t.name != "cook",
        )
        assert not result.succeeded
        assert "cook" in result.reason

    def test_baselines_are_solvers(self):
        assert isinstance(PlannerSolver(), Solver)
        engine = StaticWorkflowEngine([Task("t", ["a"], ["b"])])
        assert isinstance(engine.as_solver(), Solver)


class TestSolverConfigurationHooks:
    def test_owms_solver_hook_reaches_workflow_managers(self):
        from repro import OpenWorkflowSystem

        system = OpenWorkflowSystem(solver="coloring")
        host = system.add_device("dev", fragments=chain_fragments(2))
        assert isinstance(host.workflow_manager.solver, ColoringSolver)
        assert not isinstance(host.workflow_manager.solver, MemoizedColoringSolver)
        override = system.add_device("dev2", solver="memoized")
        assert isinstance(override.workflow_manager.solver, MemoizedColoringSolver)

    def test_owms_default_is_memoized_and_solves(self):
        from repro import OpenWorkflowSystem
        from repro.execution import ServiceDescription

        system = OpenWorkflowSystem()
        system.add_device(
            "dev",
            fragments=chain_fragments(2),
            services=[ServiceDescription("s0"), ServiceDescription("s1")],
        )
        report = system.solve("dev", ["L0"], ["L2"])
        assert report.succeeded
        manager = system.host("dev").workflow_manager
        assert isinstance(manager.solver, MemoizedColoringSolver)

    def test_solve_many_returns_reports_in_order(self):
        from repro import OpenWorkflowSystem
        from repro.execution import ServiceDescription

        system = OpenWorkflowSystem()
        system.add_device(
            "dev",
            fragments=chain_fragments(3),
            services=[ServiceDescription(f"s{i}") for i in range(3)],
        )
        reports = system.solve_many(
            "dev", [(["L0"], ["L1"]), (["L0"], ["L3"]), (["L0"], ["absent"])]
        )
        assert [r.succeeded for r in reports] == [True, True, False]

    def test_repair_reuses_the_failed_workspace_supergraph(self):
        from repro.host.community import Community
        from repro.execution.services import ServiceDescription

        community = Community()
        community.add_host(
            "h",
            fragments=chain_fragments(2),
            services=[ServiceDescription("s0"), ServiceDescription("s1")],
            enable_recovery=True,
        )
        manager = community.host("h").workflow_manager
        workspace = community.submit_problem("h", ["L0"], ["L2"])
        community.run_until_allocated(workspace)
        original_graph = workspace.supergraph
        from repro.net.messages import TaskFailureRecord, WorkflowProgressReport

        manager.handle_progress_report(
            WorkflowProgressReport(
                sender="h",
                recipient="h",
                workflow_id=workspace.workflow_id,
                failures=(TaskFailureRecord(task_name="t0", reason="boom"),),
            )
        )
        assert workspace.repaired_by is not None
        repaired = manager.workspace(workspace.repaired_by)
        assert repaired is not None
        assert repaired.supergraph is original_graph


class TestEquivalenceAcrossArrivals:
    def test_incremental_equals_scratch_after_arrivals(self):
        fragments = chain_fragments(6)
        spec = Specification(["L0"], ["L6"])
        graph = Supergraph(fragments[:3])
        solver = MemoizedColoringSolver()
        solver.solve(graph, spec)
        for fragment in fragments[3:]:
            graph.add_fragment(fragment)
            result = solver.solve(graph, spec)
        scratch = construct_workflow(fragments, spec)
        assert results_equivalent(result, scratch)
        assert result.succeeded
