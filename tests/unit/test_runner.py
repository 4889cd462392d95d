"""Unit tests for the parallel experiment engine (`repro.experiments.runner`)."""

import pickle

import pytest

from repro.analysis.reporting import FigureResult
from repro.experiments.runner import (
    TrialRunner,
    TrialTask,
    aggregate_into_figure,
    execute_trial,
    summarise_by_point,
    sweep_tasks,
)


def make_tasks(runs=2, path_lengths=(2, 3), **overrides):
    return sweep_tasks(
        series=overrides.pop("series", "test"),
        num_tasks=overrides.pop("num_tasks", 25),
        num_hosts=overrides.pop("num_hosts", 3),
        path_lengths=path_lengths,
        runs=runs,
        seed=overrides.pop("seed", 11),
        **overrides,
    )


class TestTrialTask:
    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError):
            TrialTask("s", 2, 25, 2, 2, network="bogus")
        with pytest.raises(ValueError):
            TrialTask("s", 2, 25, 2, 2, mobility="bogus")

    def test_sweep_tasks_respects_max_path_length(self):
        tasks = make_tasks(runs=1, path_lengths=(2, 50), max_path_length=10)
        assert [task.path_length for task in tasks] == [2]

    def test_sweep_tasks_x_override(self):
        tasks = sweep_tasks(
            "s", 25, 4, path_lengths=(3,), runs=2, x_values=(4,), seed=1
        )
        assert all(task.x == 4 and task.path_length == 3 for task in tasks)


class TestExecuteTrial:
    def test_trial_is_self_contained_and_deterministic(self):
        task = make_tasks(runs=1, path_lengths=(3,))[0]
        first = execute_trial(task, timing="sim")
        second = execute_trial(task, timing="sim")
        assert first == second
        assert first.succeeded

    def test_impossible_path_length_yields_no_result(self):
        task = TrialTask("s", 99, num_tasks=25, num_hosts=2, path_length=99, seed=1)
        outcome = execute_trial(task)
        assert outcome.result is None and not outcome.succeeded

    def test_policy_task_changes_auction_behaviour(self):
        base = dict(num_tasks=25, num_hosts=4, path_length=3, seed=3)
        default = execute_trial(TrialTask("s", 3, **base), timing="sim")
        random_policy = execute_trial(
            TrialTask("s", 3, policy="random", **base), timing="sim"
        )
        assert default.succeeded and random_policy.succeeded

    def test_shared_cohort_holds_everything_but_the_series_fixed(self):
        base = dict(num_tasks=25, num_hosts=4, path_length=3, seed=9, cohort="fixed")
        alpha = execute_trial(TrialTask("alpha", 3, **base), timing="sim")
        beta = execute_trial(TrialTask("beta", 3, **base), timing="sim")
        # Identical cohort => identical spec, partition, and mobility seeds:
        # the trials differ in nothing but their aggregation label.
        assert alpha.result == beta.result

    def test_adhoc_multihop_scatter_trial(self):
        task = TrialTask(
            "s",
            3,
            num_tasks=25,
            num_hosts=12,
            path_length=3,
            seed=5,
            network="adhoc-multihop",
            mobility="scatter",
        )
        outcome = execute_trial(task, timing="sim")
        assert outcome.result is not None


class TestTrialRunner:
    def test_sequential_preserves_task_order(self):
        tasks = make_tasks(runs=2)
        outcomes = TrialRunner(parallel=False).run(tasks)
        assert [outcome.task for outcome in outcomes] == tasks

    def test_parallel_matches_sequential_byte_for_byte(self):
        tasks = make_tasks(runs=2)
        sequential = TrialRunner(parallel=False, timing="sim").run(tasks)
        parallel_runner = TrialRunner(max_workers=2, parallel=True, timing="sim")
        parallel = parallel_runner.run(tasks)
        if parallel_runner.sequential_fallbacks:
            pytest.skip("no usable process pool in this environment")
        assert parallel == sequential

    def test_results_independent_of_task_order(self):
        tasks = make_tasks(runs=2)
        forward = TrialRunner(parallel=False, timing="sim").run(tasks)
        backward = TrialRunner(parallel=False, timing="sim").run(list(reversed(tasks)))
        by_task = {outcome.task: outcome for outcome in backward}
        for outcome in forward:
            assert by_task[outcome.task] == outcome

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TrialRunner(timing="bogus")
        with pytest.raises(ValueError):
            TrialRunner(chunksize=0)
        with pytest.raises(ValueError):
            TrialRunner(max_workers=0)

    def test_empty_task_list(self):
        assert TrialRunner(parallel=False).run([]) == []


class TestAggregation:
    def test_aggregate_into_figure_groups_by_series_and_x(self):
        outcomes = TrialRunner(parallel=False).run(make_tasks(runs=2))
        figure = aggregate_into_figure(outcomes, FigureResult(title="t"))
        assert set(figure.series) == {"test"}
        assert figure.series["test"].xs() == [2, 3]
        for x in (2, 3):
            assert len(figure.series["test"].samples[x]) == 2

    def test_summarise_by_point(self):
        outcomes = TrialRunner(parallel=False).run(make_tasks(runs=3))
        summaries = summarise_by_point(outcomes)
        assert set(summaries) == {("test", 2), ("test", 3)}
        for summary in summaries.values():
            assert summary.count == 3
            assert summary.minimum <= summary.mean <= summary.maximum


class TestSharedPool:
    def test_one_pool_serves_many_runs(self):
        runner = TrialRunner(max_workers=2, parallel=True, timing="sim")
        try:
            first = runner.run(make_tasks(runs=2))
            second = runner.run(make_tasks(runs=2))
            assert [o.result for o in first] == [o.result for o in second]
            if runner.parallel_batches == 2:
                # The pool forked once and was reused by the second sweep.
                assert runner.pools_created == 1
            else:
                # Restricted sandbox: the graceful sequential fallback ran.
                assert runner.sequential_fallbacks > 0
        finally:
            runner.shutdown()
        assert runner._pool is None

    def test_shutdown_is_idempotent_and_context_manager_works(self):
        with TrialRunner(max_workers=2, parallel=False) as runner:
            runner.run(make_tasks(runs=1))
            runner.shutdown()
            runner.shutdown()
        assert runner.pools_created == 0  # sequential: no pool ever forked


class TestShutdownLifecycle:
    def test_run_after_shutdown_raises_clear_error(self):
        runner = TrialRunner(parallel=False)
        runner.run(make_tasks(runs=1))
        runner.shutdown()
        runner.shutdown()  # idempotent
        with pytest.raises(RuntimeError, match="shut down"):
            runner.run(make_tasks(runs=1))

    def test_context_manager_exit_retires_the_runner(self):
        with TrialRunner(parallel=False) as runner:
            runner.run(make_tasks(runs=1))
        with pytest.raises(RuntimeError):
            runner.run(make_tasks(runs=1))


class TestSharedInputs:
    def test_shared_matches_unshared_and_sequential_byte_for_byte(self):
        tasks = make_tasks(runs=2)
        sequential_runner = TrialRunner(parallel=False, timing="sim")
        sequential = sequential_runner.run(tasks)
        shared_runner = TrialRunner(max_workers=2, parallel=True, timing="sim")
        try:
            shared = shared_runner.run(tasks)
        finally:
            shared_runner.shutdown()
        if shared_runner.sequential_fallbacks:
            pytest.skip("no usable process pool in this environment")
        assert shared == sequential
        # The sweep's workloads went over shared memory, not down the pipe;
        # the sequential reference generated its own and shared nothing.
        assert shared_runner.bytes_shared > 0
        assert shared_runner.workers_attached >= 1
        assert sequential_runner.bytes_shared == 0
        assert sequential_runner.workers_attached == 0

    def test_publish_failure_degrades_to_unshared_run(self, monkeypatch):
        from repro.experiments import runner as runner_module

        def broken_publish(workloads):
            raise OSError("no shared memory on this platform")

        monkeypatch.setattr(runner_module, "publish_workloads", broken_publish)
        runner = TrialRunner(max_workers=2, parallel=True, timing="sim")
        try:
            outcomes = runner.run(make_tasks(runs=1))
        finally:
            runner.shutdown()
        assert all(outcome.succeeded for outcome in outcomes)
        assert runner.bytes_shared == 0
        assert runner.workers_attached == 0

    def test_attach_missing_segment_returns_false(self):
        from repro.experiments.shared_inputs import attach_workloads

        cache = {}
        assert not attach_workloads("psm_repro_does_not_exist", cache)
        assert cache == {}

    def test_segment_roundtrip_and_idempotent_unlink(self):
        from repro.experiments.runner import workload_for
        from repro.experiments.shared_inputs import (
            attach_workloads,
            publish_workloads,
        )

        key = (11, 25)
        try:
            segment = publish_workloads({key: workload_for(*key)})
        except OSError:
            pytest.skip("no shared memory on this platform")
        try:
            cache = {}
            assert attach_workloads(segment.name, cache)
            assert cache[key] == workload_for(*key)
            assert segment.wire_bytes > 0
        finally:
            segment.unlink()
            segment.unlink()  # idempotent
        assert not attach_workloads(segment.name, {})  # gone after unlink


class TestSharedInputCompression:
    def _workloads(self):
        from repro.experiments.runner import workload_for

        key = (11, 25)
        return {key: workload_for(*key)}

    def test_compression_shrinks_the_wire_payload(self):
        from repro.experiments.shared_inputs import decode_workloads, encode_workloads

        workloads = self._workloads()
        packed = encode_workloads(workloads)
        assert decode_workloads(packed) == workloads
        # Header included, the framed segment is smaller than the bare
        # pickle: the zlib pass actually paid off.
        assert len(packed) < len(pickle.dumps(workloads, pickle.HIGHEST_PROTOCOL))

    @pytest.mark.parametrize("mutation", ["magic", "version", "truncate", "crc"])
    def test_corrupt_segment_rejected(self, mutation):
        from repro.experiments.shared_inputs import decode_workloads, encode_workloads

        encoded = bytearray(encode_workloads(self._workloads()))
        if mutation == "magic":
            encoded[0:4] = b"XXXX"
        elif mutation == "version":
            encoded[4] = 99
        elif mutation == "truncate":
            encoded = encoded[: len(encoded) // 2]
        elif mutation == "crc":
            encoded[-1] ^= 0xFF
        with pytest.raises(ValueError):
            decode_workloads(bytes(encoded))
