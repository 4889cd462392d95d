"""Integration tests for churn trials with the durable state plane on.

The durability acceptance tests: the 20-host hostile-network trial of
``test_churn.py`` re-run with ``durability="memory"`` must (1) complete at
least as often as the repair-only baseline, (2) replay identically from
the same seed — journaling and recovery included, and (3) actually resume
journaled state when the crash schedule interrupts executing winners,
draining the scheduler like every other run.  This is the file the CI
``durability-smoke`` leg runs.
"""

from repro.experiments.runner import workload_for
from repro.experiments.trials import run_churn_trial, simulated_network_factory
from repro.sim.randomness import derive_rng

WORKLOAD = workload_for(42, 30)
SPEC = WORKLOAD.path_specification(4, derive_rng(42, "spec"))
# 60-second tasks stretch the 4-task path over ~240 simulated seconds so
# the crash windows below land mid-execution (see
# GeneratedWorkload.with_task_durations); the instantaneous workload is
# still used for the baseline-parity sweep, matching test_churn.py.
TIMED_WORKLOAD = WORKLOAD.with_task_durations(60.0)


def churn(seed: int, **kwargs):
    return run_churn_trial(
        WORKLOAD,
        20,
        SPEC,
        seed=seed,
        network_factory=simulated_network_factory(seed),
        **kwargs,
    )


def timed_churn(seed: int, **kwargs):
    return run_churn_trial(
        TIMED_WORKLOAD,
        20,
        SPEC,
        seed=seed,
        network_factory=simulated_network_factory(seed),
        num_crashes=4,
        crash_window=(30.0, 200.0),
        outage=25.0,
        **kwargs,
    )


class TestDurableSurvival:
    def test_completion_rate_no_worse_than_repair_only(self):
        seeds = range(20)
        base = [churn(seed) for seed in seeds]
        durable = [churn(seed, durability="memory") for seed in seeds]
        base_rate = sum(r.succeeded for r in base) / len(base)
        durable_rate = sum(r.succeeded for r in durable) / len(durable)
        assert durable_rate >= base_rate
        assert durable_rate >= 0.9
        for result in durable:
            assert result.succeeded or result.failure_reason

    def test_restarted_winners_resume_journaled_invocations(self):
        results = [
            timed_churn(seed, drop_probability=0.0, duplicate_probability=0.0,
                        durability="memory")
            for seed in range(8)
        ]
        assert sum(r.invocations_resumed for r in results) > 0
        assert all(r.succeeded for r in results)

    def test_resume_skips_the_repair_ladder(self):
        # Seed 2's crash schedule interrupts a winner mid-invocation: the
        # repair-only baseline finishes in a repair revision, the durable
        # run finishes the *original* revision after the winner resumes.
        base = timed_churn(2, drop_probability=0.0, duplicate_probability=0.0)
        durable = timed_churn(
            2, drop_probability=0.0, duplicate_probability=0.0, durability="memory"
        )
        assert base.succeeded and durable.succeeded
        assert base.workflows_recovered == 1
        assert durable.workflows_recovered == 0
        assert durable.invocations_resumed > 0


class TestDurableDeterminism:
    def test_same_seed_twice_is_identical(self):
        first = churn(seed=7, durability="memory")
        second = churn(seed=7, durability="memory")
        assert first.deterministic_copy() == second.deterministic_copy()

    def test_timed_crash_schedule_replays_identically(self):
        first = timed_churn(seed=3, durability="memory")
        second = timed_churn(seed=3, durability="memory")
        assert first.deterministic_copy() == second.deterministic_copy()
        assert first.invocations_resumed == second.invocations_resumed
        assert first.workflows_resumed == second.workflows_resumed


class TestSQLiteBackedDurability:
    """The on-disk backend must be a drop-in replacement for the in-memory one."""

    def test_sqlite_journal_backend_matches_memory_backend(self, tmp_path):
        from repro.durability import SQLiteJournal

        memory = timed_churn(
            5, drop_probability=0.0, duplicate_probability=0.0, durability="memory"
        )
        sqlite_backed = timed_churn(
            5,
            drop_probability=0.0,
            duplicate_probability=0.0,
            durability=lambda host_id: SQLiteJournal(tmp_path, host_id),
        )
        assert memory.deterministic_copy() == sqlite_backed.deterministic_copy()
        assert memory.invocations_resumed == sqlite_backed.invocations_resumed
        assert memory.labels_replayed == sqlite_backed.labels_replayed

    def test_sqlite_same_seed_twice_is_identical(self, tmp_path):
        from repro.durability import SQLiteJournal

        first = timed_churn(
            3, durability=lambda host_id: SQLiteJournal(tmp_path / "a", host_id)
        )
        second = timed_churn(
            3, durability=lambda host_id: SQLiteJournal(tmp_path / "b", host_id)
        )
        assert first.deterministic_copy() == second.deterministic_copy()
        assert first.invocations_resumed == second.invocations_resumed
        assert first.workflows_resumed == second.workflows_resumed

    def test_sqlite_string_flag_builds_working_backends(self):
        # ``durability="sqlite"`` resolves through ``make_backend`` with a
        # fresh temporary directory per host; results must match the
        # in-memory plane bit for bit.
        reference = churn(seed=7, durability="memory")
        sqlite_flag = churn(seed=7, durability="sqlite")
        assert reference.deterministic_copy() == sqlite_flag.deterministic_copy()
