"""Equivalence pins for the durable state plane.

Three contracts, per the PR's acceptance criteria:

(a) **Off means absent.**  ``durability=None`` (and ``False``) must be
    byte-identical to not passing the flag at all: same messages, same
    bytes, same RNG-driven outcomes, zero journal writes anywhere.

(b) **Recovery beats repair.**  Under a seeded crash schedule that
    interrupts executing winners, the durable community reaches the same
    terminal workflow phase as the repair-only baseline while re-running
    strictly fewer auctions: a restarted winner resumes its journaled
    invocation instead of forcing the initiator to fail the revision and
    re-auction every task.

(c) **Truncation-safe replay.**  A :class:`SQLiteJournal` cut at *any*
    record boundary rebuilds exactly the state of the snapshot plus the
    surviving journal prefix — never more, never corrupt.
"""

import pickle

import pytest

from repro.durability import HostDurability, InMemoryJournal, SQLiteJournal, rebuild_state
from repro.durability.plane import DurableHostState, _loads
from repro.experiments.runner import workload_for
from repro.experiments.trials import run_churn_trial, simulated_network_factory
from repro.sim.randomness import derive_rng

BASE_WORKLOAD = workload_for(42, 30)
SPEC = BASE_WORKLOAD.path_specification(4, derive_rng(42, "spec"))
# Tasks take 60 simulated seconds so a 4-task path spans ~240s of
# execution — wide enough that the crash schedule below reliably lands on
# winners mid-invocation (instantaneous tasks finish the whole trial at
# t=0, before any crash fires).
TIMED_WORKLOAD = BASE_WORKLOAD.with_task_durations(60.0)
NUM_HOSTS = 20


def hostile_churn(seed, workload=BASE_WORKLOAD, **kwargs):
    """The PR 7 acceptance fault load (drops + duplicates + two crashes)."""

    return run_churn_trial(
        workload,
        NUM_HOSTS,
        SPEC,
        seed=seed,
        network_factory=simulated_network_factory(seed),
        **kwargs,
    )


def crash_only_churn(seed, **kwargs):
    """Crash-focused schedule: every difference is attributable to resume.

    No message faults; four crash/restart cycles drawn from a window inside
    the ~240s execution span, with an outage short enough that a resumed
    re-execution still meets downstream input windows.
    """

    return run_churn_trial(
        TIMED_WORKLOAD,
        NUM_HOSTS,
        SPEC,
        seed=seed,
        network_factory=simulated_network_factory(seed),
        drop_probability=0.0,
        duplicate_probability=0.0,
        num_crashes=4,
        crash_window=(30.0, 200.0),
        outage=25.0,
        **kwargs,
    )


class TestOffMeansAbsent:
    """(a): the flag-off path is pinned to the flag-absent path."""

    @pytest.mark.parametrize("off", [None, False])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_churn_trial_identical_with_flag_off(self, seed, off):
        absent = hostile_churn(seed)
        explicit = hostile_churn(seed, durability=off)
        assert absent.deterministic_copy() == explicit.deterministic_copy()
        # Not one extra message, byte, or resumed anything.
        assert (absent.messages_sent, absent.bytes_sent) == (
            explicit.messages_sent,
            explicit.bytes_sent,
        )
        assert explicit.invocations_resumed == 0
        assert explicit.workflows_resumed == 0

    def test_no_backend_is_ever_created_when_off(self):
        from repro.experiments.trials import build_trial_community

        community = build_trial_community(
            BASE_WORKLOAD,
            5,
            seed=0,
            network_factory=simulated_network_factory(0),
            durability=None,
        )
        assert community._durability_backends == {}
        assert all(host.durability is None for host in community)

    def test_durable_run_changes_no_wire_traffic_without_crashes(self):
        """Journaling is host-local: with no crash to recover from, the
        durable community exchanges exactly the baseline's messages."""

        base = hostile_churn(7, num_crashes=0)
        durable = hostile_churn(7, num_crashes=0, durability="memory")
        assert (base.messages_sent, base.bytes_sent) == (
            durable.messages_sent,
            durable.bytes_sent,
        )
        assert base.deterministic_copy() == durable.deterministic_copy()


class TestRecoveryBeatsRepair:
    """(b): crash→recover parity with strictly less re-auction work."""

    SEEDS = range(8)

    def test_same_terminal_phase_fewer_reauctions(self):
        base_repairs = durable_repairs = resumed = 0
        for seed in self.SEEDS:
            base = crash_only_churn(seed)
            durable = crash_only_churn(seed, durability="memory")
            # Parity: the durable path never loses a workflow the repair
            # ladder would have saved.
            assert durable.succeeded == base.succeeded, seed
            assert durable.succeeded, seed
            # A repair revision re-auctions every task of the workflow; a
            # resumed invocation re-auctions nothing.
            base_repairs += base.workflows_recovered
            durable_repairs += durable.workflows_recovered
            resumed += durable.invocations_resumed
            assert durable.workflows_recovered <= base.workflows_recovered, seed
        assert resumed > 0  # the journals actually carried live state
        assert base_repairs > 0  # the schedule actually interrupted winners
        assert durable_repairs < base_repairs

    def test_durable_recovery_is_deterministic(self):
        first = crash_only_churn(3, durability="memory")
        second = crash_only_churn(3, durability="memory")
        assert first.deterministic_copy() == second.deterministic_copy()
        assert first.invocations_resumed == second.invocations_resumed


def _cut_copy(backend: SQLiteJournal, directory, keep: int) -> SQLiteJournal:
    """A copy of ``backend``'s database (snapshot included) whose journal
    lost every row after the first ``keep``: a crash at that boundary."""

    cut = SQLiteJournal(directory, "host-0")
    backend._conn.backup(cut._conn)
    seqs = [seq for (seq,) in cut._conn.execute("SELECT seq FROM journal ORDER BY seq")]
    if keep < len(seqs):
        cut._conn.execute("DELETE FROM journal WHERE seq >= ?", (seqs[keep],))
    return cut


class TestTruncationSafeReplay:
    """(c): SQLiteJournal replay is exact at every record boundary."""

    @staticmethod
    def _journal_some_history(plane):
        """A realistic mixed record stream (fragments, schedule, execution)."""

        from repro.core.fragments import WorkflowFragment
        from repro.core.specification import Specification
        from repro.core.tasks import Task
        from repro.scheduling.commitments import Commitment

        task = Task("task-a", inputs=["in"], outputs=["out"])
        commitment = Commitment(task=task, workflow_id="wf-1", start=10.0)
        plane.epoch_started(1)
        plane.fragment_added(WorkflowFragment([task], fragment_id="f1"))
        plane.commitment_added(commitment)
        plane.invocation_scheduled(commitment)
        plane.workspace_opened(
            "wf-1",
            Specification(triggers=["in"], goals=["out"], name="s"),
            frozenset({"h0", "h1"}),
            frozenset(),
            None,
            0,
        )
        plane.input_received("wf-1", "task-a", "in", b"payload")
        plane.invocation_fired("wf-1", "task-a")
        plane.workspace_awarded("wf-1", {"task-a": "h1"}, ("task-a",))
        plane.workspace_phase("wf-1", "executing")
        plane.invocation_completed("wf-1", "task-a")
        plane.workspace_task_completed("wf-1", "task-a")
        plane.commitment_released(commitment.commitment_id)

    def test_every_record_boundary_replays_exactly(self, tmp_path):
        backend = SQLiteJournal(tmp_path, "host-0")
        plane = HostDurability(backend, snapshot_every=10_000)
        # Install a snapshot first so every cut exercises snapshot + tail.
        plane.epoch_started(0)
        plane.compact()
        self._journal_some_history(plane)

        payloads = backend.payloads()
        assert len(payloads) == backend.journal_length > 0
        snapshot_state = pickle.loads(backend.load_snapshot())
        assert isinstance(snapshot_state, DurableHostState)

        for count in range(len(payloads) + 1):
            truncated = _cut_copy(backend, tmp_path / f"cut-{count}", count)
            assert truncated.payloads() == payloads[:count]
            expected = pickle.loads(pickle.dumps(snapshot_state))
            for payload in payloads[:count]:
                expected.apply(_loads(payload))
            assert rebuild_state(truncated) == expected, f"cut after {count} records"
            truncated.close()

    def test_mid_record_cuts_round_down_to_the_boundary(self, tmp_path):
        backend = SQLiteJournal(tmp_path, "host-0")
        plane = HostDurability(backend, snapshot_every=10_000)
        self._journal_some_history(plane)
        payloads = backend.payloads()

        # Tear the fifth record in half (its checksum still describes the
        # whole payload): replay must see exactly four records — the torn
        # fifth never partially applies.
        torn = _cut_copy(backend, tmp_path / "torn", len(payloads))
        (seq,) = torn._conn.execute(
            "SELECT seq FROM journal ORDER BY seq LIMIT 1 OFFSET 4"
        ).fetchone()
        torn._conn.execute(
            "UPDATE journal SET payload = ? WHERE seq = ?",
            (payloads[4][: len(payloads[4]) // 2], seq),
        )
        reference = DurableHostState()
        for payload in payloads[:4]:
            reference.apply(_loads(payload))
        assert rebuild_state(torn) == reference

    def test_in_memory_and_sqlite_backends_agree(self, tmp_path):
        memory_plane = HostDurability(InMemoryJournal(), snapshot_every=10_000)
        sqlite_plane = HostDurability(
            SQLiteJournal(tmp_path, "host-0"), snapshot_every=10_000
        )
        self._journal_some_history(memory_plane)
        self._journal_some_history(sqlite_plane)
        assert memory_plane.state() == sqlite_plane.state()
