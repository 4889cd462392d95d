"""Unit tests for the durable state plane (journal, snapshots, replay).

Covers the two shipped backends (:class:`InMemoryJournal`,
:class:`SQLiteJournal`), the WAL-truncation torture for the database (a
torn tail must recover to a prefix of complete records, never to a
corrupt state), the v1 -> v2 schema migration, compaction, the
``make_backend`` flag resolution, and the typed :class:`HostDurability`
hooks feeding :func:`rebuild_state`.
"""

import pickle
import shutil
import sqlite3
import zlib

import pytest

from repro.core.tasks import Task
from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.durability import (
    SQLITE_SCHEMA_VERSION,
    DurabilityBackend,
    DurableHostState,
    HostDurability,
    InMemoryJournal,
    SQLiteJournal,
    make_backend,
    rebuild_state,
)
from repro.scheduling.commitments import Commitment


def make_commitment(task_name="task-a", workflow_id="wf-1", start=5.0):
    task = Task(task_name, inputs=["in"], outputs=["out"])
    return Commitment(task=task, workflow_id=workflow_id, start=start)


PAYLOADS = [b"alpha", b"", b"b" * 300, pickle.dumps(("record", 3)), b"\x00\xff" * 17]


class TestBackendContract:
    @pytest.fixture(params=["memory", "sqlite"])
    def backend(self, request, tmp_path):
        if request.param == "memory":
            return InMemoryJournal()
        return SQLiteJournal(tmp_path, "host-0")

    def test_append_and_replay_in_order(self, backend):
        for payload in PAYLOADS:
            backend.append(payload)
        assert backend.payloads() == PAYLOADS
        assert backend.journal_length == len(PAYLOADS)

    def test_snapshot_truncates_journal(self, backend):
        for payload in PAYLOADS:
            backend.append(payload)
        backend.write_snapshot(b"snapshot-blob")
        assert backend.load_snapshot() == b"snapshot-blob"
        assert backend.payloads() == []
        assert backend.journal_length == 0
        backend.append(b"after")
        assert backend.payloads() == [b"after"]
        assert backend.load_snapshot() == b"snapshot-blob"

    def test_empty_backend(self, backend):
        assert backend.payloads() == []
        assert backend.load_snapshot() is None
        assert backend.journal_length == 0


def _copy_database(src: SQLiteJournal, dst_dir, name="host-0"):
    """Copy a live database's files (main + WAL) as a crash image."""

    dst_dir.mkdir(parents=True, exist_ok=True)
    for suffix in ("", "-wal", "-shm"):
        source = src.db_path.parent / (src.db_path.name + suffix)
        if source.exists():
            shutil.copy(source, dst_dir / (f"{name}.sqlite" + suffix))


class TestSQLiteJournal:
    def test_database_survives_backend_object_loss(self, tmp_path):
        first = SQLiteJournal(tmp_path, "host-3")
        first.append(b"one")
        first.append(b"two")
        first.write_snapshot(b"snap")
        first.append(b"three")
        first.close()
        second = SQLiteJournal(tmp_path, "host-3")
        assert second.load_snapshot() == b"snap"
        assert second.payloads() == [b"three"]
        assert second.schema_version == SQLITE_SCHEMA_VERSION

    def test_host_id_with_path_separators_is_sanitised(self, tmp_path):
        backend = SQLiteJournal(tmp_path, "host/with/slashes")
        backend.append(b"x")
        assert backend.payloads() == [b"x"]
        assert backend.db_path.parent == tmp_path

    def test_kill_at_every_commit_boundary(self, tmp_path):
        """Crash-copy the database after every append and replay the copy.

        Each copy models a process killed right after the commit returned:
        the reopened image must hold exactly the records appended so far —
        the WAL carries the tail, ``synchronous=FULL`` guarantees it.
        """

        writer = SQLiteJournal(tmp_path / "live", "host-0")
        # Keep committed frames in the WAL so the copies exercise WAL
        # recovery, not just the checkpointed main file.
        writer._conn.execute("PRAGMA wal_autocheckpoint=0")
        for index, payload in enumerate(PAYLOADS):
            writer.append(payload)
            image = tmp_path / f"crash-{index}"
            _copy_database(writer, image)
            recovered = SQLiteJournal(image, "host-0")
            assert recovered.payloads() == PAYLOADS[: index + 1]
            recovered.close()

    def test_kill_at_every_wal_byte_offset_recovers_a_prefix(self, tmp_path):
        """Torture: truncate the WAL at byte offsets and replay.

        Whatever prefix of the write-ahead log survives, recovery must
        yield an exact prefix of the appended records — never a torn
        payload, never an exception.  A small page size keeps the WAL (and
        the sweep) short; the sweep is exhaustive over the 32-byte WAL
        header and the first frame, then samples a window around every
        later frame boundary plus a stride through frame interiors, which
        covers the structurally distinct cuts without a 10s wall clock.
        """

        page, frame = 512, 512 + 24
        live = tmp_path / "live"
        live.mkdir()
        db_file = live / "host-0.sqlite"
        seed = sqlite3.connect(str(db_file))
        seed.execute(f"PRAGMA page_size={page}")
        seed.execute("PRAGMA journal_mode=WAL")
        seed.close()

        writer = SQLiteJournal(live, "host-0")
        # Flush the schema-creation frames into the main file so the WAL
        # holds nothing but the appends, then pin frames in the WAL.
        writer._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        writer._conn.execute("PRAGMA wal_autocheckpoint=0")
        payloads = [b"alpha", b"beta" * 20, b"gamma"]
        for payload in payloads:
            writer.append(payload)
        wal = (live / "host-0.sqlite-wal").read_bytes()
        main = db_file.read_bytes()
        assert wal, "expected the appends to live in the WAL"

        cuts = set(range(min(32 + frame, len(wal)) + 1))
        for boundary in range(32 + frame, len(wal) + 1, frame):
            cuts.update(range(max(0, boundary - 8), min(boundary + 8, len(wal)) + 1))
        cuts.update(range(0, len(wal) + 1, 13))
        cuts.add(len(wal))

        for cut in sorted(cuts):
            image = tmp_path / "cut"
            if image.exists():
                shutil.rmtree(image)
            image.mkdir()
            (image / "host-0.sqlite").write_bytes(main)
            (image / "host-0.sqlite-wal").write_bytes(wal[:cut])
            recovered = SQLiteJournal(image, "host-0")
            replayed = recovered.payloads()
            assert replayed == payloads[: len(replayed)], f"cut at {cut}"
            recovered.close()
        # The full image must replay everything, not just a prefix.
        assert replayed == payloads

    def test_corrupt_journal_row_stops_replay(self, tmp_path):
        backend = SQLiteJournal(tmp_path, "host-0")
        for payload in PAYLOADS:
            backend.append(payload)
        backend._conn.execute("UPDATE journal SET crc = crc + 1 WHERE seq = 3")
        assert backend.payloads() == PAYLOADS[:2]

    def test_corrupt_snapshot_treated_as_absent(self, tmp_path):
        backend = SQLiteJournal(tmp_path, "host-0")
        backend.write_snapshot(b"full-snapshot")
        backend._conn.execute("UPDATE snapshot SET crc = crc + 1 WHERE id = 1")
        assert backend.load_snapshot() is None

    def test_v1_database_migrates_forward(self, tmp_path):
        """Round-trip: a v1 journal file opens under the v2 schema intact."""

        db_file = tmp_path / "host-0.sqlite"
        conn = sqlite3.connect(str(db_file))
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL)")
        conn.execute(
            "CREATE TABLE journal "
            "(seq INTEGER PRIMARY KEY AUTOINCREMENT, payload BLOB NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE snapshot "
            "(id INTEGER PRIMARY KEY CHECK (id = 1), blob BLOB NOT NULL)"
        )
        conn.execute("INSERT INTO meta (key, value) VALUES ('schema_version', 1)")
        for payload in PAYLOADS:
            conn.execute("INSERT INTO journal (payload) VALUES (?)", (payload,))
        conn.execute("INSERT INTO snapshot (id, blob) VALUES (1, ?)", (b"old-snap",))
        conn.commit()
        conn.close()

        backend = SQLiteJournal(tmp_path, "host-0")
        assert backend.schema_migrations == 1
        assert backend.schema_version == SQLITE_SCHEMA_VERSION
        assert backend.payloads() == PAYLOADS
        assert backend.load_snapshot() == b"old-snap"
        row = backend._conn.execute(
            "SELECT crc FROM journal WHERE seq = 1"
        ).fetchone()
        assert row[0] == zlib.crc32(PAYLOADS[0])
        backend.append(b"post-migration")
        backend.close()
        reopened = SQLiteJournal(tmp_path, "host-0")
        assert reopened.schema_migrations == 0
        assert reopened.payloads() == PAYLOADS + [b"post-migration"]

    def test_newer_schema_refused(self, tmp_path):
        backend = SQLiteJournal(tmp_path, "host-0")
        backend._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (SQLITE_SCHEMA_VERSION + 1,),
        )
        backend.close()
        with pytest.raises(ValueError, match="newer than"):
            SQLiteJournal(tmp_path, "host-0")

    def test_snapshot_and_truncate_are_one_transaction(self, tmp_path):
        """The journal is only emptied in the same commit as the snapshot."""

        backend = SQLiteJournal(tmp_path, "host-0")
        for payload in PAYLOADS:
            backend.append(payload)
        backend._conn.execute("PRAGMA wal_autocheckpoint=0")
        before = tmp_path / "before"
        _copy_database(backend, before)
        backend.write_snapshot(b"snap")
        after = tmp_path / "after"
        _copy_database(backend, after)

        old = SQLiteJournal(before, "host-0")
        assert old.load_snapshot() is None
        assert old.payloads() == PAYLOADS
        new = SQLiteJournal(after, "host-0")
        assert new.load_snapshot() == b"snap"
        assert new.payloads() == []


class TestMakeBackend:
    def test_off_values(self):
        assert make_backend(None, "h") is None
        assert make_backend(False, "h") is None

    def test_memory_values(self):
        assert isinstance(make_backend(True, "h"), InMemoryJournal)
        assert isinstance(make_backend("memory", "h"), InMemoryJournal)

    def test_file_value(self, tmp_path):
        """SQLite is the one on-disk journal: ``"file"`` is an unknown spec
        like any other."""

        with pytest.raises(ValueError, match="unknown durability spec"):
            make_backend("file", "h", directory=tmp_path)

    def test_sqlite_value(self, tmp_path):
        backend = make_backend("sqlite", "h", directory=tmp_path)
        assert isinstance(backend, SQLiteJournal)
        assert backend.db_path.parent == tmp_path

    @pytest.mark.parametrize("spec", ["sqlite"])
    def test_own_temporary_directory_is_removed_on_close(self, spec):
        backend = make_backend(spec, "h")
        backend.append(b"record")
        directory = backend.directory
        assert directory.is_dir()
        backend.close()
        assert not directory.exists()
        backend.close()  # a second close is harmless

    @pytest.mark.parametrize("spec", ["sqlite"])
    def test_own_temporary_directory_is_removed_when_freed(self, spec):
        backend = make_backend(spec, "h")
        backend.append(b"record")
        directory = backend.directory
        backend = None
        assert not directory.exists()

    @pytest.mark.parametrize("spec", ["sqlite"])
    def test_explicit_directory_survives_close(self, spec, tmp_path):
        backend = make_backend(spec, "h", directory=tmp_path)
        backend.append(b"record")
        backend.close()
        backend = None
        assert make_backend(spec, "h", directory=tmp_path).payloads() == [b"record"]

    def test_factory_callable(self):
        made = []

        def factory(host_id):
            backend = InMemoryJournal()
            made.append((host_id, backend))
            return backend

        backend = make_backend(factory, "host-9")
        assert made == [("host-9", backend)]

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown durability spec"):
            make_backend("cloud", "h")


class TestHostDurability:
    def test_hooks_build_replayable_state(self):
        plane = HostDurability(InMemoryJournal())
        fragment = WorkflowFragment(
            [Task("task-a", inputs=["in"], outputs=["out"])], fragment_id="frag-1"
        )
        commitment = make_commitment()
        spec = Specification(triggers=["in"], goals=["out"], name="s")

        plane.epoch_started(7)
        plane.fragment_added(fragment)
        plane.commitment_added(commitment)
        plane.invocation_scheduled(commitment)
        plane.input_received("wf-1", "task-a", "in", 42)
        plane.invocation_fired("wf-1", "task-a")
        plane.workspace_opened("wf-1", spec, frozenset({"h0", "h1"}), frozenset(), None, 0)
        plane.workspace_awarded("wf-1", {"task-a": "h1"}, ("task-a",))
        plane.workspace_phase("wf-1", "executing")

        state = plane.state()
        assert state.epochs == [7]
        assert state.fragments == {"frag-1": fragment}
        assert list(state.commitments) == [commitment.commitment_id]
        invocation = state.invocations[("wf-1", "task-a")]
        assert invocation.inputs == {"in": 42}
        assert invocation.fired and not invocation.finished
        workspace = state.workspaces["wf-1"]
        assert workspace.phase == "executing"
        assert workspace.allocation == {"task-a": "h1"}
        assert workspace.participants == frozenset({"h0", "h1"})

    def test_settled_invocations_and_released_commitments(self):
        plane = HostDurability(InMemoryJournal())
        commitment = make_commitment()
        plane.commitment_added(commitment)
        plane.invocation_scheduled(commitment)
        plane.invocation_completed("wf-1", "task-a")
        plane.commitment_released(commitment.commitment_id)

        state = plane.state()
        assert state.commitments == {}
        assert state.invocations[("wf-1", "task-a")].finished

    def test_suspended_blocks_appends(self):
        backend = InMemoryJournal()
        plane = HostDurability(backend)
        with plane.suspended():
            plane.epoch_started(1)
            with plane.suspended():  # re-entrant
                plane.epoch_started(2)
            plane.epoch_started(3)
        assert backend.journal_length == 0
        plane.epoch_started(4)
        assert plane.state().epochs == [4]

    def test_compaction_folds_and_truncates(self):
        backend = InMemoryJournal()
        plane = HostDurability(backend, snapshot_every=10)
        for epoch in range(1, 26):
            plane.epoch_started(epoch)
        assert backend.snapshots_written == 2
        assert backend.journal_length < 10
        assert plane.state().epochs == list(range(1, 26))

    def test_compaction_drops_superseded_records(self):
        backend = InMemoryJournal()
        plane = HostDurability(backend, snapshot_every=4)
        commitment = make_commitment()
        plane.commitment_added(commitment)
        plane.invocation_scheduled(commitment)
        plane.invocation_completed("wf-1", "task-a")
        plane.commitment_released(commitment.commitment_id)  # triggers compaction
        assert backend.journal_length == 0
        snapshot = pickle.loads(backend.load_snapshot())
        assert isinstance(snapshot, DurableHostState)
        assert snapshot.commitments == {}

    def test_published_outputs_build_replayable_cache(self):
        plane = HostDurability(InMemoryJournal())
        plane.label_published("wf-1", "out", 42)
        plane.label_published("wf-1", "other", "x")
        plane.label_published("wf-1", "out", 43)  # re-publication wins
        state = plane.state()
        assert state.published == {("wf-1", "out"): 43, ("wf-1", "other"): "x"}

    def test_journal_outputs_off_drops_publications(self):
        backend = InMemoryJournal()
        plane = HostDurability(backend, journal_outputs=False)
        plane.label_published("wf-1", "out", 42)
        assert backend.journal_length == 0
        assert plane.state().published == {}

    def test_workspace_construction_records_build_resume_state(self):
        plane = HostDurability(InMemoryJournal())
        spec = Specification(triggers=["in"], goals=["out"], name="s")
        fragment = WorkflowFragment(
            [Task("task-a", inputs=["in"], outputs=["out"])], fragment_id="frag-1"
        )
        plane.workspace_opened(
            "wf-1", spec, frozenset({"h0", "h1", "h2"}), frozenset(), None, 0
        )
        plane.workspace_phase("wf-1", "discovery")
        plane.discovery_response("wf-1", "h1", [fragment])
        plane.discovery_response("wf-1", "h1", [fragment])  # duplicate ignored
        workspace = plane.state().workspaces["wf-1"]
        assert workspace.responded == {"h1"}
        assert workspace.discovered == [fragment]

        plane.auction_completed("wf-1", {"task-a": "h2"}, ())
        workspace = plane.state().workspaces["wf-1"]
        assert workspace.allocation == {"task-a": "h2"}

        plane.allocation_updated("wf-1", {"task-a": "h0"})
        workspace = plane.state().workspaces["wf-1"]
        assert workspace.allocation == {"task-a": "h0"}

    def test_terminal_phase_clears_discovery_bookkeeping(self):
        plane = HostDurability(InMemoryJournal())
        spec = Specification(triggers=["in"], goals=["out"], name="s")
        fragment = WorkflowFragment(
            [Task("task-a", inputs=["in"], outputs=["out"])], fragment_id="frag-1"
        )
        plane.workspace_opened("wf-1", spec, frozenset({"h0", "h1"}), frozenset(), None, 0)
        plane.discovery_response("wf-1", "h1", [fragment])
        plane.workspace_phase("wf-1", "executing")
        workspace = plane.state().workspaces["wf-1"]
        assert workspace.responded == set()
        assert workspace.discovered == []

    def test_rebuild_skips_garbage_payloads(self):
        backend = InMemoryJournal()
        plane = HostDurability(backend)
        plane.epoch_started(1)
        backend.append(b"not a pickle")
        backend.append(pickle.dumps("not a tuple"))
        backend.append(pickle.dumps(("unknown-kind", 1, 2)))
        plane.epoch_started(2)
        assert rebuild_state(backend).epochs == [1, 2]

    def test_snapshot_every_validated(self):
        with pytest.raises(ValueError):
            HostDurability(InMemoryJournal(), snapshot_every=0)

    def test_abstract_backend_not_instantiable(self):
        with pytest.raises(TypeError):
            DurabilityBackend()  # type: ignore[abstract]
