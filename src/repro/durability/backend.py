"""Pluggable persistence backends for the durable state plane.

A backend stores two things for one host:

* an **append-only journal** of opaque record payloads, and
* at most one **snapshot** blob that supersedes every record appended
  before it was written (:meth:`DurabilityBackend.write_snapshot`
  atomically installs the snapshot *and* truncates the journal).

Payloads are ``bytes``; serialisation policy (what a record means) belongs
to :mod:`repro.durability.plane`, storage policy (where the bytes survive)
belongs here — the RAFDA-style split between application logic and
persistence policy.

Two implementations ship:

:class:`InMemoryJournal`
    Keeps the bytes in process memory on the *community* side (the host
    object itself dies on a crash), modelling the flash storage of the
    paper's mobile devices without touching the filesystem.  This is the
    backend churn trials use.

:class:`SQLiteJournal`
    A WAL-mode single-file SQLite database holding journal, snapshot, and
    schema metadata in one place.  Every row carries a crc32, and replay
    stops at the first row whose checksum disagrees, so a damaged
    database recovers to the last intact record, never to a corrupt
    state.  Appends are single-row transactions;
    snapshot installation and journal truncation are *one* transaction, so
    a crash mid-compaction observes either the old state or the new,
    never a snapshot without its truncation.  The schema is versioned and
    migrated forward on open, so a journal written by an older release
    keeps replaying under a newer one.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
import weakref
import zlib
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable


class DurabilityBackend(ABC):
    """Append-only journal + snapshot storage for one host."""

    # -- journal ----------------------------------------------------------
    @abstractmethod
    def append(self, payload: bytes) -> None:
        """Durably append one opaque record payload to the journal."""

    @abstractmethod
    def payloads(self) -> list[bytes]:
        """Every complete journal record since the last snapshot, in order."""

    @property
    @abstractmethod
    def journal_length(self) -> int:
        """Number of complete records currently in the journal."""

    # -- snapshot ---------------------------------------------------------
    @abstractmethod
    def write_snapshot(self, blob: bytes) -> None:
        """Install ``blob`` as the snapshot and truncate the journal.

        The snapshot supersedes every record appended so far; records
        appended afterwards apply on top of it.
        """

    @abstractmethod
    def load_snapshot(self) -> bytes | None:
        """The current snapshot blob, or ``None`` when none was written."""

    #: Set by :func:`make_backend` on a backend it gave a temporary
    #: directory of its own: removes that directory, once.
    _temporary: weakref.finalize | None = None

    def close(self) -> None:
        """Release any resources (files) held by the backend.

        A backend that made its own temporary directory removes it here, or
        when it is freed without being closed.
        """

        if self._temporary is not None:
            self._temporary()


class InMemoryJournal(DurabilityBackend):
    """Journal + snapshot kept in process memory (simulated flash storage).

    The backend object is owned by the :class:`~repro.host.community.Community`,
    not by the host, so it survives the host's crash exactly like the flash
    chip survives the device's operating system.
    """

    def __init__(self) -> None:
        self._journal: list[bytes] = []
        self._snapshot: bytes | None = None
        self.appends = 0
        self.snapshots_written = 0

    def append(self, payload: bytes) -> None:
        self._journal.append(bytes(payload))
        self.appends += 1

    def payloads(self) -> list[bytes]:
        return list(self._journal)

    @property
    def journal_length(self) -> int:
        return len(self._journal)

    def write_snapshot(self, blob: bytes) -> None:
        self._snapshot = bytes(blob)
        self._journal.clear()
        self.snapshots_written += 1

    def load_snapshot(self) -> bytes | None:
        return self._snapshot

    def __repr__(self) -> str:
        return (
            f"InMemoryJournal(records={len(self._journal)}, "
            f"snapshot={self._snapshot is not None})"
        )


SQLITE_SCHEMA_VERSION = 2
"""Current on-disk schema of :class:`SQLiteJournal` databases.

Version history:

* **v1** — ``journal(seq, payload)``, ``snapshot(id, blob)``, ``meta``.
* **v2** — adds a ``crc`` column (crc32 of the payload/blob) to both
  tables, a row-level corruption fence: replay stops at the first record
  whose checksum disagrees, and a corrupt snapshot is treated as absent.
"""


def _migrate_sqlite_v1_to_v2(conn: sqlite3.Connection) -> None:
    """Add the crc columns and backfill them from the stored bytes."""

    conn.execute("ALTER TABLE journal ADD COLUMN crc INTEGER")
    rows = conn.execute("SELECT seq, payload FROM journal").fetchall()
    for seq, payload in rows:
        conn.execute(
            "UPDATE journal SET crc = ? WHERE seq = ?", (zlib.crc32(payload), seq)
        )
    conn.execute("ALTER TABLE snapshot ADD COLUMN crc INTEGER")
    snap = conn.execute("SELECT blob FROM snapshot WHERE id = 1").fetchone()
    if snap is not None:
        conn.execute(
            "UPDATE snapshot SET crc = ? WHERE id = 1", (zlib.crc32(snap[0]),)
        )


#: version n -> in-place migration to version n + 1, applied in sequence on
#: open.  Every released schema change must add exactly one entry here.
_SQLITE_MIGRATIONS: dict[int, Callable[[sqlite3.Connection], None]] = {
    1: _migrate_sqlite_v1_to_v2,
}


class SQLiteJournal(DurabilityBackend):
    """Journal + snapshot in one WAL-mode SQLite database file.

    Parameters
    ----------
    directory:
        Where the database lives (created if missing).
    name:
        Base name of the database file (``<name>.sqlite``); path
        separators are squashed so any host id is usable.

    Appends commit one journal row per record; ``write_snapshot`` replaces
    the snapshot row *and* deletes the journal rows in a single
    transaction, so compaction is atomic even against power loss
    (``synchronous=FULL`` fsyncs the WAL on every commit).  Opening a
    database written by an older release migrates its schema forward
    through :data:`_SQLITE_MIGRATIONS` before the first read.
    """

    def __init__(self, directory: str | Path, name: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        safe = name.replace(os.sep, "_").replace("/", "_")
        self.db_path = self.directory / f"{safe}.sqlite"
        # isolation_level=None: autocommit, with explicit BEGIN/COMMIT where
        # multi-statement atomicity matters (snapshot + truncate).
        self._conn = sqlite3.connect(str(self.db_path), isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        #: Forward migrations applied while opening this database.
        self.schema_migrations = 0
        self._ensure_schema()
        self.appends = 0
        self.snapshots_written = 0
        self._record_count: int | None = None

    # -- schema -----------------------------------------------------------
    def _ensure_schema(self) -> None:
        exists = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        if exists is not None:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            version = int(row[0]) if row is not None else 1
            if version > SQLITE_SCHEMA_VERSION:
                raise ValueError(
                    f"{self.db_path} has schema version {version}, newer than "
                    f"this release's {SQLITE_SCHEMA_VERSION}; refusing to "
                    "write records an older reader would misinterpret"
                )
            if version == SQLITE_SCHEMA_VERSION:
                # Current schema: opening stays read-only (no write
                # transaction, no WAL growth just for looking).
                return
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            if exists is None:
                self._conn.execute(
                    "CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL)"
                )
                self._conn.execute(
                    "CREATE TABLE journal ("
                    "seq INTEGER PRIMARY KEY AUTOINCREMENT, "
                    "payload BLOB NOT NULL, crc INTEGER NOT NULL)"
                )
                self._conn.execute(
                    "CREATE TABLE snapshot ("
                    "id INTEGER PRIMARY KEY CHECK (id = 1), "
                    "blob BLOB NOT NULL, crc INTEGER NOT NULL)"
                )
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (SQLITE_SCHEMA_VERSION,),
                )
            else:
                while version < SQLITE_SCHEMA_VERSION:
                    _SQLITE_MIGRATIONS[version](self._conn)
                    version += 1
                    self.schema_migrations += 1
                self._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (SQLITE_SCHEMA_VERSION,),
                )
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    @property
    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row[0])

    # -- journal ----------------------------------------------------------
    def append(self, payload: bytes) -> None:
        payload = bytes(payload)
        if self._record_count is None:
            self._record_count = len(self.payloads())
        self._conn.execute(
            "INSERT INTO journal (payload, crc) VALUES (?, ?)",
            (payload, zlib.crc32(payload)),
        )
        self._record_count += 1
        self.appends += 1

    def payloads(self) -> list[bytes]:
        rows = self._conn.execute(
            "SELECT payload, crc FROM journal ORDER BY seq"
        ).fetchall()
        result: list[bytes] = []
        for payload, crc in rows:
            payload = bytes(payload)
            if crc is None or zlib.crc32(payload) != crc:
                break  # corrupt row: everything after it is untrustworthy
            result.append(payload)
        return result

    @property
    def journal_length(self) -> int:
        if self._record_count is None:
            self._record_count = len(self.payloads())
        return self._record_count

    # -- snapshot ---------------------------------------------------------
    def write_snapshot(self, blob: bytes) -> None:
        blob = bytes(blob)
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute("DELETE FROM snapshot")
            self._conn.execute(
                "INSERT INTO snapshot (id, blob, crc) VALUES (1, ?, ?)",
                (blob, zlib.crc32(blob)),
            )
            self._conn.execute("DELETE FROM journal")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")
        self._record_count = 0
        self.snapshots_written += 1

    def load_snapshot(self) -> bytes | None:
        row = self._conn.execute(
            "SELECT blob, crc FROM snapshot WHERE id = 1"
        ).fetchone()
        if row is None:
            return None
        blob, crc = bytes(row[0]), row[1]
        if crc is None or zlib.crc32(blob) != crc:
            return None  # corrupt snapshot: treat as absent
        return blob

    def close(self) -> None:
        self._conn.close()
        super().close()

    def __repr__(self) -> str:
        return f"SQLiteJournal({str(self.db_path)!r})"


BackendFactory = Callable[[str], DurabilityBackend]


def _remove_temporary(directory: str, connection: sqlite3.Connection) -> None:
    """Remove a backend's own temporary directory, closing its database first."""

    connection.close()
    shutil.rmtree(directory, ignore_errors=True)


def make_backend(
    spec: "str | bool | BackendFactory | None",
    host_id: str,
    directory: str | Path | None = None,
) -> DurabilityBackend | None:
    """Resolve a ``durability=`` flag value into a backend (or ``None``).

    ``None``/``False`` — durability off.  ``True`` or ``"memory"`` — an
    :class:`InMemoryJournal` (simulated flash).  ``"sqlite"`` — a
    :class:`SQLiteJournal` database under ``directory``.  A callable is
    treated as a factory ``host_id -> backend`` for custom backends.

    Without a ``directory``, ``"sqlite"`` makes a temporary one that the
    backend removes when it is closed or freed; a directory the caller
    passes in is never removed.
    """

    if spec is None or spec is False:
        return None
    if callable(spec):
        return spec(host_id)
    if spec is True or spec == "memory":
        return InMemoryJournal()
    if spec == "sqlite":
        if directory is not None:
            return SQLiteJournal(directory, host_id)
        directory = tempfile.mkdtemp(prefix="repro-durability-")
        backend = SQLiteJournal(directory, host_id)
        backend._temporary = weakref.finalize(
            backend, _remove_temporary, directory, backend._conn
        )
        return backend
    raise ValueError(
        f"unknown durability spec {spec!r}: expected None, 'memory', "
        "'sqlite', or a factory callable"
    )
