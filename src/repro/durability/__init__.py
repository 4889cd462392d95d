"""The durable state plane: per-host journals and snapshots.

Everything a host owns — its fragment database, schedule commitments,
pending service invocations, and the initiator-side workflow workspaces —
lives in process memory and dies with the process.  This package gives a
host a *durable* shadow of that state: every state transition is appended
to a per-host journal through a pluggable persistence backend, the journal
is periodically folded into a snapshot (superseded records never reach the
durable tail — compaction in the spirit of NWR's omittable writes), and a
restarted host replays snapshot + journal tail to resume mid-workflow
instead of forcing the full repair ladder.

The backend split follows RAFDA's argument for separating application
logic from distribution/persistence *policy*: the managers call typed
write-ahead hooks on :class:`~repro.durability.plane.HostDurability` and
never know whether those records land in memory (simulated flash) or in a
SQLite database.
"""

from .backend import (
    SQLITE_SCHEMA_VERSION,
    DurabilityBackend,
    InMemoryJournal,
    SQLiteJournal,
    make_backend,
)
from .plane import (
    DurableHostState,
    HostDurability,
    InvocationState,
    WorkspaceState,
    rebuild_state,
)

__all__ = [
    "DurabilityBackend",
    "DurableHostState",
    "HostDurability",
    "InMemoryJournal",
    "InvocationState",
    "SQLITE_SCHEMA_VERSION",
    "SQLiteJournal",
    "WorkspaceState",
    "make_backend",
    "rebuild_state",
]
