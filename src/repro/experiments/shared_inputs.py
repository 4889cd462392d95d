"""Shared-memory publication of a sweep's read-mostly trial inputs.

A sweep's tasks are tiny declarative records, but the workload behind them
— the generated supergraph with its fragment partitioning inputs — is the
one genuinely *shared, read-mostly* input of every trial: deterministic in
``(workload_seed, num_tasks)`` and identical for every task that names the
same pair.  Without sharing, every worker process regenerates each
distinct workload from its seed on first use (see
:data:`repro.experiments.runner._WORKLOADS`): deterministic, but the
generation cost is paid once per worker per workload, and it grows with
the workload size.

This module frames the pickled workloads of a sweep into **one**
self-describing, zlib-compressed segment payload (:func:`encode_workloads`:
magic, version, explicit lengths, CRC) and publishes it into a
:mod:`multiprocessing.shared_memory` segment before a local fan-out.
Workers attach, deserialize straight out of the shared buffer into their
per-process cache, and detach — one generation in the parent instead of
one per worker.  Attachment is a pure cache warm-up: a worker that misses
the segment (or a run whose publishing failed) regenerates from seeds and
produces *the same workload objects*, so trial outcomes are byte-identical
either way under ``timing="sim"`` — the shared/sequential equivalence test
pins exactly that.

The explicit payload length in the frame matters for shared memory:
segments round up to a page, so the buffer carries trailing padding that a
bare ``zlib.decompress`` would trip over.  The CRC turns a torn or
clobbered segment into a clean regenerate-from-seeds fallback rather than
a corrupt workload.

Lifecycle: the parent unlinks the segment as soon as the fan-out
completes, so nothing outlives the run even on a crash-free path.  Pool
workers inherit the parent's resource tracker, so their read-only
attachments add no cleanup obligations of their own — the parent's unlink
retires the name exactly once.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from multiprocessing import shared_memory
from typing import Mapping

from ..workloads.supergraph_gen import GeneratedWorkload

WorkloadKey = tuple[int, int]  # (workload_seed, num_tasks)

SEGMENT_MAGIC = b"RWKS"
SEGMENT_VERSION = 2
# magic, version, compressed length, raw (pickled) length, payload crc32
_SEGMENT_HEADER = struct.Struct(">4sBIII")


def encode_workloads(workloads: Mapping[WorkloadKey, GeneratedWorkload]) -> bytes:
    """Frame the keyed workloads as one self-describing segment payload.

    The pickle runs through zlib level 1 — fast enough to be free next to
    workload generation, and ~4–5× smaller in shared memory.  Raises
    whatever pickling raises; callers fall back to per-worker regeneration.
    """

    raw = pickle.dumps(dict(workloads), protocol=pickle.HIGHEST_PROTOCOL)
    payload = zlib.compress(raw, level=1)
    header = _SEGMENT_HEADER.pack(
        SEGMENT_MAGIC, SEGMENT_VERSION, len(payload), len(raw), zlib.crc32(payload)
    )
    return header + payload


def decode_workloads(data: bytes | memoryview) -> dict[WorkloadKey, GeneratedWorkload]:
    """Decode a framed segment payload (trailing padding tolerated).

    Raises :class:`ValueError` on bad magic, an unknown segment version, a
    truncated payload, or a CRC mismatch — attach treats any of those as
    "no segment" and regenerates from seeds.
    """

    view = memoryview(data)
    if len(view) < _SEGMENT_HEADER.size:
        raise ValueError("workload segment shorter than its header")
    magic, version, wire_len, raw_len, crc = _SEGMENT_HEADER.unpack_from(view)
    if magic != SEGMENT_MAGIC:
        raise ValueError(f"bad workload segment magic {bytes(magic)!r}")
    if version != SEGMENT_VERSION:
        raise ValueError(f"unknown workload segment version {version}")
    end = _SEGMENT_HEADER.size + wire_len
    if len(view) < end:
        raise ValueError("truncated workload segment payload")
    payload = bytes(view[_SEGMENT_HEADER.size : end])
    if zlib.crc32(payload) != crc:
        raise ValueError("workload segment CRC mismatch")
    payload = zlib.decompress(payload)
    if len(payload) != raw_len:
        raise ValueError("workload segment raw length mismatch")
    workloads = pickle.loads(payload)
    if not isinstance(workloads, dict):
        raise ValueError("workload segment did not hold a workload mapping")
    return workloads


class SharedWorkloadSegment:
    """One published shared-memory segment holding a sweep's workloads.

    Create with :func:`publish_workloads`; pass :attr:`name` to the
    workers; call :meth:`unlink` (idempotent) once the fan-out is done.
    ``wire_bytes`` is the framed, compressed size occupying the segment.
    """

    def __init__(self, payload: bytes) -> None:
        self._segment = shared_memory.SharedMemory(
            create=True, size=max(len(payload), 1)
        )
        self._segment.buf[: len(payload)] = payload
        self.name = self._segment.name
        self.wire_bytes = len(payload)

    def unlink(self) -> None:
        """Release and destroy the segment (idempotent, best-effort)."""

        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone: nothing to free
            pass


def publish_workloads(
    workloads: Mapping[WorkloadKey, GeneratedWorkload],
) -> SharedWorkloadSegment:
    """Frame the keyed workloads into a fresh shared-memory segment.

    Raises whatever the platform raises when shared memory is unavailable
    (``OSError`` on a locked-down ``/dev/shm``); callers fall back to
    per-worker regeneration.
    """

    return SharedWorkloadSegment(encode_workloads(workloads))


def attach_workloads(
    name: str, cache: dict[WorkloadKey, GeneratedWorkload]
) -> bool:
    """Load a published segment into ``cache`` (worker side).

    Reads the framed mapping straight out of the shared buffer, fills
    only the cache keys not already present (an attached workload and a
    regenerated one are interchangeable — both are pure functions of the
    key), and detaches.  Returns ``True`` on success; any failure —
    including a corrupt or version-mismatched frame — leaves the cache
    untouched and the caller regenerating from seeds.
    """

    try:
        segment = shared_memory.SharedMemory(name=name)
    except (OSError, ValueError):
        return False
    try:
        # Note on cleanup: pool workers inherit the parent's resource
        # tracker, so this open re-registers a name the tracker already
        # holds (a set: no-op) and the parent's unlink retires it exactly
        # once.  No per-worker unregister dance is needed — or safe.
        try:
            workloads = decode_workloads(segment.buf)
        except (ValueError, zlib.error, pickle.UnpicklingError):
            return False
    finally:
        segment.close()
    for key, workload in workloads.items():
        cache.setdefault(key, workload)
    return True
