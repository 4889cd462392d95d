"""Helpers for checking that a dropped community is freed by reference counting."""

from __future__ import annotations

import contextlib
import weakref
from typing import Iterator

from repro.host.community import Community


@contextlib.contextmanager
def recording_incarnations() -> Iterator[list[weakref.ref]]:
    """Weak references to every host any community builds inside the block.

    Every host, a restarted incarnation included, is built by
    :meth:`Community.add_host`; the method is wrapped for the duration of
    the block.
    """

    built: list[weakref.ref] = []
    add_host = Community.add_host

    def recording_add_host(self, *args, **kwargs):
        host = add_host(self, *args, **kwargs)
        built.append(weakref.ref(host))
        return host

    Community.add_host = recording_add_host
    try:
        yield built
    finally:
        Community.add_host = add_host
