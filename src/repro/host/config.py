"""One record of every option a host's middleware is configured with.

The paper installs the same middleware on every device and configures it
once per deployment (Section 4.1's XML files; Figure 3's per-host
components).  :class:`HostConfig` is that configuration: every layer that
builds hosts — :meth:`~repro.host.community.Community.add_host`,
:class:`~repro.owms.system.OpenWorkflowSystem`, the trial builders in
:mod:`repro.experiments.trials` and the scenario builders in
:mod:`repro.workloads` — takes one ``config`` plus keyword overrides of its
fields, applied once with :func:`dataclasses.replace`, and
:class:`~repro.host.host.Host` builds its managers from the result.  A new
option is one field here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..core.solver import Solver
    from ..durability.backend import DurabilityBackend


@dataclass(frozen=True)
class HostConfig:
    """How one host's middleware behaves; the defaults are the fast paths.

    Construction (the host as initiator) follows Section 3.1's batch
    algorithm: gather the community's know-how, then colour.  Each remote
    is asked once, for every fragment the host's knowledge plane does not
    hold; a remote that answered is trusted for the community's lifetime,
    so a departed host id reused by a new device is not asked again.

    capability_aware:
        Learn which services the community offers before construction,
        so tasks nobody can perform are filtered out of the supergraph.
    solver:
        Construction strategy of the workflow manager: a
        :class:`~repro.core.solver.Solver` (one instance may be shared by
        many hosts; cache keys include the graph's identity), a registry
        name such as ``"coloring"`` or ``"memoized"``, or ``None`` for the
        default memoized solver.

    Robustness:

    fault_injection:
        Speak the fault-hardened protocols: awards are acknowledged,
        unanswered solicitations and awards are retried with backoff,
        silent discovery remotes are written off, an invocation whose
        inputs are late pulls them from their producers and is abandoned
        if they still do not come, and an executing workflow that stalls
        asks its outstanding tasks' executors for lost completions and is
        failed, so repair re-auctions it, only when they do not answer.
        Off, a fault-free run is byte-identical to one without the
        feature.
    enable_recovery:
        Repair a failed revision by constructing and auctioning a new
        one: a task failed during execution, an auction left a task
        unallocated, or construction failed while some remote's know-how
        was missing from the plane (discovery wrote the remote off as
        silent, or this host restarted since the remote answered).
    max_repair_attempts:
        Repair revisions tried before a workflow is declared failed.
    durability:
        The durable state plane: ``None`` (off), ``"memory"`` or ``True``
        (simulated flash), ``"sqlite"`` (a WAL-mode database) or a
        ``host_id -> backend`` factory.  The
        community owns the backend, so it survives a crash and a
        restarted host replays it and resumes mid-workflow instead of
        forcing repair.
    durable_outputs:
        With durability on, also journal every published label value, so
        a restarted producer can answer replay requests; ``False`` keeps
        only the lifecycle journal.
    """

    capability_aware: bool = False
    solver: Solver | str | None = None
    fault_injection: bool = False
    enable_recovery: bool = False
    max_repair_attempts: int = 3
    durability: str | bool | Callable[[str], DurabilityBackend] | None = None
    durable_outputs: bool = True
