"""The Open Workflow Management System facade.

:class:`OpenWorkflowSystem` is the top-level entry point a downstream user
interacts with.  It corresponds to the deployed application of the paper's
Section 4.1: install the middleware on every device (``add_device`` /
``from_xml``), add know-how in the form of workflow fragments and service
descriptions, and from then on any participant can create a problem
specification and have the system automatically construct, allocate, and
execute an appropriate workflow.

The facade wraps a :class:`~repro.host.community.Community` and adds the
configuration-file deployment path plus blocking ``solve`` helpers that run
the discrete event simulation until the requested phase is reached and
return a compact report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

from ..core.fragments import WorkflowFragment
from ..core.specification import Specification
from ..core.workflow import Workflow
from ..execution.services import ServiceDescription
from ..host.community import Community
from ..host.config import HostConfig
from ..host.host import Host
from ..host.workspace import Workspace, WorkflowPhase
from ..mobility.geometry import Point
from ..net.transport import CommunicationsLayer
from ..scheduling.preferences import ParticipantPreferences
from ..sim.events import EventScheduler
from .config import CommunityConfig, DeviceConfig, load_community_config, parse_community_xml


@dataclass
class SolveReport:
    """Compact description of one solved (or failed) problem."""

    workflow_id: str
    phase: str
    workflow: Workflow | None
    allocation: Mapping[str, str] = field(default_factory=dict)
    completed_tasks: frozenset[str] = frozenset()
    allocation_seconds: float | None = None
    completion_seconds: float | None = None
    failure_reason: str = ""

    @property
    def succeeded(self) -> bool:
        return self.phase in (
            WorkflowPhase.EXECUTING.value,
            WorkflowPhase.COMPLETED.value,
        )

    def task_assignments(self) -> list[tuple[str, str]]:
        """(task, host) pairs sorted by task name."""

        return sorted(self.allocation.items())


class OpenWorkflowSystem:
    """Deploy hosts, submit problems, and run them to completion.

    Parameters
    ----------
    network_factory:
        Builds the community's communications layer (defaults to the
        zero-latency simulated network).
    config:
        The middleware options installed on every deployed device (see
        :class:`~repro.host.config.HostConfig`); ``options`` overrides
        individual fields of it.  Devices are capability-aware unless
        told otherwise: initiators learn the community's capabilities
        before construction.
    """

    def __init__(
        self,
        network_factory: Callable[[EventScheduler], CommunicationsLayer] | None = None,
        config: HostConfig = HostConfig(capability_aware=True),
        **options: object,
    ) -> None:
        self.community = Community(network_factory=network_factory)
        self.config = replace(config, **options)

    # -- deployment ------------------------------------------------------------
    def add_device(
        self,
        device_id: str,
        fragments: Iterable[WorkflowFragment] = (),
        services: Iterable[ServiceDescription] = (),
        position: Point | None = None,
        preferences: ParticipantPreferences | None = None,
        **options: object,
    ) -> Host:
        """Install the middleware on a new device and join it to the community.

        The device runs the system's :attr:`config`, with ``options``
        overriding individual fields of it.
        """

        return self.community.add_host(
            device_id,
            fragments=fragments,
            services=services,
            mobility=position,
            preferences=preferences or ParticipantPreferences(),
            config=self.config,
            **options,
        )

    def deploy_device_config(self, config: DeviceConfig) -> Host:
        """Deploy a single parsed device configuration."""

        return self.add_device(
            config.device_id,
            fragments=config.fragments,
            services=config.services,
            position=config.position,
            preferences=config.preferences,
        )

    def deploy_community_config(self, config: CommunityConfig) -> list[Host]:
        """Deploy every location and device of a parsed community configuration."""

        for location in config.locations:
            self.community.locations.add(location)
        return [self.deploy_device_config(device) for device in config.devices]

    @classmethod
    def from_xml(cls, xml_text: str, **kwargs: object) -> "OpenWorkflowSystem":
        """Build a system from an XML community configuration string."""

        system = cls(**kwargs)  # type: ignore[arg-type]
        system.deploy_community_config(parse_community_xml(xml_text))
        return system

    @classmethod
    def from_config_file(cls, path: str | Path, **kwargs: object) -> "OpenWorkflowSystem":
        """Build a system from an XML community configuration file."""

        system = cls(**kwargs)  # type: ignore[arg-type]
        system.deploy_community_config(load_community_config(path))
        return system

    # -- problem solving ----------------------------------------------------------
    def submit_problem(
        self,
        initiator: str,
        triggers: Iterable[str],
        goals: Iterable[str],
        name: str | None = None,
    ) -> Workspace:
        """Submit a problem at ``initiator`` without waiting for the result."""

        return self.community.submit_problem(initiator, triggers, goals, name=name)

    def solve(
        self,
        initiator: str,
        triggers: Iterable[str],
        goals: Iterable[str],
        name: str | None = None,
        wait_for_execution: bool = True,
        max_sim_seconds: float = 7 * 24 * 3600.0,
    ) -> SolveReport:
        """Submit a problem and run the community until it is done.

        When ``wait_for_execution`` is false the call returns as soon as
        every task has been allocated (the quantity the paper's evaluation
        measures); otherwise it waits until every task has actually been
        executed by its committed participant.
        """

        workspace = self.submit_problem(initiator, triggers, goals, name=name)
        self.community.run_until_allocated(workspace, max_sim_seconds=max_sim_seconds)
        if wait_for_execution and workspace.phase is WorkflowPhase.EXECUTING:
            self.community.run_until_completed(
                workspace, max_sim_seconds=max_sim_seconds
            )
        return self.report(workspace)

    def solve_many(
        self,
        initiator: str,
        problems: Iterable[Specification | tuple[Iterable[str], Iterable[str]]],
        wait_for_execution: bool = True,
        max_sim_seconds: float = 7 * 24 * 3600.0,
    ) -> list[SolveReport]:
        """Submit a batch of problems at ``initiator`` and run them all.

        ``problems`` is an iterable of :class:`Specification` objects or
        ``(triggers, goals)`` pairs.  Every problem is submitted before any
        is pumped to completion, so discovery and auction traffic for the
        whole batch interleaves in a single event-scheduler run instead of
        one run per problem.  Reports come back in submission order.
        """

        workspaces: list[Workspace] = []
        for problem in problems:
            if isinstance(problem, Specification):
                workspaces.append(
                    self.community.submit_specification(initiator, problem)
                )
            else:
                triggers, goals = problem
                workspaces.append(self.submit_problem(initiator, triggers, goals))
        for workspace in workspaces:
            self.community.run_until_allocated(
                workspace, max_sim_seconds=max_sim_seconds
            )
        if wait_for_execution:
            for workspace in workspaces:
                if workspace.phase is WorkflowPhase.EXECUTING:
                    self.community.run_until_completed(
                        workspace, max_sim_seconds=max_sim_seconds
                    )
        return [self.report(workspace) for workspace in workspaces]

    def solve_specification(
        self,
        initiator: str,
        specification: Specification,
        wait_for_execution: bool = True,
        max_sim_seconds: float = 7 * 24 * 3600.0,
    ) -> SolveReport:
        """Like :meth:`solve`, for an already constructed specification."""

        workspace = self.community.submit_specification(initiator, specification)
        self.community.run_until_allocated(workspace, max_sim_seconds=max_sim_seconds)
        if wait_for_execution and workspace.phase is WorkflowPhase.EXECUTING:
            self.community.run_until_completed(
                workspace, max_sim_seconds=max_sim_seconds
            )
        return self.report(workspace)

    # -- reporting ------------------------------------------------------------------
    @staticmethod
    def report(workspace: Workspace) -> SolveReport:
        """Summarise a workspace into a :class:`SolveReport`."""

        allocation = (
            dict(workspace.allocation_outcome.allocation)
            if workspace.allocation_outcome is not None
            else {}
        )
        alloc_timing = workspace.time_to_allocation()
        completion_timing = workspace.time_to_completion()
        return SolveReport(
            workflow_id=workspace.workflow_id,
            phase=workspace.phase.value,
            workflow=workspace.workflow,
            allocation=allocation,
            completed_tasks=frozenset(workspace.completed_tasks),
            allocation_seconds=(
                alloc_timing[0] + alloc_timing[1] if alloc_timing else None
            ),
            completion_seconds=(
                completion_timing[0] + completion_timing[1] if completion_timing else None
            ),
            failure_reason=workspace.failure_reason,
        )

    # -- introspection ------------------------------------------------------------------
    @property
    def hosts(self) -> list[str]:
        return self.community.host_ids

    def host(self, host_id: str) -> Host:
        return self.community.host(host_id)

    def community_knowledge_size(self) -> int:
        return self.community.total_fragments()

    def __repr__(self) -> str:
        return f"OpenWorkflowSystem(hosts={self.hosts})"
