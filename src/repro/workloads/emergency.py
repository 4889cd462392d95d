"""The construction-site emergency scenario from the paper's introduction.

"Consider a construction worker discovering a mercury spill.  While there is
a prescribed response, it is his supervisor who has the needed expertise and
training.  She initiates the response, but access to the spill is made
difficult by a support structure whose dismantling requires special
intervention which only the chief engineer can manage.  The result is a
series of frantic phone calls and the dispatching of various workers and
equipment" — i.e. exactly the reactive, opportunistic, composite workflow the
open workflow paradigm automates.

This module encodes that story as a knowledge base spread across the site
personnel: the worker who can report and cordon off the spill, the
supervisor who knows the prescribed response, the chief engineer who can
authorise and direct dismantling the support structure, the safety officer
with the hazmat know-how, and the equipment operator who can move the
containment gear.  It is used by the ``emergency_response`` example and the
context-sensitivity integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..core.fragments import WorkflowFragment
from ..core.specification import Specification
from ..core.tasks import Task
from ..execution.services import ServiceDescription

if TYPE_CHECKING:
    from ..host.config import HostConfig

# -- labels -----------------------------------------------------------------------
SPILL_DISCOVERED = "mercury spill discovered"
SPILL_REPORTED = "spill reported"
AREA_CORDONED = "area cordoned off"
RESPONSE_PLAN_READY = "response plan ready"
DISMANTLING_AUTHORISED = "dismantling authorised"
STRUCTURE_DISMANTLED = "support structure dismantled"
ACCESS_CLEARED = "access to spill cleared"
CONTAINMENT_KIT_ON_SITE = "containment kit on site"
SPILL_CONTAINED = "spill contained"
SITE_DECONTAMINATED = "site decontaminated"
ALL_CLEAR = "all clear declared"

# -- tasks ------------------------------------------------------------------------
REPORT_SPILL = Task(
    "report spill",
    inputs=[SPILL_DISCOVERED],
    outputs=[SPILL_REPORTED],
    duration=120,
    location="sector-7",
)
CORDON_AREA = Task(
    "cordon off area",
    inputs=[SPILL_REPORTED],
    outputs=[AREA_CORDONED],
    duration=600,
    location="sector-7",
)
PREPARE_RESPONSE_PLAN = Task(
    "prepare response plan",
    inputs=[SPILL_REPORTED],
    outputs=[RESPONSE_PLAN_READY],
    duration=900,
    location="site-office",
)
AUTHORISE_DISMANTLING = Task(
    "authorise dismantling",
    inputs=[RESPONSE_PLAN_READY],
    outputs=[DISMANTLING_AUTHORISED],
    duration=300,
    location="site-office",
)
DISMANTLE_STRUCTURE = Task(
    "dismantle support structure",
    inputs=[DISMANTLING_AUTHORISED, AREA_CORDONED],
    outputs=[STRUCTURE_DISMANTLED],
    duration=3600,
    location="sector-7",
)
CLEAR_ACCESS = Task(
    "clear access to spill",
    inputs=[STRUCTURE_DISMANTLED],
    outputs=[ACCESS_CLEARED],
    duration=900,
    location="sector-7",
)
DELIVER_CONTAINMENT_KIT = Task(
    "deliver containment kit",
    inputs=[RESPONSE_PLAN_READY],
    outputs=[CONTAINMENT_KIT_ON_SITE],
    duration=1200,
    location="sector-7",
)
CONTAIN_SPILL = Task(
    "contain spill",
    inputs=[ACCESS_CLEARED, CONTAINMENT_KIT_ON_SITE],
    outputs=[SPILL_CONTAINED],
    duration=1800,
    location="sector-7",
)
DECONTAMINATE_SITE = Task(
    "decontaminate site",
    inputs=[SPILL_CONTAINED],
    outputs=[SITE_DECONTAMINATED],
    duration=5400,
    location="sector-7",
)
DECLARE_ALL_CLEAR = Task(
    "declare all clear",
    inputs=[SITE_DECONTAMINATED],
    outputs=[ALL_CLEAR],
    duration=300,
    location="site-office",
)


@dataclass(frozen=True)
class SiteRole:
    """Know-how and capabilities of one member of the construction site staff."""

    name: str
    fragments: tuple[WorkflowFragment, ...]
    services: tuple[ServiceDescription, ...]
    description: str = field(default="", compare=False)


def _fragment(name: str, *tasks: Task) -> WorkflowFragment:
    return WorkflowFragment(tasks, fragment_id=f"emergency/{name}")


def _services(*tasks: Task) -> tuple[ServiceDescription, ...]:
    return tuple(
        ServiceDescription(task.service_type or task.name, duration=task.duration)
        for task in tasks
    )


WORKER = SiteRole(
    name="worker",
    description="Discovered the spill; can report it and help cordon the area.",
    fragments=(_fragment("report", REPORT_SPILL), _fragment("cordon", CORDON_AREA)),
    services=_services(REPORT_SPILL, CORDON_AREA),
)

SUPERVISOR = SiteRole(
    name="supervisor",
    description="Has the prescribed response training.",
    fragments=(
        _fragment("plan", PREPARE_RESPONSE_PLAN),
        _fragment("containment", CONTAIN_SPILL, DECONTAMINATE_SITE, DECLARE_ALL_CLEAR),
    ),
    services=_services(PREPARE_RESPONSE_PLAN, DECLARE_ALL_CLEAR),
)

CHIEF_ENGINEER = SiteRole(
    name="chief-engineer",
    description="Only person able to authorise and direct dismantling the structure.",
    fragments=(
        _fragment("authorise", AUTHORISE_DISMANTLING),
        _fragment("dismantle", DISMANTLE_STRUCTURE, CLEAR_ACCESS),
    ),
    services=_services(AUTHORISE_DISMANTLING, DISMANTLE_STRUCTURE),
)

SAFETY_OFFICER = SiteRole(
    name="safety-officer",
    description="Hazmat-trained; performs the actual containment and decontamination.",
    fragments=(_fragment("hazmat", CONTAIN_SPILL, DECONTAMINATE_SITE),),
    services=_services(CONTAIN_SPILL, DECONTAMINATE_SITE, CLEAR_ACCESS),
)

EQUIPMENT_OPERATOR = SiteRole(
    name="equipment-operator",
    description="Moves heavy gear around the site.",
    fragments=(_fragment("logistics", DELIVER_CONTAINMENT_KIT),),
    services=_services(DELIVER_CONTAINMENT_KIT, CORDON_AREA),
)

ALL_ROLES = (WORKER, SUPERVISOR, CHIEF_ENGINEER, SAFETY_OFFICER, EQUIPMENT_OPERATOR)


def all_fragments() -> list[WorkflowFragment]:
    return [fragment for role in ALL_ROLES for fragment in role.fragments]


def spill_response_specification() -> Specification:
    """The supervisor's goal: from a discovered spill to the all-clear."""

    return Specification(
        triggers=[SPILL_DISCOVERED],
        goals=[ALL_CLEAR],
        name="mercury-spill-response",
    )


def containment_only_specification() -> Specification:
    """A smaller goal used when only containment (not full clean-up) is needed."""

    return Specification(
        triggers=[SPILL_DISCOVERED],
        goals=[SPILL_CONTAINED],
        name="mercury-spill-containment",
    )


def build_site_community(
    roles: tuple[SiteRole, ...] = ALL_ROLES,
    config: HostConfig | None = None,
    **options: object,
):
    """Stand up the construction-site community with one host per role.

    Every host runs ``config`` (by default a capability-aware
    :class:`~repro.host.config.HostConfig`), with ``options`` overriding
    its fields.
    """

    from ..host.community import Community
    from ..host.config import HostConfig
    from ..mobility.geometry import Point
    from ..mobility.locations import Location
    from ..mobility.locations import TravelModel

    config = replace(config or HostConfig(capability_aware=True), **options)
    community = Community(travel_model=TravelModel(speed=1.4))
    community.locations.add(Location("sector-7", Point(0.0, 0.0)))
    community.locations.add(Location("site-office", Point(250.0, 100.0)))
    community.locations.add(Location("equipment-yard", Point(120.0, 300.0)))
    positions = {
        "worker": Point(5.0, 5.0),
        "supervisor": Point(240.0, 95.0),
        "chief-engineer": Point(230.0, 110.0),
        "safety-officer": Point(100.0, 50.0),
        "equipment-operator": Point(120.0, 290.0),
    }
    for role in roles:
        community.add_host(
            role.name,
            fragments=role.fragments,
            services=role.services,
            mobility=positions.get(role.name, Point(0.0, 0.0)),
            config=config,
        )
    return community
