"""The corporate catering scenario of the paper's Figure 1 and Section 2.1.

The knowledge available in the catering office is spread across the staff's
devices:

* the **manager** knows how to order and set out doughnuts and box lunches;
* the **master chef** knows how to cook omelets and how lunch can be served
  either at the tables or as a buffet;
* the **kitchen staff** know how to set out ingredients, make pancakes,
  serve a breakfast buffet, and prepare soup and salad;
* the **wait staff** know how to serve tables and buffets.

The module exposes the individual fragments, ready-made role bundles, the
services each role can perform, and a helper that assembles a
:class:`~repro.host.community.Community` for the scenario.  The
context-sensitivity cases discussed in the paper (lunch not requested, the
master chef out of the office, the wait staff absent) are exercised in the
examples and integration tests built on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..core.fragments import WorkflowFragment
from ..core.specification import Specification
from ..core.tasks import Task, TaskMode
from ..execution.services import ServiceDescription

if TYPE_CHECKING:
    from ..host.config import HostConfig

# -- labels (the ovals of Figure 1) -----------------------------------------------
BREAKFAST_INGREDIENTS = "breakfast ingredients"
BUFFET_ITEMS_PREPARED = "buffet items prepared"
BREAKFAST_SERVED = "breakfast served"
DOUGHNUTS_ORDERED = "doughnuts ordered"
DOUGHNUTS_AVAILABLE = "doughnuts available"
OMELET_BAR_SETUP = "omelet bar setup"
LUNCH_INGREDIENTS = "lunch ingredients"
LUNCH_PREPARED = "lunch prepared"
LUNCH_SERVED = "lunch served"
BOX_LUNCHES_ORDERED = "box lunches ordered"
BOX_LUNCHES_AVAILABLE = "box lunches available"

ALL_LABELS = frozenset(
    {
        BREAKFAST_INGREDIENTS,
        BUFFET_ITEMS_PREPARED,
        BREAKFAST_SERVED,
        DOUGHNUTS_ORDERED,
        DOUGHNUTS_AVAILABLE,
        OMELET_BAR_SETUP,
        LUNCH_INGREDIENTS,
        LUNCH_PREPARED,
        LUNCH_SERVED,
        BOX_LUNCHES_ORDERED,
        BOX_LUNCHES_AVAILABLE,
    }
)

# -- tasks (the boxes of Figure 1) ----------------------------------------------------
MAKE_PANCAKES = Task(
    "make pancakes",
    inputs=[BREAKFAST_INGREDIENTS],
    outputs=[BUFFET_ITEMS_PREPARED],
    duration=30 * 60,
    location="kitchen",
)
SET_OUT_INGREDIENTS = Task(
    "set out ingredients",
    inputs=[BREAKFAST_INGREDIENTS],
    outputs=[OMELET_BAR_SETUP],
    duration=15 * 60,
    location="dining room",
)
SERVE_BREAKFAST_BUFFET = Task(
    "serve breakfast buffet",
    inputs=[BUFFET_ITEMS_PREPARED],
    outputs=[BREAKFAST_SERVED],
    duration=20 * 60,
    location="dining room",
)
PICK_UP_DOUGHNUTS = Task(
    "pick up doughnuts",
    inputs=[DOUGHNUTS_ORDERED],
    outputs=[DOUGHNUTS_AVAILABLE],
    duration=30 * 60,
    location="bakery",
)
SET_OUT_DOUGHNUTS = Task(
    "set out doughnuts",
    inputs=[DOUGHNUTS_AVAILABLE],
    outputs=[BREAKFAST_SERVED],
    duration=10 * 60,
    location="dining room",
)
COOK_OMELETS = Task(
    "cook omelets",
    inputs=[OMELET_BAR_SETUP],
    outputs=[BREAKFAST_SERVED],
    duration=45 * 60,
    location="dining room",
)
PREPARE_SOUP_AND_SALAD = Task(
    "prepare soup and salad",
    inputs=[LUNCH_INGREDIENTS],
    outputs=[LUNCH_PREPARED],
    duration=60 * 60,
    location="kitchen",
)
SERVE_TABLES = Task(
    "serve tables",
    inputs=[LUNCH_PREPARED],
    outputs=[LUNCH_SERVED],
    duration=45 * 60,
    location="dining room",
)
SERVE_BUFFET = Task(
    "serve buffet",
    inputs=[LUNCH_PREPARED],
    outputs=[LUNCH_SERVED],
    duration=30 * 60,
    location="dining room",
)
PICK_UP_BOX_LUNCHES = Task(
    "pick up box lunches",
    inputs=[BOX_LUNCHES_ORDERED],
    outputs=[BOX_LUNCHES_AVAILABLE],
    duration=40 * 60,
    location="deli",
)
SET_OUT_BOX_LUNCHES = Task(
    "set out box lunches",
    inputs=[BOX_LUNCHES_AVAILABLE],
    outputs=[LUNCH_SERVED],
    duration=10 * 60,
    location="dining room",
)

ALL_TASKS = (
    MAKE_PANCAKES,
    SET_OUT_INGREDIENTS,
    SERVE_BREAKFAST_BUFFET,
    PICK_UP_DOUGHNUTS,
    SET_OUT_DOUGHNUTS,
    COOK_OMELETS,
    PREPARE_SOUP_AND_SALAD,
    SERVE_TABLES,
    SERVE_BUFFET,
    PICK_UP_BOX_LUNCHES,
    SET_OUT_BOX_LUNCHES,
)


@dataclass(frozen=True)
class CateringRole:
    """Know-how and capabilities carried by one member of the catering staff."""

    name: str
    fragments: tuple[WorkflowFragment, ...]
    services: tuple[ServiceDescription, ...]
    description: str = field(default="", compare=False)

    @property
    def service_types(self) -> frozenset[str]:
        return frozenset(s.service_type for s in self.services)


def _fragment(name: str, *tasks: Task) -> WorkflowFragment:
    return WorkflowFragment(tasks, fragment_id=f"catering/{name}")


def _services(*tasks: Task) -> tuple[ServiceDescription, ...]:
    return tuple(
        ServiceDescription(task.service_type or task.name, duration=task.duration)
        for task in tasks
    )


MANAGER = CateringRole(
    name="manager",
    description="Catering office manager: orders food from outside vendors.",
    fragments=(
        _fragment("doughnuts", PICK_UP_DOUGHNUTS, SET_OUT_DOUGHNUTS),
        _fragment("box-lunches", PICK_UP_BOX_LUNCHES, SET_OUT_BOX_LUNCHES),
    ),
    services=_services(PICK_UP_DOUGHNUTS, PICK_UP_BOX_LUNCHES),
)

MASTER_CHEF = CateringRole(
    name="master-chef",
    description="Knows how to serve omelets for breakfast and how to serve lunch.",
    fragments=(
        _fragment("omelets", SET_OUT_INGREDIENTS, COOK_OMELETS),
        # Lunch can be served either at the tables or as a buffet; the two
        # alternatives are separate fragments because a single valid workflow
        # cannot contain two producers of "lunch served".
        _fragment("lunch-table-service", SERVE_TABLES),
        _fragment("lunch-buffet-service", SERVE_BUFFET),
    ),
    services=_services(COOK_OMELETS),
)

KITCHEN_STAFF = CateringRole(
    name="kitchen-staff",
    description="Prepares food and sets up buffets.",
    fragments=(
        _fragment("pancake-buffet", MAKE_PANCAKES, SERVE_BREAKFAST_BUFFET),
        _fragment("soup-and-salad", PREPARE_SOUP_AND_SALAD),
        _fragment("lunch-buffet", SERVE_BUFFET),
    ),
    services=_services(
        MAKE_PANCAKES,
        SET_OUT_INGREDIENTS,
        SERVE_BREAKFAST_BUFFET,
        PREPARE_SOUP_AND_SALAD,
        SERVE_BUFFET,
        SET_OUT_DOUGHNUTS,
        SET_OUT_BOX_LUNCHES,
    ),
)

WAIT_STAFF = CateringRole(
    name="wait-staff",
    description="Serves meals at the tables or from the buffet.",
    fragments=(_fragment("table-service", SERVE_TABLES),),
    services=_services(SERVE_TABLES, SERVE_BUFFET, SERVE_BREAKFAST_BUFFET),
)

ALL_ROLES = (MANAGER, MASTER_CHEF, KITCHEN_STAFF, WAIT_STAFF)


def all_fragments() -> list[WorkflowFragment]:
    """Every fragment of Figure 1 (the community's combined knowledge)."""

    return [fragment for role in ALL_ROLES for fragment in role.fragments]


def breakfast_and_lunch_specification() -> Specification:
    """The executive assistant's request: breakfast and lunch for the meeting."""

    return Specification(
        triggers=[BREAKFAST_INGREDIENTS, LUNCH_INGREDIENTS],
        goals=[BREAKFAST_SERVED, LUNCH_SERVED],
        name="executive-meeting-meals",
    )


def breakfast_only_specification() -> Specification:
    """The same request without lunch (the paper's first what-if)."""

    return Specification(
        triggers=[BREAKFAST_INGREDIENTS],
        goals=[BREAKFAST_SERVED],
        name="executive-meeting-breakfast-only",
    )


def doughnut_breakfast_specification() -> Specification:
    """A breakfast request when only ordered doughnuts are on hand."""

    return Specification(
        triggers=[DOUGHNUTS_ORDERED],
        goals=[BREAKFAST_SERVED],
        name="doughnut-breakfast",
    )


def build_catering_community(
    roles: tuple[CateringRole, ...] = ALL_ROLES,
    config: HostConfig | None = None,
    **options: object,
):
    """Stand up a simulated community with one host per catering role.

    Every host runs ``config`` (by default a capability-aware
    :class:`~repro.host.config.HostConfig`), with ``options`` overriding
    its fields.  Returns the :class:`~repro.host.community.Community`;
    hosts are named after their roles.  Import is done lazily so that the
    pure-core parts of this module stay usable without the middleware
    stack.
    """

    from ..host.community import Community
    from ..host.config import HostConfig
    from ..mobility.geometry import Point
    from ..mobility.locations import Location

    config = replace(config or HostConfig(capability_aware=True), **options)
    community = Community()
    community.locations.add(Location("kitchen", Point(0.0, 0.0)))
    community.locations.add(Location("dining room", Point(30.0, 0.0)))
    community.locations.add(Location("office", Point(60.0, 10.0)))
    community.locations.add(Location("bakery", Point(400.0, 300.0)))
    community.locations.add(Location("deli", Point(500.0, 100.0)))
    for index, role in enumerate(roles):
        community.add_host(
            role.name,
            fragments=role.fragments,
            services=role.services,
            mobility=Point(10.0 * index, 5.0),
            config=config,
        )
    return community
