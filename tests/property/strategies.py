"""Hypothesis strategies shared by the property-based tests.

The strategies generate random fragment collections (knowledge sets) and
specifications over a bounded label vocabulary, covering conjunctive and
disjunctive tasks, multiple producers per label, and cycles across
fragments — exactly the messiness the supergraph and the construction
algorithm must cope with.
"""

from __future__ import annotations

import functools

from hypothesis import strategies as st

from repro.core.fragments import WorkflowFragment
from repro.core.specification import Specification
from repro.core.tasks import Task, TaskMode

LABELS = [f"L{i}" for i in range(12)]

# Strategies are built once, not per draw: building one costs more than
# drawing from it, and shrinking a failure draws tens of thousands of tasks.
_TASK_INPUTS = st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True)
_TASK_MODES = st.sampled_from([TaskMode.CONJUNCTIVE, TaskMode.DISJUNCTIVE])
_TASK_DURATIONS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_TRIGGERS = st.lists(st.sampled_from(LABELS), min_size=0, max_size=4, unique=True)
_GOALS = st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True)


@functools.lru_cache(maxsize=None)
def _task_outputs(inputs: frozenset[str]):
    """Output label lists disjoint from ``inputs``."""

    remaining = [label for label in LABELS if label not in inputs]
    return st.lists(st.sampled_from(remaining), min_size=1, max_size=3, unique=True)


@st.composite
def tasks(draw, name: str) -> Task:
    """A random task over the bounded label vocabulary."""

    inputs = draw(_TASK_INPUTS)
    outputs = draw(_task_outputs(frozenset(inputs)))
    mode = draw(_TASK_MODES)
    duration = draw(_TASK_DURATIONS)
    return Task(name, inputs, outputs, mode=mode, duration=duration)


@st.composite
def fragments(draw, index: int) -> WorkflowFragment:
    """A random single-task fragment (single-task fragments are always valid)."""

    task = draw(tasks(name=f"task{index}"))
    return WorkflowFragment([task], fragment_id=f"prop-frag-{index}")


@st.composite
def knowledge_sets(draw, min_fragments: int = 1, max_fragments: int = 10):
    """A list of random fragments with distinct task names."""

    count = draw(st.integers(min_value=min_fragments, max_value=max_fragments))
    return [draw(fragments(index)) for index in range(count)]


@st.composite
def specifications(draw) -> Specification:
    """A random specification over the shared vocabulary."""

    return Specification(draw(_TRIGGERS), draw(_GOALS))
