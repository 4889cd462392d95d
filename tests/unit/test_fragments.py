"""Unit tests for repro.core.fragments."""

import pickle

import pytest

from repro.core.errors import InvalidFragmentError
from repro.core.fragments import (
    KnowledgeSet,
    WorkflowFragment,
    fragment_from_task,
    fragments_from_tasks,
    knowledge_from_fragments,
)
from repro.core.tasks import Task


class TestWorkflowFragment:
    def test_single_task_fragment(self):
        fragment = WorkflowFragment([Task("t", ["a"], ["b"])])
        assert fragment.task_names == {"t"}
        assert fragment.inset == {"a"}
        assert fragment.outset == {"b"}
        assert len(fragment) == 1

    def test_fragment_must_be_valid_workflow(self):
        with pytest.raises(InvalidFragmentError):
            WorkflowFragment([Task("t", outputs=["b"])])
        with pytest.raises(InvalidFragmentError):
            WorkflowFragment([Task("t1", ["a"], ["x"]), Task("t2", ["b"], ["x"])])

    def test_zero_input_tasks_cannot_reach_a_supergraph(self):
        # A zero-input task is applicable to naive forward chaining but can
        # never be coloured green.  The workflow model already forbids such
        # tasks at the fragment boundary (a non-label source), so a
        # supergraph never contains one, and the forward-chaining planner's
        # and the colouring's feasibility verdicts agree by construction.
        with pytest.raises(InvalidFragmentError):
            WorkflowFragment([Task("spring", [], ["water"])], fragment_id="source")

    def test_empty_fragment_rejected(self):
        with pytest.raises(InvalidFragmentError):
            WorkflowFragment([])

    def test_ids_autogenerated_and_unique(self):
        task = Task("t", ["a"], ["b"])
        first, second = WorkflowFragment([task]), WorkflowFragment([task])
        assert first.fragment_id != second.fragment_id

    def test_with_contributor(self):
        fragment = WorkflowFragment([Task("t", ["a"], ["b"])], fragment_id="f1")
        attributed = fragment.with_contributor("alice")
        assert attributed.contributor == "alice"
        assert attributed.fragment_id == "f1"
        assert attributed == fragment  # equality ignores provenance

    def test_label_queries(self):
        fragment = WorkflowFragment([Task("t", ["a"], ["b"])])
        assert fragment.mentions_label("a") and fragment.mentions_label("b")
        assert fragment.produces_label("b") and not fragment.produces_label("a")
        assert fragment.consumes_label("a") and not fragment.consumes_label("b")

    def test_equality_by_task_content(self):
        a = WorkflowFragment([Task("t", ["a"], ["b"])], fragment_id="one")
        b = WorkflowFragment([Task("t", ["a"], ["b"])], fragment_id="two")
        assert a == b
        assert hash(a) == hash(b)

    def test_helpers(self):
        task = Task("t", ["a"], ["b"])
        assert fragment_from_task(task).task_names == {"t"}
        fragments = fragments_from_tasks([task, Task("u", ["b"], ["c"])], contributor="x")
        assert len(fragments) == 2
        assert all(f.contributor == "x" for f in fragments)


class TestWithContributor:
    """Attribution copies a fragment without validating it again."""

    @staticmethod
    def fragment() -> WorkflowFragment:
        return WorkflowFragment(
            [Task("t1", ["a"], ["b"]), Task("t2", ["b"], ["c"])],
            fragment_id="f1",
            description="two steps",
        )

    def test_copy_shares_the_validated_workflow(self):
        fragment = self.fragment()
        attributed = fragment.with_contributor("alice")
        assert attributed is not fragment
        assert attributed.as_workflow() is fragment.as_workflow()

    def test_copy_keeps_everything_but_the_contributor(self):
        fragment = self.fragment()
        attributed = fragment.with_contributor("alice")
        assert attributed.contributor == "alice"
        assert fragment.contributor is None
        assert attributed.fragment_id == "f1"
        assert attributed.description == "two steps"
        assert attributed.tasks == fragment.tasks
        assert attributed == fragment
        assert hash(attributed) == hash(fragment)
        assert (attributed.inset, attributed.outset) == ({"a"}, {"c"})

    def test_copy_survives_a_pickle_round_trip(self):
        attributed = self.fragment().with_contributor("alice")
        restored = pickle.loads(pickle.dumps(attributed))
        assert restored == attributed
        assert restored.contributor == "alice"
        assert restored.fragment_id == "f1"
        assert restored.description == "two steps"
        assert restored.as_workflow() == attributed.as_workflow()

    def test_construction_still_rejects_malformed_fragments(self):
        with pytest.raises(InvalidFragmentError):
            WorkflowFragment([Task("t1", ["a"], ["b"]), Task("t2", ["b"], ["a"])])
        with pytest.raises(InvalidFragmentError):
            WorkflowFragment([Task("t1", ["a"], ["x"]), Task("t2", ["b"], ["x"])])


class TestKnowledgeSet:
    def make_set(self) -> KnowledgeSet:
        return KnowledgeSet(
            [
                WorkflowFragment([Task("t1", ["a"], ["b"])], fragment_id="f1"),
                WorkflowFragment([Task("t2", ["b"], ["c"])], fragment_id="f2"),
                WorkflowFragment([Task("t3", ["a"], ["c"])], fragment_id="f3"),
            ]
        )

    def test_indexing(self):
        knowledge = self.make_set()
        assert len(knowledge) == 3
        assert {f.fragment_id for f in knowledge.fragments_producing("c")} == {"f2", "f3"}
        assert {f.fragment_id for f in knowledge.fragments_consuming("a")} == {"f1", "f3"}
        assert knowledge.fragments_producing("zzz") == []

    def test_add_is_idempotent_by_id(self):
        knowledge = self.make_set()
        knowledge.add(WorkflowFragment([Task("t9", ["x"], ["y"])], fragment_id="f1"))
        assert len(knowledge) == 3

    def test_membership_and_get(self):
        knowledge = self.make_set()
        assert "f1" in knowledge
        assert knowledge.get("f1").task_names == {"t1"}
        assert knowledge.get("missing") is None

    def test_all_tasks_and_labels(self):
        knowledge = self.make_set()
        assert {t.name for t in knowledge.all_tasks()} == {"t1", "t2", "t3"}
        assert knowledge.all_labels() == {"a", "b", "c"}

    def test_partition_round_robin(self):
        knowledge = self.make_set()
        groups = knowledge.partition(2)
        assert len(groups) == 2
        assert sum(len(g) for g in groups) == 3
        with pytest.raises(ValueError):
            knowledge.partition(0)

    def test_constructor_helper(self):
        fragments = [WorkflowFragment([Task("t", ["a"], ["b"])])]
        assert len(knowledge_from_fragments(fragments)) == 1
