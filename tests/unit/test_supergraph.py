"""Unit tests for repro.core.supergraph."""

import pytest

from repro.core.errors import InvalidWorkflowError
from repro.core.fragments import KnowledgeSet, WorkflowFragment
from repro.core.graph import NodeRef
from repro.core.supergraph import Supergraph, supergraph_from_knowledge
from repro.core.tasks import Task, TaskMode


def fragments():
    return [
        WorkflowFragment([Task("t1", ["a"], ["x"])], fragment_id="f1"),
        WorkflowFragment([Task("t2", ["b"], ["x"])], fragment_id="f2"),
        WorkflowFragment([Task("t3", ["x"], ["a"])], fragment_id="f3"),
    ]


class TestSupergraphConstruction:
    def test_allows_multiple_producers_and_cycles(self):
        graph = Supergraph(fragments())
        assert graph.producers_of("x") == {"t1", "t2"}
        # t1 consumes a, t3 produces a from x: a cycle a -> t1 -> x -> t3 -> a
        assert graph.has_task("t3")
        assert graph.node_count == 6  # 3 tasks + labels a, b, x

    def test_add_fragment_reports_novelty(self):
        graph = Supergraph()
        frag = fragments()[0]
        assert graph.add_fragment(frag) is True
        assert graph.add_fragment(frag) is False  # same id again
        duplicate_content = WorkflowFragment([Task("t1", ["a"], ["x"])], fragment_id="f9")
        assert graph.add_fragment(duplicate_content) is False  # nothing new

    def test_conflicting_task_definitions_rejected(self):
        graph = Supergraph([WorkflowFragment([Task("t", ["a"], ["b"])], fragment_id="f1")])
        with pytest.raises(InvalidWorkflowError):
            graph.add_fragment(
                WorkflowFragment([Task("t", ["a"], ["c"])], fragment_id="f2")
            )

    def test_conflicting_fragment_is_not_registered(self):
        graph = Supergraph(
            [WorkflowFragment([Task("t0", ["L0"], ["L1"])], fragment_id="f0")]
        )
        conflicting = WorkflowFragment(
            [
                Task("new-task", ["a"], ["b"]),
                Task("t0", ["different"], ["inputs"]),  # conflicts with t0
            ],
            fragment_id="bad",
        )
        with pytest.raises(InvalidWorkflowError):
            graph.add_fragment(conflicting)
        # The tasks before the conflict are merged, but the fragment id is
        # not registered: a corrected version of the fragment is not
        # silently ignored.
        assert graph.has_task("new-task")
        corrected = WorkflowFragment(
            [Task("new-task", ["a"], ["b"]), Task("t9", ["b"], ["c"])],
            fragment_id="bad",
        )
        assert graph.add_fragment(corrected) is True
        assert graph.has_task("t9")

    def test_add_knowledge(self):
        graph = Supergraph()
        added = graph.add_knowledge(KnowledgeSet(fragments()))
        assert added == 3
        assert graph.fragment_ids == {"f1", "f2", "f3"}

    def test_add_label_for_triggers(self):
        graph = Supergraph()
        graph.add_label("free-label")
        assert graph.has_label("free-label")
        assert graph.producers_of("free-label") == frozenset()


class TestNavigation:
    def test_parents_children_and_disjunctive_nodes(self):
        graph = Supergraph(
            [
                WorkflowFragment(
                    [Task("t", ["a", "b"], ["c"], mode=TaskMode.DISJUNCTIVE)],
                    fragment_id="f",
                )
            ]
        )
        assert graph.parents(NodeRef.task("t")) == {NodeRef.label("a"), NodeRef.label("b")}
        assert graph.children(NodeRef.task("t")) == {NodeRef.label("c")}
        assert graph.parents(NodeRef.label("c")) == {NodeRef.task("t")}
        assert graph.is_disjunctive_node(NodeRef.task("t"))
        assert graph.is_disjunctive_node(NodeRef.label("a"))

    def test_conjunctive_task_node_not_disjunctive(self):
        graph = Supergraph([WorkflowFragment([Task("t", ["a"], ["b"])], fragment_id="f")])
        assert not graph.is_disjunctive_node(NodeRef.task("t"))

    def test_fragment_attribution(self):
        graph = Supergraph(fragments())
        assert graph.fragments_for_task("t1") == {"f1"}
        shared = WorkflowFragment([Task("t1", ["a"], ["x"])], fragment_id="f1-copy")
        graph.add_fragment(shared)
        assert graph.fragments_for_task("t1") == {"f1", "f1-copy"}

    def test_degree_indexes(self):
        graph = Supergraph(
            [
                WorkflowFragment(
                    [Task(f"t{i}", [f"L{i}"], [f"L{i + 1}"])], fragment_id=f"f{i}"
                )
                for i in range(2)
            ]
        )
        assert graph.in_degree(NodeRef.task("t0")) == 1
        assert graph.out_degree(NodeRef.task("t0")) == 1
        assert graph.in_degree(NodeRef.label("L1")) == 1  # produced by t0
        assert graph.out_degree(NodeRef.label("L1")) == 1  # consumed by t1
        assert graph.in_degree(NodeRef.label("L0")) == 0

    def test_edges_and_nodes_iteration(self):
        graph = Supergraph(fragments())
        assert len(list(graph.edges())) == graph.edge_count
        assert len(list(graph.nodes())) == len(graph)


class TestStatistics:
    def test_statistics_shape(self):
        graph = supergraph_from_knowledge(KnowledgeSet(fragments()))
        stats = graph.statistics()
        assert stats["tasks"] == 3
        assert stats["labels"] == 3
        assert stats["fragments"] == 3
        assert stats["multi_producer_labels"] == 1
