"""Unit tests for the wire message types."""

from repro.core.fragments import WorkflowFragment
from repro.core.tasks import Task
from repro.net.messages import (
    AwardBatch,
    BidBatch,
    CallForBidsBatch,
    CapabilityQuery,
    CapabilityResponse,
    FragmentQuery,
    FragmentResponse,
    LabelBatch,
    LabelEntry,
    LabelReplayRequest,
    Message,
    ProgressQuery,
    TaskAward,
    TaskBidOffer,
    TaskCall,
    TaskCompletionRecord,
    TaskFailureRecord,
    WorkflowProgressReport,
    estimate_fragment_bytes,
    estimate_task_bytes,
)


class TestEnvelope:
    def test_ids_are_unique_and_increasing(self):
        first = Message(sender="a", recipient="b")
        second = Message(sender="a", recipient="b")
        assert first.msg_id != second.msg_id

    def test_kind_and_repr(self):
        msg = FragmentQuery(sender="a", recipient="b")
        assert msg.kind == "FragmentQuery"
        assert "a->b" in repr(msg)


class TestSizes:
    def test_task_and_fragment_estimates_scale_with_content(self):
        small = Task("t", ["a"], ["b"])
        big = Task("t", ["a", "b", "c", "d"], ["e", "f", "g"])
        assert estimate_task_bytes(big) > estimate_task_bytes(small)
        fragment = WorkflowFragment([small])
        assert estimate_fragment_bytes(fragment) > estimate_task_bytes(small)

    def test_fragment_response_size_dominates_query(self):
        fragment = WorkflowFragment([Task("t", ["a"], ["b"])])
        query = FragmentQuery(sender="a", recipient="b", exclude_fragment_ids=frozenset({"x"}))
        response = FragmentResponse(sender="b", recipient="a", fragments=(fragment,))
        assert response.size_bytes() > query.size_bytes()

    def test_all_messages_have_positive_size(self):
        task = Task("t", ["a"], ["b"])
        messages = [
            Message(sender="a", recipient="b"),
            FragmentQuery(sender="a", recipient="b"),
            FragmentResponse(sender="a", recipient="b"),
            CapabilityQuery(sender="a", recipient="b", service_types=frozenset({"s"})),
            CapabilityResponse(sender="a", recipient="b", offered=frozenset({"s"})),
            CallForBidsBatch(sender="a", recipient="b", calls=(TaskCall(task),)),
            BidBatch(sender="a", recipient="b", bids=(TaskBidOffer("t"),)),
            AwardBatch(sender="a", recipient="b", awards=(TaskAward(task),)),
            LabelBatch(sender="a", recipient="b", entries=(LabelEntry("x"),)),
            LabelReplayRequest(sender="a", recipient="b", labels=("x",)),
            ProgressQuery(sender="a", recipient="b", task_names=("t",)),
            WorkflowProgressReport(
                sender="a", recipient="b", completions=(TaskCompletionRecord("t"),)
            ),
            WorkflowProgressReport(
                sender="a", recipient="b", failures=(TaskFailureRecord("t"),)
            ),
        ]
        for message in messages:
            assert message.size_bytes() > 0


class TestPayloads:
    def test_call_for_bids_carries_task_and_window(self):
        task = Task("cook", ["a"], ["b"], duration=5)
        batch = CallForBidsBatch(
            sender="mgr",
            recipient="chef",
            workflow_id="w1",
            calls=(TaskCall(task=task, earliest_start=10.0),),
        )
        (call,) = batch.calls
        assert call.task.name == "cook"
        assert call.earliest_start == 10.0
        assert call.deadline == float("inf")
        assert batch.size_bytes() == 64 + estimate_task_bytes(task) + 16

    def test_award_carries_routing_information(self):
        task = Task("cook", ["a"], ["b"])
        award = TaskAward(
            task=task,
            input_sources={"a": "alice"},
            output_destinations={"b": ("bob", "carol")},
            trigger_labels=frozenset({"a"}),
        )
        assert award.input_sources["a"] == "alice"
        assert award.output_destinations["b"] == ("bob", "carol")
        assert "a" in award.trigger_labels
        # The task plus one label per input source and output destination.
        assert award.payload_bytes() == estimate_task_bytes(task) + 2 * 24
        batch = AwardBatch(sender="mgr", recipient="chef", awards=(award, award))
        assert batch.size_bytes() == 64 + 2 * award.payload_bytes()

    def test_bid_defaults(self):
        bid = TaskBidOffer(task_name="t")
        assert bid.response_deadline == float("inf")
        assert bid.specialization == 0
