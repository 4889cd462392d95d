"""Unit tests for the discovery substrate: Fragment Manager and capabilities."""

from repro.core.fragments import WorkflowFragment
from repro.core.incremental import LocalFragmentSource
from repro.core.tasks import Task
from repro.discovery.capability import CapabilityDirectory, make_capability_query
from repro.discovery.knowhow import FragmentManager
from repro.net.messages import CapabilityResponse, FragmentQuery


def make_manager() -> FragmentManager:
    return FragmentManager(
        "chef",
        [
            WorkflowFragment([Task("t1", ["a"], ["b"])], fragment_id="f1"),
            WorkflowFragment([Task("t2", ["b"], ["c"])], fragment_id="f2"),
        ],
    )


class TestFragmentManager:
    def test_fragments_attributed_to_host(self):
        manager = make_manager()
        assert all(f.contributor == "chef" for f in manager.all_fragments())
        assert manager.fragment_count == 2

    def test_existing_attribution_preserved(self):
        manager = FragmentManager("host")
        fragment = WorkflowFragment([Task("t", ["a"], ["b"])], contributor="original")
        manager.add_fragment(fragment)
        assert manager.all_fragments()[0].contributor == "original"

    def test_want_all_query(self):
        manager = make_manager()
        query = FragmentQuery(sender="mgr", recipient="chef", workflow_id="w")
        response = manager.handle_query(query)
        assert len(response.fragments) == 2
        assert response.recipient == "mgr"
        assert response.workflow_id == "w"
        assert manager.queries_answered == 1
        assert manager.fragments_served == 2

    def test_targeted_query_by_label(self):
        # The index's label keys answer the incremental variant's queries.
        source = LocalFragmentSource(make_manager().knowledge)
        consuming = source.fragments_consuming("b", exclude=frozenset())
        assert {f.fragment_id for f in consuming} == {"f2"}
        producing = source.fragments_producing("b", exclude=frozenset())
        assert {f.fragment_id for f in producing} == {"f1"}

    def test_exclusion_list_respected(self):
        manager = make_manager()
        query = FragmentQuery(
            sender="m", recipient="chef", exclude_fragment_ids=frozenset({"f1"})
        )
        assert {f.fragment_id for f in manager.matching_fragments(query)} == {"f2"}

    def test_remove_fragment(self):
        manager = make_manager()
        assert manager.remove_fragment("f1")
        assert not manager.remove_fragment("f1")
        assert manager.fragment_ids == {"f2"}


class TestCapabilityDirectory:
    def test_record_and_query(self):
        directory = CapabilityDirectory()
        directory.record_response(
            CapabilityResponse(sender="chef", recipient="mgr", offered=frozenset({"cook"}))
        )
        directory.record_offering("mgr", ["order"])
        assert directory.is_available("cook")
        assert directory.hosts_providing("cook") == {"chef"}
        assert directory.unavailable_services(["cook", "fly"]) == {"fly"}
        assert directory.coverage(["cook"])["cook"] == {"chef"}
        assert directory.responses_received == 1

    def test_forget_host(self):
        directory = CapabilityDirectory()
        directory.record_offering("chef", ["cook"])
        directory.forget_host("chef")
        assert not directory.is_available("cook")

    def test_make_capability_query(self):
        query = make_capability_query("mgr", "chef", ["cook", "serve"], workflow_id="w")
        assert query.service_types == {"cook", "serve"}
        assert query.sender == "mgr" and query.recipient == "chef"
