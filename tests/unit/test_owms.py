"""Unit tests for the OWMS facade and the XML configuration loader."""

import pytest

from repro.core.errors import ConfigurationError
from repro.owms.config import (
    parse_community_xml,
    parse_fragment,
    parse_service,
    parse_task,
)
from repro.owms.system import OpenWorkflowSystem

import xml.etree.ElementTree as ET


COMMUNITY_XML = """
<community>
  <location name="kitchen" x="0" y="0"/>
  <location name="dining room" x="30" y="0"/>
  <device id="chef">
    <position x="5" y="5"/>
    <fragments>
      <fragment id="omelets" description="How to serve omelets">
        <task name="set out ingredients" duration="10" location="dining room">
          <input>breakfast ingredients</input>
          <output>omelet bar setup</output>
        </task>
        <task name="cook omelets" duration="20" location="dining room">
          <input>omelet bar setup</input>
          <output>breakfast served</output>
        </task>
      </fragment>
    </fragments>
    <services>
      <service type="cook omelets" duration="20"/>
      <service type="set out ingredients" duration="10"/>
    </services>
    <preferences max-commitments="3" bid-validity="600">
      <refuse>serve tables</refuse>
    </preferences>
  </device>
  <device id="manager">
    <services>
      <service type="order food"/>
    </services>
  </device>
</community>
"""


class TestConfigParsing:
    def test_parse_task_attributes(self):
        element = ET.fromstring(
            '<task name="t" mode="disjunctive" service="svc" duration="5" location="loc">'
            "<input>a</input><output>b</output></task>"
        )
        task = parse_task(element)
        assert task.name == "t"
        assert task.is_disjunctive
        assert task.service_type == "svc"
        assert task.duration == 5.0
        assert task.location == "loc"
        assert task.inputs == {"a"} and task.outputs == {"b"}

    def test_parse_task_errors(self):
        with pytest.raises(ConfigurationError):
            parse_task(ET.fromstring("<task><input>a</input></task>"))
        with pytest.raises(ConfigurationError):
            parse_task(ET.fromstring('<task name="t" mode="bogus"/>'))
        with pytest.raises(ConfigurationError):
            parse_task(ET.fromstring('<task name="t" duration="soon"/>'))

    def test_parse_fragment_requires_valid_workflow(self):
        broken = ET.fromstring('<fragment><task name="t"><output>x</output></task></fragment>')
        with pytest.raises(ConfigurationError):
            parse_fragment(broken)
        with pytest.raises(ConfigurationError):
            parse_fragment(ET.fromstring("<fragment/>"))

    def test_parse_service_errors(self):
        with pytest.raises(ConfigurationError):
            parse_service(ET.fromstring("<service/>"))

    def test_parse_full_community(self):
        config = parse_community_xml(COMMUNITY_XML)
        assert [d.device_id for d in config.devices] == ["chef", "manager"]
        assert {loc.name for loc in config.locations} == {"kitchen", "dining room"}
        chef = config.device("chef")
        assert len(chef.fragments) == 1
        assert chef.fragments[0].fragment_id == "omelets"
        assert {s.service_type for s in chef.services} == {"cook omelets", "set out ingredients"}
        assert chef.position is not None
        assert chef.preferences.max_commitments == 3
        assert chef.preferences.bid_validity == 600.0
        assert "serve tables" in chef.preferences.refused_service_types
        with pytest.raises(ConfigurationError):
            config.device("nobody")

    def test_parse_errors_on_malformed_documents(self):
        with pytest.raises(ConfigurationError):
            parse_community_xml("<not-closed")
        with pytest.raises(ConfigurationError):
            parse_community_xml("<wrong-root/>")
        with pytest.raises(ConfigurationError):
            parse_community_xml("<community></community>")


class TestOpenWorkflowSystem:
    def test_from_xml_and_solve(self):
        system = OpenWorkflowSystem.from_xml(COMMUNITY_XML)
        assert system.hosts == ["chef", "manager"]
        assert system.community_knowledge_size() == 1
        report = system.solve(
            "manager", ["breakfast ingredients"], ["breakfast served"], wait_for_execution=True
        )
        assert report.succeeded
        assert report.phase == "completed"
        assert dict(report.task_assignments())["cook omelets"] == "chef"
        assert report.allocation_seconds is not None
        assert report.completion_seconds >= 30.0  # two services of 10 + 20 seconds

    def test_solve_without_execution_stops_at_allocation(self):
        system = OpenWorkflowSystem.from_xml(COMMUNITY_XML)
        report = system.solve(
            "manager", ["breakfast ingredients"], ["breakfast served"], wait_for_execution=False
        )
        assert report.phase == "executing"
        assert report.succeeded
        assert report.completed_tasks == frozenset()

    def test_unsolvable_problem_reports_failure(self):
        system = OpenWorkflowSystem.from_xml(COMMUNITY_XML)
        report = system.solve("manager", ["breakfast ingredients"], ["world peace"])
        assert not report.succeeded
        assert report.phase == "failed"
        assert report.failure_reason

    def test_from_config_file(self, tmp_path):
        path = tmp_path / "community.xml"
        path.write_text(COMMUNITY_XML, encoding="utf-8")
        system = OpenWorkflowSystem.from_config_file(path)
        assert system.hosts == ["chef", "manager"]

    def test_add_device_programmatically(self):
        from repro.core import Task, WorkflowFragment
        from repro.execution import ServiceDescription

        system = OpenWorkflowSystem()
        system.add_device(
            "solo",
            fragments=[WorkflowFragment([Task("t", ["a"], ["b"], duration=1)])],
            services=[ServiceDescription("t", duration=1)],
        )
        report = system.solve("solo", ["a"], ["b"])
        assert report.succeeded
        assert report.workflow.task_names == {"t"}

    def test_devices_run_the_system_config_with_overrides(self):
        from repro.host import HostConfig

        system = OpenWorkflowSystem(durability="memory")
        assert system.config == HostConfig(capability_aware=True, durability="memory")
        plain = system.add_device("plain")
        hardened = system.add_device(
            "hardened", fault_injection=True, max_repair_attempts=5
        )
        assert plain.config is system.config
        assert hardened.config == HostConfig(
            capability_aware=True,
            durability="memory",
            fault_injection=True,
            max_repair_attempts=5,
        )
        assert hardened.workflow_manager.robust
        assert hardened.workflow_manager.max_repair_attempts == 5
        assert hardened.durability is not None
