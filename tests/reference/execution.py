"""The paper's execution phase without a network: when each task fires.

A participant fires a commitment once its scheduled start has come and its
inputs have arrived, runs the service, then sends each output to the
participants that need it (paper, Section 3.2).  This model replays that
rule over the commitments a finished trial left on its hosts' schedules,
as on the zero-latency simulated network, where a label reaches its
destinations the instant its producer completes.  It walks the tasks in
task order:

* trigger labels are available from the start; a conjunctive task waits
  for the completion of the producer of its last needed input, a
  disjunctive task only for the first;
* a task fires at the later of its commitment's start and that arrival,
  and completes ``max(task.duration, expected service duration)`` later;
* it sends each output label that has a destination.

From the firings it derives each host's commitment outcomes, the labels
that reach a host after every consumer of them there has finished, and
the message counts of two ways to send: one label batch per firing and
remote destination host, or one message per label and remote destination
plus one completion notice per task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Firing:
    """One task's invocation, as the rule says it happens."""

    task: str
    host: str
    fired_at: float
    completed_at: float
    #: Output label -> the hosts it is sent to (only labels with one).
    sent: dict[str, tuple[str, ...]]

    def remote_destinations(self) -> set[str]:
        return {host for hosts in self.sent.values() for host in hosts} - {self.host}


@dataclass
class ReferenceExecution:
    firings: dict[str, Firing] = field(default_factory=dict)
    #: Labels that reach a host after every consumer of them there finished.
    late_labels: int = 0

    def outcomes(self) -> dict[str, list[tuple]]:
        """Each host's (task, completion instant, success, labels sent,
        failure reason), sorted."""

        view: dict[str, list[tuple]] = {}
        for firing in self.firings.values():
            view.setdefault(firing.host, []).append(
                (firing.task, firing.completed_at, True, tuple(sorted(firing.sent)), "")
            )
        return {host: sorted(outcomes) for host, outcomes in view.items()}

    def label_batches(self) -> int:
        """One message per firing and remote destination host."""

        return sum(len(firing.remote_destinations()) for firing in self.firings.values())

    def per_label_messages(self) -> int:
        """One message per label and remote destination, plus one completion
        notice per task."""

        labels = sum(
            len(set(hosts) - {firing.host})
            for firing in self.firings.values()
            for hosts in firing.sent.values()
        )
        return labels + len(self.firings)


def execute(community, workflow, workflow_id: str) -> ReferenceExecution:
    """Fire every committed task of ``workflow_id`` on ``community``'s hosts."""

    commitments = {}
    for host in community:
        for commitment in host.schedule_manager.commitments_for_workflow(workflow_id):
            commitments[commitment.task.name] = (host, commitment)

    result = ReferenceExecution()
    #: (host, label) -> the instant the label reaches that host.
    arrivals: dict[tuple[str, str], float] = {}
    for name in workflow.task_order():
        if name not in commitments:
            continue
        host, commitment = commitments[name]
        task = commitment.task
        ready = [
            0.0
            if label in commitment.trigger_labels
            else arrivals.get((host.host_id, label), math.inf)
            for label in task.inputs
        ]
        inputs_at = (max if task.is_conjunctive else min)(ready, default=0.0)
        if inputs_at == math.inf:
            continue  # an input never comes: the invocation waits forever
        fired_at = max(commitment.start, inputs_at)
        duration = max(task.duration, host.service_manager.expected_duration(task))
        completed_at = fired_at + duration
        sent = {
            label: destinations
            for label, destinations in commitment.output_destinations.items()
            if destinations
        }
        for label, destinations in sent.items():
            for destination in destinations:
                arrivals[destination, label] = completed_at
        result.firings[name] = Firing(name, host.host_id, fired_at, completed_at, sent)

    for firing in result.firings.values():
        for label, destinations in firing.sent.items():
            for destination in destinations:
                consumers = [
                    other
                    for other, (host, commitment) in commitments.items()
                    if host.host_id == destination and label in commitment.task.inputs
                ]
                if all(
                    other in result.firings
                    and result.firings[other].completed_at < firing.completed_at
                    for other in consumers
                ):
                    result.late_labels += 1
    return result
