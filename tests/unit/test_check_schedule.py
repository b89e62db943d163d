"""Unit tests for replayable fault schedules (`repro.check.schedule`).

Covers the pure-data layer (validation, ordering, JSON round-trip, the
shrinker's ``without`` move) and the :class:`ScheduleRunner` translating
steps into live faults on a real deployment.
"""

import json

import pytest

from repro.check import Schedule, ScheduleRunner, ScheduleStep
from repro.core import MultiRingConfig, MultiRingPaxos
from repro.errors import ConfigurationError
from repro.sim.faults import NetworkPartition
from repro.sim.loss import TunableLoss


def _steps():
    return [
        ScheduleStep(0.3, "heal"),
        ScheduleStep(0.1, "partition", island=("n0", "n1")),
        ScheduleStep(0.2, "crash", target="coordinator:0"),
        ScheduleStep(0.25, "loss", p=0.1),
        ScheduleStep(0.28, "slow_net", factor=4.0),
    ]


class TestScheduleData:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleStep(0.1, "meteor_strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleStep(-0.1, "crash", target="learner:0")

    def test_steps_sorted_by_time(self):
        sched = Schedule(_steps())
        assert [s.time for s in sched.steps] == sorted(s.time for s in sched.steps)

    def test_identical_times_keep_listed_order(self):
        a = ScheduleStep(0.5, "crash", target="learner:0")
        b = ScheduleStep(0.5, "restart", target="learner:0")
        assert Schedule([a, b]).steps == [a, b]

    def test_without_removes_one_step(self):
        sched = Schedule(_steps())
        smaller = sched.without(2)
        assert len(smaller) == len(sched) - 1
        assert sched.steps[2] not in smaller.steps
        assert len(sched) == 5  # original untouched

    def test_json_round_trip_preserves_every_field(self):
        sched = Schedule(_steps())
        again = Schedule.from_dict(json.loads(json.dumps(sched.as_dict())))
        assert again.steps == sched.steps

    def test_describe_mentions_each_step(self):
        text = Schedule(_steps()).describe()
        assert "partition {n0,n1}" in text
        assert "crash coordinator:0" in text
        assert "p=0.1" in text
        assert "x4" in text


def _deployment():
    loss = TunableLoss()
    partition = NetworkPartition(set(), underlying=loss)
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=1, seed=11))
    mrp.network.loss = partition
    mrp.add_learner(groups=[0])
    mrp.add_proposer()
    return mrp, partition, loss


class TestScheduleRunner:
    def test_steps_fire_at_their_times(self):
        mrp, partition, loss = _deployment()
        base_delay = mrp.network.propagation_delay
        runner = ScheduleRunner(mrp, partition, loss)
        runner.install(Schedule([
            ScheduleStep(0.1, "partition", island=("mr0-coord",)),
            ScheduleStep(0.15, "loss", p=0.2),
            ScheduleStep(0.2, "slow_net", factor=4.0),
            ScheduleStep(0.3, "crash", target="coordinator:0"),
        ]))
        mrp.run(until=0.05)
        assert not partition.active
        assert loss.p == 0.0
        mrp.run(until=0.25)
        assert partition.active
        assert partition.island == {"mr0-coord"}
        assert loss.p == 0.2
        assert mrp.network.propagation_delay == pytest.approx(4 * base_delay)
        assert not mrp.rings[0].coordinator.crashed
        mrp.run(until=0.35)
        assert mrp.rings[0].coordinator.crashed

    def test_phase_end_steps_restore_baseline(self):
        mrp, partition, loss = _deployment()
        base_delay = mrp.network.propagation_delay
        runner = ScheduleRunner(mrp, partition, loss)
        runner.install(Schedule([
            ScheduleStep(0.1, "loss", p=0.3),
            ScheduleStep(0.15, "slow_net", factor=8.0),
            ScheduleStep(0.2, "loss_end"),
            ScheduleStep(0.25, "slow_net_end"),
        ]))
        mrp.run(until=0.3)
        assert loss.p == 0.0
        assert mrp.network.propagation_delay == pytest.approx(base_delay)

    def test_role_targets_resolve(self):
        mrp, partition, loss = _deployment()
        runner = ScheduleRunner(mrp, partition, loss)
        runner.install(Schedule([
            ScheduleStep(0.1, "crash", target="acceptor:0:0"),
            ScheduleStep(0.1, "crash", target="learner:0"),
            ScheduleStep(0.1, "crash", target="proposer:0"),
        ]))
        mrp.run(until=0.2)
        assert mrp.rings[0].acceptors[0].crashed
        assert mrp.learners[0].crashed
        assert mrp.proposers[0].crashed

    def test_unresolvable_target_is_skipped(self):
        # An index beyond the deployment must not crash the run — the
        # schedule stays applicable to a smaller replay deployment.
        mrp, partition, loss = _deployment()
        runner = ScheduleRunner(mrp, partition, loss)
        runner.install(Schedule([
            ScheduleStep(0.1, "crash", target="learner:99"),
            ScheduleStep(0.1, "crash", target="acceptor:7:0"),
        ]))
        mrp.run(until=0.2)

    def test_unknown_target_kind_raises(self):
        mrp, partition, loss = _deployment()
        runner = ScheduleRunner(mrp, partition, loss)
        with pytest.raises(ConfigurationError):
            runner._role_action("crash", "gremlin:0")

    def test_heal_everything_clears_every_fault(self):
        mrp, partition, loss = _deployment()
        base_delay = mrp.network.propagation_delay
        runner = ScheduleRunner(mrp, partition, loss)
        runner.install(Schedule([
            ScheduleStep(0.1, "partition", island=("mr0-coord",)),
            ScheduleStep(0.12, "loss", p=0.5),
            ScheduleStep(0.14, "slow_net", factor=10.0),
            ScheduleStep(0.16, "crash", target="coordinator:0"),
            ScheduleStep(0.18, "crash", target="learner:0"),
        ]))
        mrp.run(until=0.25)
        runner.heal_everything()
        assert not partition.active
        assert loss.p == 0.0
        assert mrp.network.propagation_delay == pytest.approx(base_delay)
        assert not mrp.rings[0].coordinator.crashed
        assert not mrp.learners[0].crashed

    def test_heal_everything_is_idempotent_on_healthy_deployment(self):
        mrp, partition, loss = _deployment()
        runner = ScheduleRunner(mrp, partition, loss)
        runner.heal_everything()
        runner.heal_everything()
        assert not mrp.rings[0].coordinator.crashed
