"""Unit tests for replayable fault schedules (`repro.check.schedule`).

Covers the pure-data layer (validation, ordering, JSON round-trip, the
shrinker's ``without`` move) and the :class:`ScheduleRunner` translating
steps into live faults on a real deployment.
"""

import json

import pytest

from repro.check import Schedule, ScheduleRunner, ScheduleStep, load_failure
from repro.check.schedule import ACTIONS
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

    def test_nan_time_rejected(self):
        # Sorting on a NaN key could reorder the steps after it.
        with pytest.raises(ConfigurationError):
            ScheduleStep(float("nan"), "crash", target="coordinator:0")

    @pytest.mark.parametrize("action, name", [
        (action, name) for action, (required, _) in ACTIONS.items() for name in required
    ])
    def test_every_required_field_is_checked(self, action, name):
        # E.g. a crash with no target, a loss with no p.
        fields = {"target": "learner:0", "island": ("0", "1"), "p": 0.1,
                  "factor": 2.0, "group": 0, "ring": 0}
        fields[name] = None
        with pytest.raises(ConfigurationError, match=name):
            ScheduleStep(0.1, action, **fields)

    @pytest.mark.parametrize("action", ["wan_partition", "ring_merge"])
    @pytest.mark.parametrize("island", [("dc0",), ("dc0", "dc1", "dc2")])
    def test_pair_actions_need_a_two_element_island(self, action, island):
        with pytest.raises(ConfigurationError, match="two-element"):
            ScheduleStep(0.1, action, island=island)

    @pytest.mark.parametrize("step", [
        {"t": float("nan"), "action": "crash", "target": "coordinator:0"},
        {"t": 0.1, "action": "crash"},
        {"t": 0.1, "action": "loss"},
        {"t": 0.1, "action": "wan_partition", "island": ["dc0"]},
    ])
    def test_load_failure_rejects_a_malformed_step(self, tmp_path, step):
        path = tmp_path / "failure.json"
        path.write_text(json.dumps({
            "version": 1, "seed": 1, "config": {},
            "schedule": {"steps": [{"t": 0.05, "action": "heal"}, step]},
        }))
        with pytest.raises(ConfigurationError):
            load_failure(path)

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

    def test_each_step_is_one_kernel_entry(self):
        mrp, partition, loss = _deployment()
        before = mrp.sim.pending_events
        ScheduleRunner(mrp, partition, loss).install(Schedule(_steps()))
        assert mrp.sim.pending_events == before + len(_steps())

    def test_runner_handles_exactly_the_action_tables_keys(self):
        # The table is the whole vocabulary of a replay file: every action
        # in it installs and fires on a live deployment, and a step naming
        # anything else cannot be built.
        assert set(ACTIONS) == {
            "crash", "restart", "partition", "heal", "loss", "loss_end",
            "slow_net", "slow_net_end", "slow_disk", "slow_disk_end",
            "wan_partition", "wan_heal", "wan_jitter", "wan_jitter_end",
            "remap", "ring_split", "ring_merge",
        }
        fields = {"target": "learner:0", "p": 0.1, "factor": 2.0, "group": 0, "ring": 0}
        steps = []
        for i, (action, (required, _)) in enumerate(sorted(ACTIONS.items())):
            given = {name: fields[name] for name in required if name != "island"}
            if "island" in required:
                given["island"] = ("1", "0") if action == "ring_merge" else ("dc0", "dc1")
            steps.append(ScheduleStep(0.05 + 0.01 * i, action, **given))
        mrp, partition, loss = _deployment()
        ScheduleRunner(mrp, partition, loss).install(Schedule(steps))
        mrp.run(until=0.5)
        with pytest.raises(ConfigurationError):
            ScheduleStep(0.1, "install")


class TestScheduledFaults:
    """Fault semantics the generated schedules rely on."""

    def test_crash_and_restart_fire_on_time(self):
        mrp, partition, loss = _deployment()
        learner = mrp.learners[0]
        ScheduleRunner(mrp, partition, loss).install(Schedule([
            ScheduleStep(0.1, "crash", target="learner:0"),
            ScheduleStep(0.2, "restart", target="learner:0"),
        ]))
        mrp.run(until=0.05)
        assert not learner.crashed and learner.node.up
        mrp.run(until=0.15)
        assert learner.crashed and not learner.node.up
        mrp.run(until=0.25)
        assert not learner.crashed and learner.node.up

    def test_crash_of_a_crashed_role_is_idempotent(self):
        mrp, partition, loss = _deployment()
        coord = mrp.rings[0].coordinator
        runner = ScheduleRunner(mrp, partition, loss).install(Schedule([
            ScheduleStep(0.1, "crash", target="coordinator:0"),
            ScheduleStep(0.2, "crash", target="coordinator:0"),
            ScheduleStep(0.3, "restart", target="coordinator:0"),
        ]))
        mrp.run(until=0.25)
        assert coord.crashed
        mrp.run(until=0.35)
        assert not coord.crashed  # one restart undoes any number of crashes
        assert runner.restarted == {"coordinator:0"}

    def test_restart_without_prior_crash_is_a_noop(self):
        mrp, partition, loss = _deployment()
        log = []
        mrp.learners[0].on_deliver = lambda group, value: log.append(value.payload)
        runner = ScheduleRunner(mrp, partition, loss).install(Schedule([
            ScheduleStep(0.1, "restart", target="coordinator:0"),
            ScheduleStep(0.1, "restart", target="acceptor:0:0"),
        ]))
        mrp.run(until=0.2)
        assert not mrp.rings[0].coordinator.crashed
        assert runner.restarted == set()  # nothing was brought back
        # The ring still works: a restart must not reset protocol state.
        mrp.proposers[0].multicast(0, "after", 1024)
        mrp.run(until=1.0)
        assert log == ["after"]

    @pytest.mark.parametrize("order, up", [(("crash", "restart"), True),
                                           (("restart", "crash"), False)])
    def test_same_instant_steps_fire_in_listed_order(self, order, up):
        mrp, partition, loss = _deployment()
        ScheduleRunner(mrp, partition, loss).install(Schedule([
            ScheduleStep(0.1, action, target="learner:0") for action in order
        ]))
        mrp.run(until=0.2)
        assert mrp.learners[0].node.up is up

    def test_partition_swaps_island_and_activates_in_one_event(self):
        mrp, partition, loss = _deployment()
        partition.island = {"mr0-coord"}
        before = mrp.sim.pending_events
        ScheduleRunner(mrp, partition, loss).install(Schedule([
            ScheduleStep(0.1, "partition", island=("mr-lrn0",)),
        ]))
        assert mrp.sim.pending_events == before + 1
        mrp.run(until=0.1)
        assert partition.island == {"mr-lrn0"} and partition.active

    def test_partition_activated_twice_heals_with_one_heal(self):
        mrp, partition, loss = _deployment()
        ScheduleRunner(mrp, partition, loss).install(Schedule([
            ScheduleStep(0.1, "partition", island=("mr-lrn0",)),
            ScheduleStep(0.2, "partition", island=("mr-lrn0",)),
            ScheduleStep(0.3, "heal"),
        ]))
        mrp.run(until=0.25)
        assert partition.active
        mrp.run(until=0.35)
        assert not partition.active  # activation is a flag, not a count

    def test_loss_phase_has_both_edges(self):
        mrp, partition, loss = _deployment()
        ScheduleRunner(mrp, partition, loss).install(Schedule([
            ScheduleStep(0.1, "loss", p=1.0),
            ScheduleStep(0.2, "loss_end"),
        ]))
        mrp.run(until=0.15)
        assert loss.p == 1.0
        mrp.run(until=0.25)
        assert loss.p == 0.0
