"""Unit tests for the fuzz driver (`repro.check.driver`).

The expensive end-to-end behaviour (50-seed sweeps) lives in the
integration corpus; here we pin the driver's contracts: seed determinism,
config drawing invariants, the greedy shrinker's convergence (against a
stubbed runner, so essential-step sets are exact), failure-file round
trips, and the CLI.
"""

import dataclasses
import json
import random

import pytest

import repro.check.driver as driver_mod
from repro.check import (
    CaseConfig,
    CaseResult,
    Schedule,
    ScheduleStep,
    draw_config,
    failure_to_dict,
    fuzz_main,
    load_failure,
    run_case,
    shrink,
)
from repro.cli import main
from repro.errors import ConfigurationError


class TestDrawConfig:
    def test_deterministic_per_seed(self):
        assert draw_config(random.Random(5)) == draw_config(random.Random(5))

    def test_different_seeds_vary(self):
        configs = [draw_config(random.Random(s)) for s in range(20)]
        assert len({c.n_groups for c in configs}) > 1

    def test_every_group_has_a_subscriber(self):
        for seed in range(50):
            config = draw_config(random.Random(seed))
            covered = {g for subs in config.learners for g in subs}
            assert covered == set(range(config.n_groups))

    def test_multi_group_case_has_a_merging_learner(self):
        for seed in range(50):
            config = draw_config(random.Random(seed))
            if config.n_groups > 1:
                assert any(len(subs) > 1 for subs in config.learners)

    def test_config_round_trips_through_dict(self):
        config = draw_config(random.Random(9))
        assert CaseConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(config)))) == config


class TestRunCase:
    def test_seed_reproduces_identical_run(self):
        a = run_case(7)
        b = run_case(7)
        assert a.ok and b.ok
        assert a.config == b.config
        assert a.schedule.steps == b.schedule.steps
        assert a.events_checked == b.events_checked

    def test_pinned_schedule_overrides_generation(self):
        base = run_case(7)
        pinned = Schedule([ScheduleStep(0.2, "crash", target="coordinator:0"),
                           ScheduleStep(0.5, "restart", target="coordinator:0")])
        result = run_case(7, config=base.config, schedule=pinned)
        assert result.ok
        assert result.schedule.steps == pinned.steps

    def test_violation_becomes_result_not_exception(self, monkeypatch):
        def explode(self):
            raise driver_mod.OracleViolation("agreement", "boom", time=0.1, source="l0")

        monkeypatch.setattr(driver_mod.SafetyOracles, "check_final", explode)
        result = run_case(7)
        assert not result.ok
        assert result.oracle == "agreement"
        assert "boom" in result.message


def _stub_runner(essential, oracle="agreement"):
    """A run_case stand-in failing iff every essential step survives."""
    calls = []

    def fake(seed, config=None, schedule=None, grace=6.0, duration=None):
        calls.append(schedule)
        failing = all(step in schedule.steps for step in essential)
        return CaseResult(seed=seed, config=config, schedule=schedule,
                          ok=not failing, oracle=oracle if failing else None)

    return fake, calls


class TestShrink:
    def _failing_result(self, steps):
        return CaseResult(seed=1, config=CaseConfig(), schedule=Schedule(steps),
                          ok=False, oracle="agreement", message="stub")

    def test_converges_to_exactly_the_essential_steps(self, monkeypatch):
        steps = [ScheduleStep(0.1 * i, "crash", target=f"learner:{i}") for i in range(6)]
        essential = [steps[1], steps[4]]
        fake, _ = _stub_runner(essential)
        monkeypatch.setattr(driver_mod, "run_case", fake)
        shrunk, reruns = shrink(self._failing_result(steps))
        assert shrunk.steps == sorted(essential, key=lambda s: s.time)
        assert reruns > 0

    def test_result_is_strictly_smaller_when_steps_are_removable(self, monkeypatch):
        steps = [ScheduleStep(0.1 * i, "crash", target=f"learner:{i}") for i in range(5)]
        fake, _ = _stub_runner([steps[0]])
        monkeypatch.setattr(driver_mod, "run_case", fake)
        shrunk, _ = shrink(self._failing_result(steps))
        assert len(shrunk) < len(steps)

    def test_different_oracle_does_not_count_as_reproduction(self, monkeypatch):
        # The stub now fails with a different oracle once steps are
        # removed — the shrinker must treat that as "not reproduced" and
        # keep the full schedule.
        steps = [ScheduleStep(0.1 * i, "crash", target=f"learner:{i}") for i in range(3)]

        def fake(seed, config=None, schedule=None, grace=6.0, duration=None):
            return CaseResult(seed=seed, config=config, schedule=schedule,
                              ok=False, oracle="liveness")

        monkeypatch.setattr(driver_mod, "run_case", fake)
        shrunk, _ = shrink(self._failing_result(steps))
        assert shrunk.steps == steps

    def test_budget_bounds_reruns(self, monkeypatch):
        steps = [ScheduleStep(0.01 * i, "crash", target=f"learner:{i}") for i in range(50)]
        fake, calls = _stub_runner([])  # always fails: worst case for the loop
        monkeypatch.setattr(driver_mod, "run_case", fake)
        _, reruns = shrink(self._failing_result(steps), budget=10)
        assert reruns == 10
        assert len(calls) == 10

    def test_rejects_passing_result(self):
        ok = CaseResult(seed=1, config=CaseConfig(), schedule=Schedule([]), ok=True)
        with pytest.raises(ValueError):
            shrink(ok)


class TestFailureFiles:
    def _failure(self):
        schedule = Schedule([ScheduleStep(0.2, "crash", target="coordinator:0"),
                             ScheduleStep(0.4, "partition", island=("n0",)),
                             ScheduleStep(0.6, "heal")])
        return CaseResult(seed=42, config=draw_config(random.Random(42)),
                          schedule=schedule, ok=False, oracle="agreement",
                          message="[agreement] t=0.5: stub")

    def test_round_trip(self, tmp_path):
        result = self._failure()
        shrunk = result.schedule.without(2)
        path = tmp_path / "seed42.json"
        path.write_text(json.dumps(failure_to_dict(result, shrunk)))
        seed, config, schedule = load_failure(path)
        assert seed == 42
        assert config == result.config
        assert schedule.steps == shrunk.steps

    def test_records_both_sizes(self):
        result = self._failure()
        data = failure_to_dict(result, result.schedule.without(0))
        assert data["original_steps"] == 3
        assert data["shrunk_steps"] == 2
        assert data["oracle"] == "agreement"

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            load_failure(path)

    def _load_with_config(self, tmp_path, **overrides):
        data = failure_to_dict(self._failure())
        data["config"].update(overrides)
        path = tmp_path / "failure.json"
        path.write_text(json.dumps(data))
        return load_failure(path)

    @pytest.mark.parametrize("field, value", [("n_proposers", 0),
                                              ("messages_per_proposer", -5)])
    def test_config_without_proposals_rejected(self, tmp_path, field, value):
        # With nothing proposed, liveness would hold vacuously.
        with pytest.raises(ConfigurationError, match=field):
            self._load_with_config(tmp_path, **{field: value})

    @pytest.mark.parametrize("profile", ["nope", "false_suspicion"])
    def test_config_unknown_profile_rejected(self, tmp_path, profile):
        with pytest.raises(ConfigurationError, match="profile"):
            self._load_with_config(tmp_path, profile=profile)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 0.0])
    def test_config_duration_must_be_finite_and_positive(self, tmp_path, duration):
        with pytest.raises(ConfigurationError, match="duration"):
            self._load_with_config(tmp_path, duration=duration)

    def test_config_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="n_proposer"):
            self._load_with_config(tmp_path, n_proposer=2)


class TestCli:
    def test_fuzz_main_clean_sweep_exits_zero(self, tmp_path, capsys):
        code = fuzz_main(["--runs", "2", "--seed", "7", "--out", str(tmp_path / "f")])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 runs, 0 failures" in out
        assert not (tmp_path / "f").exists()  # no failure dir on success

    def test_fuzz_main_writes_minimized_failure(self, tmp_path, capsys, monkeypatch):
        schedule = Schedule([ScheduleStep(0.1, "crash", target="learner:0"),
                             ScheduleStep(0.2, "crash", target="learner:1")])
        essential = [schedule.steps[0]]

        def fake(seed, config=None, schedule=schedule, grace=6.0, duration=None,
                 profile="default"):
            failing = all(s in schedule.steps for s in essential)
            return CaseResult(seed=seed, config=config or CaseConfig(), schedule=schedule,
                              ok=not failing, oracle="agreement" if failing else None,
                              message="[agreement] stub" if failing else None)

        monkeypatch.setattr(driver_mod, "run_case", fake)
        code = fuzz_main(["--runs", "1", "--seed", "3", "--out", str(tmp_path / "f")])
        assert code == 1
        saved = json.loads((tmp_path / "f" / "seed3.json").read_text())
        assert saved["oracle"] == "agreement"
        assert saved["shrunk_steps"] == 1
        seed, _, shrunk = load_failure(tmp_path / "f" / "seed3.json")
        assert seed == 3
        assert shrunk.steps == essential

    def test_replay_of_recovered_schedule_exits_zero(self, tmp_path, capsys):
        result = run_case(7)
        assert result.ok
        payload = failure_to_dict(
            CaseResult(seed=7, config=result.config, schedule=result.schedule,
                       ok=False, oracle="agreement", message="stale"))
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(payload))
        assert fuzz_main(["--replay", str(path)]) == 0
        assert "no longer fails" in capsys.readouterr().out

    def test_repro_cli_dispatches_fuzz(self, tmp_path, capsys):
        code = main(["fuzz", "--runs", "1", "--seed", "7",
                     "--out", str(tmp_path / "f")])
        assert code == 0
        assert "1 runs, 0 failures" in capsys.readouterr().out

    def test_existing_cli_still_works(self, capsys):
        assert main(["list"]) == 0
        capsys.readouterr()


class TestOverloadProfile:
    def test_overload_config_draws_population(self):
        for seed in range(10):
            config = draw_config(random.Random(seed), profile="overload")
            assert config.profile == "overload"
            assert config.population_sessions > 0
            assert config.population_rate > 0
            assert config.admission_inflight > 0
            assert config.n_groups >= 2
            assert config.replicas == config.n_groups - 1

    def test_overload_config_round_trips(self):
        config = draw_config(random.Random(3), profile="overload")
        assert CaseConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(config)))) == config

    def test_overload_schedule_targets_service_side_roles(self):
        from repro.check.generator import Topology, generate_schedule

        topo = Topology(
            crash_targets=("coordinator:0", "coordinator:1", "acceptor:0:0",
                           "learner:0", "proposer:0", "proposer:1", "proposer:2"),
            nodes=("a", "b", "c"),
        )
        for seed in range(20):
            schedule = generate_schedule(
                random.Random(seed), topo, 1.5, profile="overload"
            )
            crashed = [s.target for s in schedule.steps if s.action == "crash"]
            assert crashed  # always at least one outage
            # Only coordinators and the last two proposers (the population
            # gateways) are targeted — never acceptors, learners, or the
            # base-workload proposer.
            assert all(
                t in ("coordinator:0", "coordinator:1", "proposer:1", "proposer:2")
                for t in crashed
            )
            restarted = [s.target for s in schedule.steps if s.action == "restart"]
            assert sorted(restarted) == sorted(crashed)

    def test_overload_case_runs_clean_and_checks_admission_events(self):
        result = run_case(0, profile="overload", duration=1.0)
        assert result.ok
        assert result.config.population_sessions > 0
        assert result.events_checked > 0
