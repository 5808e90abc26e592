"""Deterministic-lane chaos campaigns: the ``cc`` knob routes the
auto-commit queue-shaped transaction class through the plan-queue lane
and adds the ``det.plan.batch.{before,after}`` crash points — the
plan-batch boundaries of
:class:`repro.transaction.deterministic.DeterministicLane` — to the
sampler, while the default (``"2pl"``) keeps existing seeds
byte-identical."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosConfig, run_episode, sample_schedule
from repro.chaos.engine import FAILING_OUTCOMES, OUTCOME_OK
from repro.chaos.schedule import CRASH_POINTS, KIND_CRASH
from repro.transaction.deterministic import DET_PLAN_CRASH_POINTS

#: seeds of the in-suite deterministic-lane acceptance campaign
CAMPAIGN_SEEDS = range(200)
CONFIG = ChaosConfig(cc="deterministic")


def _seeds_arming_det_points(count: int) -> list[int]:
    seeds = []
    for seed in CAMPAIGN_SEEDS:
        points = {
            f.point for f in sample_schedule(seed, CONFIG).faults
            if f.kind == KIND_CRASH
        }
        if points & set(DET_PLAN_CRASH_POINTS):
            seeds.append(seed)
            if len(seeds) == count:
                break
    return seeds


class TestScheduleCompatibility:
    def test_default_config_schedules_are_unchanged(self):
        # The knob must not perturb existing seeds: replay artifacts
        # recorded before it existed stay valid.
        for seed in range(100):
            assert sample_schedule(seed) == sample_schedule(
                seed, ChaosConfig(cc="2pl")
            )

    def test_det_points_bracket_the_plan_batch(self):
        assert set(DET_PLAN_CRASH_POINTS) == {
            f"det.plan.batch.{edge}" for edge in ("before", "after")
        }
        assert not set(DET_PLAN_CRASH_POINTS) & set(CRASH_POINTS)

    def test_campaign_schedules_arm_det_points(self):
        points = set()
        for seed in CAMPAIGN_SEEDS:
            for fault in sample_schedule(seed, CONFIG).faults:
                if fault.kind == KIND_CRASH:
                    points.add(fault.point)
        assert points >= set(DET_PLAN_CRASH_POINTS)

    def test_auto_synonym_is_gone(self):
        # "auto" only ever meant "deterministic"; one name per policy.
        with pytest.raises(ValueError):
            ChaosConfig(cc="auto")


class TestDetPointsActuallyFire:
    def test_points_are_reached_by_a_normal_run(self):
        # Regression guard against schedule entries that never match an
        # instrumented reach() string (the injector matches exactly):
        # a plain committed request must traverse both plan-batch
        # boundaries, because the clerk's auto-commit send is routed
        # through the lane.
        from repro.core.client import UserCheckpoint
        from repro.core.devices import TicketPrinter
        from repro.core.system import TPSystem
        from repro.sim.crash import FaultInjector

        injector = FaultInjector()
        system = TPSystem(injector=injector, cc="deterministic")
        client = system.client(
            "c1", ["a"], TicketPrinter(), receive_timeout=None,
            user_log=UserCheckpoint(),
        )
        server = system.server("s1", lambda txn, req: {"echo": req.body})
        seq = client.resynchronize()
        client.send_only(seq)
        server.process_one()
        reached = {p for p, _hit in injector.schedule()}
        assert reached >= set(DET_PLAN_CRASH_POINTS)


class TestDetDeterminism:
    def test_same_seed_is_identical(self):
        seeds = _seeds_arming_det_points(3)
        assert len(seeds) == 3  # the sampler must arm det points early
        for seed in seeds:
            first = run_episode(seed, CONFIG)
            second = run_episode(seed, CONFIG)
            assert first.outcome == second.outcome
            assert first.fingerprint == second.fingerprint
            assert first.restarts == second.restarts


class TestDetAcceptanceCampaign:
    def test_200_episodes_with_det_lane_zero_violations(self):
        # The deterministic-lane acceptance gate: crashes can land at
        # plan-batch boundaries in any episode, and every exactly-once
        # guarantee still holds.
        outcomes: dict[str, int] = {}
        failing = []
        restarts = 0
        for seed in CAMPAIGN_SEEDS:
            result = run_episode(seed, CONFIG)
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            restarts += result.restarts
            if result.failed:
                failing.append((seed, result.outcome, result.violations))
        assert not failing, f"failing episodes: {failing}"
        assert outcomes.get(OUTCOME_OK, 0) > 100
        assert all(o not in FAILING_OUTCOMES for o in outcomes)
        # The campaign must actually exercise restart recovery.
        assert restarts > 20
