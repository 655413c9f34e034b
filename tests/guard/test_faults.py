"""The fault-injection harness: determinism, scoping, env parsing."""

import pytest

from repro.guard import BudgetExhausted, checkpoint
from repro.guard.faults import (
    DEFAULT_RATE,
    KINDS,
    FaultPlan,
    current_plan,
    injecting,
    plan_from_env,
    suppressed,
)

SITES = ("omega.sat", "omega.fm", "omega.project", "solver.query")


def run_plan(plan, sites):
    """Drive maybe_fail over ``sites``; the outcome trace is the fixture."""

    outcomes = []
    for site in sites:
        try:
            plan.maybe_fail(site)
        except BudgetExhausted as err:
            outcomes.append(("fail", site, err.budget))
        else:
            outcomes.append(("ok", site))
    return outcomes


class TestDeterminism:
    def test_plans_replay_identically(self):
        sites = list(SITES) * 50
        first = run_plan(FaultPlan(seed=42, rate=0.3), sites)
        second = run_plan(FaultPlan(seed=42, rate=0.3), sites)
        assert first == second
        assert any(outcome[0] == "fail" for outcome in first)

    def test_different_seeds_differ(self):
        sites = list(SITES) * 50
        assert run_plan(FaultPlan(seed=42, rate=0.3), sites) != run_plan(
            FaultPlan(seed=43, rate=0.3), sites
        )

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=1, rate=0.0)
        assert all(
            outcome[0] == "ok" for outcome in run_plan(plan, ["omega.sat"] * 100)
        )
        assert plan.injected == []

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("timeout",))
        outcomes = run_plan(plan, ["omega.sat"] * 20)
        assert all(outcome == ("fail", "omega.sat", "deadline") for outcome in outcomes)
        assert len(plan.injected) == 20


class TestFaultShapes:
    def test_timeout_faults_look_like_blown_deadlines(self):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("timeout",))
        with pytest.raises(BudgetExhausted) as err:
            plan.maybe_fail("omega.fm")
        assert err.value.site == "omega.fm"
        assert err.value.budget == "deadline"

    def test_budget_faults_claim_a_work_meter(self):
        plan = FaultPlan(seed=5, rate=1.0, kinds=("budget",))
        with pytest.raises(BudgetExhausted) as err:
            plan.maybe_fail("omega.fm")
        assert err.value.budget in ("fm_steps", "splinters", "dnf_size")
        assert err.value.site == "omega.fm"

    def test_sites_restriction(self):
        plan = FaultPlan(
            seed=0, rate=1.0, kinds=("timeout",), sites=frozenset({"omega.fm"})
        )
        plan.maybe_fail("omega.sat")
        with pytest.raises(BudgetExhausted):
            plan.maybe_fail("omega.fm")

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(seed=0, kinds=("bogus",))
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(seed=0, rate=1.5)


class TestActivation:
    def test_injection_stack_nests_and_unwinds(self):
        assert current_plan() is None
        plan = FaultPlan(seed=0)
        with injecting(plan) as entered:
            assert entered is plan
            assert current_plan() is plan
            with suppressed():
                assert current_plan() is None
            assert current_plan() is plan
        assert current_plan() is None

    def test_checkpoint_consults_the_active_plan(self):
        plan = FaultPlan(seed=1, rate=1.0, kinds=("timeout",))
        with injecting(plan):
            with pytest.raises(BudgetExhausted) as err:
                checkpoint("omega.sat")
            with suppressed():
                checkpoint("omega.sat")  # masked: no raise
        checkpoint("omega.sat")  # deactivated: no raise
        assert err.value.budget == "deadline"
        assert plan.injected[0][:2] == ("omega.sat", "timeout")


class TestPlanFromEnv:
    def test_unset_or_blank_is_none(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": "   "}) is None

    def test_bare_integer_seed(self):
        plan = plan_from_env({"REPRO_FAULTS": "42"})
        assert plan.seed == 42
        assert plan.rate == DEFAULT_RATE
        assert plan.kinds == KINDS
        assert plan.sites is None

    def test_full_spec(self):
        plan = plan_from_env(
            {
                "REPRO_FAULTS": (
                    "seed=7, rate=0.25, kinds=timeout|budget, "
                    "sites=omega.sat|solver.query"
                )
            }
        )
        assert plan.seed == 7
        assert plan.rate == 0.25
        assert plan.kinds == ("timeout", "budget")
        assert plan.sites == frozenset({"omega.sat", "solver.query"})

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown REPRO_FAULTS field"):
            plan_from_env({"REPRO_FAULTS": "seed=7,frequency=2"})
