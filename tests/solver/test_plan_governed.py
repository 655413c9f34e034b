"""PlanSpace under governance: metered reductions, unmemoized exhaustion.

A partial-elimination core is a pure rewrite with no observable answer,
so a reduction that runs out of budget simply yields the unreduced
problem: the probes then answer from the full problem under their own
degradation shields.  Such a core must not be memoized, or a later
(ungoverned or luckier) request would inherit the missed reduction.
"""

import pytest

from repro.guard import Budget, DegradationLog, governed
from repro.omega import BudgetExhausted, partial_eliminate
from repro.solver import PlanSpace

from .test_plan import D, nest_problem


def test_partial_eliminate_lets_budget_exhaustion_through():
    with governed(Budget(fm_steps=0)):
        with pytest.raises(BudgetExhausted):
            partial_eliminate(nest_problem(), [D])


def test_exhausted_reduction_is_unreduced_and_not_memoized():
    space = PlanSpace()
    problem = nest_problem()
    log = DegradationLog()
    with governed(Budget(fm_steps=0), log=log):
        core = space.core(problem, [D])
    assert core.problem is problem
    assert core.eliminated == 0
    assert space._cores == {}
    assert len(log) == 0  # no answer changed, so nothing degraded

    reduced = space.core(problem, [D])
    assert reduced.eliminated > 0
    assert space.core(nest_problem(), [D]) is reduced


def test_reduction_is_metered_as_its_own_query():
    # A meter already at its limit (a previous query's spend) must not be
    # charged for the reduction: the nest needs exactly one FM step.
    space = PlanSpace()
    with governed(Budget(fm_steps=1)) as gov:
        gov.spend("fm_steps", 1, site="test")
        core = space.core(nest_problem(), [D])
    assert core.eliminated > 0


def test_strict_policy_still_yields_the_unreduced_core():
    problem = nest_problem()
    with governed(Budget(fm_steps=0), policy="raise"):
        core = PlanSpace().core(problem, [D])
    assert core.problem is problem
