"""Oracle test for ``Problem.normalized``.

``reference_normalized`` is the straightforward normalizer the memoized
one replaced: it gcd-reduces every row, negates every inequality to find
its opposite and re-sorts every key.  On generated problems the memoized
normalizer must return the same constraints, in the same order (down to
the term order inside each row, which breaks ties in equality
elimination), with the same status.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.omega import LinearExpr, Problem, Variable
from repro.omega.constraints import Constraint, NormalizeStatus, Relation

VARIABLES = (
    Variable("x"),
    Variable("y"),
    Variable("z"),
    Variable("n", "sym"),
    Variable("_w", "wild"),
)


def reference_normalized(problem: Problem) -> tuple[Problem, NormalizeStatus]:
    ineqs: dict[tuple, int] = {}  # normal key -> tightest constant
    ineq_exprs: dict[tuple, LinearExpr] = {}
    eqs: dict[tuple, int] = {}
    eq_exprs: dict[tuple, LinearExpr] = {}

    for constraint in problem.constraints:
        expr = constraint.expr
        g = expr.coefficients_gcd()
        if g == 0:  # constant constraint
            if constraint.is_equality:
                if expr.constant != 0:
                    return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
            else:
                if expr.constant < 0:
                    return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
            continue
        if constraint.is_equality:
            if expr.constant % g:
                return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
            reduced = expr.exact_div(g)
            first = min(reduced.terms.items(), key=lambda it: (it[0].kind, it[0].name))
            if first[1] < 0:
                reduced = -reduced
            key = reduced.key()
            if key in eqs:
                if eqs[key] != reduced.constant:
                    return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
            else:
                eqs[key] = reduced.constant
                eq_exprs[key] = reduced
        else:
            if g > 1:
                reduced = expr.scale_and_floor(g)
            else:
                reduced = expr
            key = reduced.key()
            if key in ineqs:
                if reduced.constant < ineqs[key]:
                    ineqs[key] = reduced.constant
                    ineq_exprs[key] = reduced
            else:
                ineqs[key] = reduced.constant
                ineq_exprs[key] = reduced

    result = Problem(name=problem.name)
    consumed: set[tuple] = set()
    for key, constant in ineqs.items():
        if key in consumed:
            continue
        expr = ineq_exprs[key]
        neg_key = (-expr).key()
        if neg_key in ineqs and neg_key not in consumed:
            other_constant = ineqs[neg_key]
            if -constant > other_constant:
                return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
            if -constant == other_constant:
                consumed.add(key)
                consumed.add(neg_key)
                eq_expr = expr
                first = min(
                    eq_expr.terms.items(), key=lambda it: (it[0].kind, it[0].name)
                )
                if first[1] < 0:
                    eq_expr = -eq_expr
                ekey = eq_expr.key()
                if ekey in eqs and eqs[ekey] != eq_expr.constant:
                    return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
                eqs[ekey] = eq_expr.constant
                eq_exprs[ekey] = eq_expr

    for key, expr in eq_exprs.items():
        result.add(Constraint(expr, Relation.EQ))
    for key, expr in ineq_exprs.items():
        if key in consumed:
            continue
        if key in eqs:
            if eqs[key] > expr.constant:
                return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
            continue
        neg_key = (-expr).key()
        if neg_key in eqs:
            if eqs[neg_key] + expr.constant < 0:
                return Problem(name=problem.name), NormalizeStatus.UNSATISFIABLE
            continue
        result.add(Constraint(expr, Relation.GE))

    if not result.constraints:
        return result, NormalizeStatus.TAUTOLOGY
    return result, NormalizeStatus.NORMALIZED


# -- generated problems --------------------------------------------------------

coefficients = st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])

base_expressions = st.builds(
    lambda chosen, coeffs, constant: LinearExpr(
        {v: c for v, c in zip(chosen, coeffs)}, constant
    ),
    st.lists(st.sampled_from(VARIABLES), min_size=0, max_size=3, unique=True),
    st.lists(coefficients, min_size=3, max_size=3),
    st.integers(-7, 7),
)

# How one row is derived from a base expression: the very same object, or
# ``sign * scale * base + shift`` (sign -1 reaches the row as ``-e``; shift
# 0 makes an opposite pair tight, > 0 loose, < 0 conflicting).
row_recipes = st.tuples(
    st.integers(0, 3),  # base index
    st.sampled_from([Relation.GE, Relation.GE, Relation.EQ]),
    st.booleans(),  # reuse the base object itself
    st.sampled_from([1, -1]),  # sign
    st.sampled_from([1, 1, 2, 3]),  # scale (gcd > 1)
    st.integers(-2, 2),  # constant shift
)


@st.composite
def problems(draw) -> Problem:
    bases = draw(st.lists(base_expressions, min_size=1, max_size=4))
    recipes = draw(st.lists(row_recipes, min_size=0, max_size=9))
    problem = Problem(name="p")
    for index, relation, reuse, sign, scale, shift in recipes:
        base = bases[index % len(bases)]
        expr = base if reuse else base * (sign * scale) + shift
        problem.add(Constraint(expr, relation))
    return problem


def _rows(problem: Problem) -> list:
    """Constraints with each row's term order spelled out."""

    return [
        (c.relation, list(c.expr.terms.items()), c.expr.constant)
        for c in problem.constraints
    ]


def _assert_matches_reference(problem: Problem) -> None:
    expected, expected_status = reference_normalized(problem)
    got, status = problem.normalized()
    assert status is expected_status
    assert got.constraints == expected.constraints
    assert _rows(got) == _rows(expected)
    assert got.name == expected.name

    # Warm memos change nothing.
    again, again_status = problem.normalized()
    assert again_status is status and _rows(again) == _rows(got)

    # Idempotence: a normalized problem is its own normal form.
    if status is not NormalizeStatus.UNSATISFIABLE:
        twice, twice_status = got.normalized()
        assert twice_status is status
        assert _rows(twice) == _rows(got)


@settings(max_examples=400, deadline=None)
@given(problems())
def test_normalized_matches_reference(problem):
    _assert_matches_reference(problem)


x, y, n = VARIABLES[0], VARIABLES[1], VARIABLES[3]


@pytest.mark.parametrize(
    "rows, status",
    [
        # gcd > 1: 2x + 2y + 3 >= 0 tightens to x + y + 1 >= 0.
        ([(2 * x + 2 * y + 3, Relation.GE)], NormalizeStatus.NORMALIZED),
        # an equality whose constant the gcd does not divide
        ([(2 * x + 4 * y + 1, Relation.EQ)], NormalizeStatus.UNSATISFIABLE),
        # a tight opposite pair merges into an equality
        (
            [(x - y + 3, Relation.GE), (y - x - 3, Relation.GE)],
            NormalizeStatus.NORMALIZED,
        ),
        # a conflicting opposite pair
        ([(x - 4, Relation.GE), (3 - x, Relation.GE)], NormalizeStatus.UNSATISFIABLE),
        # a loose opposite pair stays two inequalities
        ([(x - 2, Relation.GE), (5 - x, Relation.GE)], NormalizeStatus.NORMALIZED),
        # constant rows
        ([(LinearExpr({}, -1), Relation.GE)], NormalizeStatus.UNSATISFIABLE),
        ([(LinearExpr({}, 0), Relation.EQ)], NormalizeStatus.TAUTOLOGY),
        # an equality implies an inequality reached through -e
        (
            [(n - x, Relation.EQ), (2 * x - 2 * n + 1, Relation.GE)],
            NormalizeStatus.NORMALIZED,
        ),
    ],
)
def test_hand_picked_cases(rows, status):
    problem = Problem(Constraint(expr, relation) for expr, relation in rows)
    _assert_matches_reference(problem)
    assert problem.normalized()[1] is status


def test_one_expression_as_equality_and_inequality():
    e = 3 * x - 3 * n + 6
    for relations in (
        (Relation.EQ, Relation.GE),
        (Relation.GE, Relation.EQ),
        (Relation.GE, Relation.GE, Relation.EQ),
    ):
        problem = Problem(Constraint(e, relation) for relation in relations)
        problem.add(Constraint(-e, Relation.GE))
        _assert_matches_reference(problem)


def test_normalized_builds_no_negated_rows(monkeypatch):
    problem = Problem(
        [
            Constraint(x - y + 3, Relation.GE),
            Constraint(y - x - 3, Relation.GE),
            Constraint(2 * n - 2 * x, Relation.EQ),
            Constraint(x - n + 4, Relation.GE),
            Constraint(-2 * y + 5, Relation.GE),
        ]
    )
    expected = reference_normalized(problem)

    def forbidden(self):
        raise AssertionError("normalized() negated an expression")

    monkeypatch.setattr(LinearExpr, "__neg__", forbidden)
    got, status = problem.normalized()
    assert status is expected[1]
    assert got.constraints == expected[0].constraints


# -- equality elimination: incremental re-normalization ------------------------


def _whole_problem_renormalize(current, rows, keys):
    """Reference for ``eliminate._renormalize``: normalize every row again."""

    return Problem([row for row in rows if row is not None], current.name).normalized()


def _elimination_view(outcome) -> tuple:
    """An elimination outcome with minted wildcards named by first use."""

    names: dict[str, str] = {}

    def name(var):
        if var.is_wildcard and var.name.startswith(("_sigma", "_stride")):
            return names.setdefault(var.name, f"w{len(names)}")
        return var.name

    def expr(e):
        return ([(name(v), c) for v, c in e.terms.items()], e.constant)

    substitutions = [(name(v), expr(e)) for v, e in outcome.substitutions]
    rows = [(c.relation, expr(c.expr)) for c in outcome.problem.constraints]
    return outcome.satisfiable, substitutions, rows


# Rows over few variables with small coefficients, so that substituting an
# equality often makes rows meet: duplicates, opposite pairs, implied rows.
small_rows = st.tuples(
    st.dictionaries(
        st.sampled_from(VARIABLES[:3] + VARIABLES[4:]),
        st.sampled_from([-2, -1, 1, 1, 2]),
        min_size=1,
        max_size=2,
    ),
    st.integers(-3, 3),
    st.sampled_from([Relation.GE, Relation.GE, Relation.EQ]),
)


@st.composite
def elimination_problems(draw) -> Problem:
    rows = draw(st.lists(small_rows, min_size=2, max_size=12))
    return Problem(
        (Constraint(LinearExpr(terms, c), rel) for terms, c, rel in rows), "p"
    )


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(problems(), elimination_problems()),
    st.sets(st.sampled_from(VARIABLES[:4]), max_size=2),
)
def test_eliminate_equalities_matches_whole_problem_renormalization(
    problem, protected
):
    from repro.omega import eliminate

    protected = frozenset(protected)
    got = eliminate.eliminate_equalities(problem, protected)
    incremental = eliminate._renormalize
    eliminate._renormalize = _whole_problem_renormalize
    try:
        expected = eliminate.eliminate_equalities(problem, protected)
    finally:
        eliminate._renormalize = incremental
    assert _elimination_view(got) == _elimination_view(expected)
