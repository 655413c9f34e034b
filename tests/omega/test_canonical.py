"""Equality and hash laws of the canonical constraint form."""

from repro.omega import Problem, Variable, canonicalize_problems
from repro.omega.constraints import NormalizeStatus

x, y, z = Variable("x"), Variable("y"), Variable("z")
n, m = Variable("n", "sym"), Variable("m", "sym")


def test_alpha_equivalent_problems_collide():
    a = Problem().add_bounds(0, x, 10).add_le(x, 7)
    b = Problem().add_bounds(0, y, 10).add_le(y, 7)
    assert a.canonical() == b.canonical()
    assert hash(a.canonical()) == hash(b.canonical())


def test_scaled_constraints_normalize_to_same_form():
    a = Problem().add_ge(2 * x - 4).add_le(x, 9)
    b = Problem().add_ge(x - 2).add_le(x, 9)
    assert a.canonical() == b.canonical()


def test_duplicate_constraints_deduplicate():
    a = Problem().add_ge(x - 1).add_ge(x - 1).add_ge(3 * x - 3)
    b = Problem().add_ge(x - 1)
    assert a.canonical() == b.canonical()


def test_constraint_insertion_order_is_irrelevant():
    a = Problem().add_ge(x - 1).add_le(x, y).add_eq(y - z)
    b = Problem().add_eq(y - z).add_ge(x - 1).add_le(x, y)
    assert a.canonical() == b.canonical()


def test_distinct_problems_do_not_collide():
    a = Problem().add_ge(x)
    b = Problem().add_ge(x - 1)
    assert a.canonical() != b.canonical()
    assert Problem().add_eq(x - 1).canonical() != Problem().add_ge(x - 1).canonical()


def test_variable_kind_is_part_of_the_form():
    over_var = Problem().add_bounds(0, x, 10)
    over_sym = Problem().add_bounds(0, n, 10)
    assert over_var.canonical() != over_sym.canonical()


def test_multi_variable_alpha_equivalence():
    a = Problem().add_le(x + 1, y).add_le(y, 5 * x).add_bounds(0, x, n)
    b = Problem().add_le(z + 1, x).add_le(x, 5 * z).add_bounds(0, z, m)
    assert a.canonical() == b.canonical()


def test_asymmetric_roles_do_not_collide():
    # x and y play different roles; swapping only one bound changes the form.
    a = Problem().add_le(x, y).add_bounds(0, x, 10)
    b = Problem().add_le(x, y).add_bounds(0, y, 10)
    assert a.canonical() != b.canonical()


def test_unsatisfiable_problems_share_the_unsat_form():
    a = Problem().add_ge(x - 1).add_le(x, 0)
    b = Problem().add_ge(y - 5).add_le(y, 2)
    assert a.canonical() == b.canonical()
    assert a.canonical().is_unsatisfiable
    assert a.canonical().status is NormalizeStatus.UNSATISFIABLE


def test_rename_round_trips():
    p = Problem().add_le(x + 1, y).add_bounds(0, x, n)
    canon = p.canonical()
    inverse = canon.inverse()
    assert set(canon.rename) == {x, y, n}
    for original, stand_in in canon.rename.items():
        assert stand_in.kind == original.kind
        assert inverse[stand_in] == original


def test_joint_canonicalization_shares_the_renaming():
    p1 = Problem().add_le(x, y)
    q1 = Problem().add_bounds(0, x, 10)
    p2 = Problem().add_le(z, y)
    q2 = Problem().add_bounds(0, z, 10)
    joint1 = canonicalize_problems([p1, q1])
    joint2 = canonicalize_problems([p2, q2])
    assert joint1.key == joint2.key
    # A variable common to both groups maps to one canonical index.
    assert joint1.rename[x] == joint2.rename[z]


def test_joint_key_distinguishes_group_membership():
    p = Problem().add_ge(x - 1)
    q = Problem().add_le(x, 10)
    assert (
        canonicalize_problems([p, q]).key != canonicalize_problems([q, p]).key
    )


def test_narrow_matches_single_canonicalization():
    p = Problem().add_le(x + 1, y)
    q = Problem().add_bounds(0, x, 10)
    assert canonicalize_problems([p, q]).narrow(0) == p.canonical()


def test_str_is_insertion_order_independent():
    a = Problem().add_ge(x - 1).add_le(x, 9).add_le(y, x)
    b = Problem().add_le(y, x).add_le(x, 9).add_ge(x - 1)
    assert str(a) == str(b)
    assert str(Problem()) == "TRUE"


def test_key_value_is_stable():
    # Persistent stores address entries by a digest of repr(key), so the
    # key's value, not just its equivalence classes, must not drift.
    w = Variable("_w", "wild")
    p = (
        Problem()
        .add_bounds(0, x, n)
        .add_le(x + 1, y)
        .add_eq(2 * w - x - y)
        .add_ge(3 * y - 6)
    )
    q = Problem().add_le(y, n)
    rows = (
        (0, ((1, 1), (2, 1), (3, -2)), 0),
        (1, ((0, 1), (2, -1)), 0),
        (1, ((1, 1),), -2),
        (1, ((1, 1), (2, -1)), -1),
        (1, ((2, 1),), 0),
    )
    kinds = ("sym", "var", "var", "wild")
    assert p.canonical().key == (rows, kinds)
    assert canonicalize_problems([p, q]).key == (
        (rows, ((1, ((0, 1), (1, -1)), 0),)),
        kinds,
    )
