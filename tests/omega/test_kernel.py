"""The Fourier-Motzkin row kernel: exact, ordered, object-sharing.

``combine_shadows`` crosses every lower bound with every upper bound and
emits the real- and dark-shadow constraints in lower-major order, sharing
one constraint object between the two lists on exact pairs.  These tests
check it against an independent sparse reference over random bounds, on
coefficients far beyond machine-word range, and end to end; and that the
command-line and service entry points load no numerical library.
"""

import os
import pathlib
import random
import subprocess
import sys

import repro
from repro.omega import Problem, Variable
from repro.omega.constraints import Constraint, Relation
from repro.omega.kernel import combine_shadows
from repro.omega.terms import LinearExpr

VARS = [Variable(name) for name in ("i", "j", "k", "n")]


def random_bounds(rng, count, magnitude=9):
    """``count`` random (coeff, rest) pairs over a shared variable set."""

    bounds = []
    for _ in range(count):
        coeff = rng.randint(1, magnitude)
        terms = {
            var: rng.randint(-magnitude, magnitude)
            for var in rng.sample(VARS, rng.randint(0, len(VARS)))
        }
        bounds.append((coeff, LinearExpr(terms, rng.randint(-50, 50))))
    return bounds


def sparse_reference(lowers, uppers):
    """The textbook sparse combination, one pair at a time."""

    real, dark = [], []
    for b, lo in lowers:
        for a, up in uppers:
            terms = {}
            for var in set(lo.terms) | set(up.terms):
                coeff = b * up.coeff(var) + a * lo.coeff(var)
                if coeff:
                    terms[var] = coeff
            constant = b * up.constant + a * lo.constant
            real.append(Constraint(LinearExpr(terms, constant), Relation.GE))
            adjust = (a - 1) * (b - 1)
            dark.append(
                Constraint(LinearExpr(terms, constant - adjust), Relation.GE)
            )
    return real, dark


class TestRawCrossProduct:
    def test_matches_the_sparse_reference_on_random_bounds(self):
        rng = random.Random(19920617)
        for _ in range(50):
            lowers = random_bounds(rng, rng.randint(1, 5))
            uppers = random_bounds(rng, rng.randint(1, 5))
            real, dark, exact = combine_shadows(lowers, uppers)
            assert (real, dark) == sparse_reference(lowers, uppers)
            assert exact == all(
                a == 1 or b == 1 for b, _ in lowers for a, _ in uppers
            )

    def test_combine_shadows_exact_on_huge_coefficients(self):
        # Coefficients far beyond machine-word range still combine
        # exactly (python integers are arbitrary precision).
        x = Variable("x")
        big = (1 << 62) * 4
        lowers = [(3, LinearExpr({x: big}, 1))]
        uppers = [(2, LinearExpr({x: -big}, 5))]
        real, dark, exact = combine_shadows(lowers, uppers)
        assert not exact
        (constraint,) = real
        # real = b*up + a*lo with b=3, a=2.
        assert constraint.expr.coeff(x) == 3 * -big + 2 * big
        assert constraint.expr.constant == 3 * 5 + 2 * 1
        (tightened,) = dark
        assert tightened.expr.constant == constraint.expr.constant - 2


class TestCombineShadowsParity:
    def test_exact_pairs_share_the_constraint_object(self):
        x, y = Variable("x"), Variable("y")
        real, dark, exact = combine_shadows(
            [(1, LinearExpr({y: 1}, 0))], [(5, LinearExpr({y: -1}, 9))]
        )
        assert exact
        assert real[0] is dark[0]
        del x


class TestEndToEndParity:
    def test_python_kernel_answers_are_sane(self):
        problem = Problem().add_ge(2 * VARS[0] - 4).add_le(3 * VARS[0], 21)
        from repro.omega.cache import is_satisfiable

        assert is_satisfiable(problem)


class TestNoNumericalLibrary:
    def test_cli_and_serve_imports_do_not_load_numpy(self):
        # A fresh interpreter: the test process itself may have numpy.
        probe = (
            "import sys, repro.cli, repro.serve; "
            "print('numpy' in sys.modules)"
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"
