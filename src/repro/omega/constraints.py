"""Constraints and conjunctive constraint systems (``Problem``).

A :class:`Problem` is the Omega test's unit of work: a conjunction of linear
equalities (``expr = 0``) and inequalities (``expr >= 0``) over integer
variables.  Everything else in the library — projections, gists, Presburger
formulas, dependence problems — is built from Problems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..obs.trace import active as _tracing
from ..obs.trace import span as _span
from .errors import OmegaError
from .terms import FALSE_ROW, TRUE_ROW, LinearExpr, Variable

__all__ = [
    "Relation",
    "Constraint",
    "Problem",
    "NormalizeStatus",
    "CanonicalProblem",
    "JointCanonical",
    "canonicalize_problems",
    "ge",
    "le",
    "eq",
]


class Relation(enum.Enum):
    """The relation of an affine expression against zero."""

    EQ = "="
    GE = ">="


_EQ = Relation.EQ
_GE = Relation.GE


@dataclass(frozen=True)
class Constraint:
    """A single linear constraint: ``expr = 0`` or ``expr >= 0``."""

    expr: LinearExpr
    relation: Relation

    @property
    def is_equality(self) -> bool:
        return self.relation is Relation.EQ

    def variables(self) -> frozenset[Variable]:
        return self.expr.variables()

    def coeff(self, var: Variable) -> int:
        return self.expr.coeff(var)

    def negated(self) -> "Constraint":
        """Negate an inequality over the integers.

        ``not (e >= 0)`` is ``e <= -1`` i.e. ``-e - 1 >= 0``.  Equalities do
        not have a single-constraint negation (it is a disjunction); callers
        that need it should split into the two inequalities first.
        """

        if self.is_equality:
            raise OmegaError("negation of an equality is a disjunction")
        return Constraint(-self.expr - 1, Relation.GE)

    def as_inequalities(self) -> tuple["Constraint", ...]:
        """An equality as the pair ``e >= 0 and -e >= 0``; a GE unchanged."""

        if self.is_equality:
            return (
                Constraint(self.expr, Relation.GE),
                Constraint(-self.expr, Relation.GE),
            )
        return (self,)

    def substitute(self, var: Variable, replacement: LinearExpr) -> "Constraint":
        """This constraint with ``var`` replaced; ``self`` if ``var`` is absent."""

        expr = self.expr.substitute(var, replacement)
        return self if expr is self.expr else Constraint(expr, self.relation)

    def normal(self) -> "LinearExpr | object":
        """The memoized normal row of this constraint: its expression's
        :meth:`~LinearExpr.eq_normal` or :meth:`~LinearExpr.ge_normal`."""

        if self.relation is _EQ:
            return self.expr.eq_normal()
        return self.expr.ge_normal()

    def is_satisfied_by(self, assignment: Mapping[Variable, int]) -> bool:
        value = self.expr.evaluate(assignment)
        return value == 0 if self.is_equality else value >= 0

    def sort_key(self) -> tuple:
        """A deterministic total order over constraints, used for display.

        Equalities sort before inequalities; within a relation, constraints
        order by their (kind, name, coefficient) term tuples and then the
        constant, so a conjunction prints the same way no matter what order
        its constraints were added or discovered in.
        """

        terms = tuple(
            sorted(
                (v.kind, v.name, coeff) for v, coeff in self.expr.terms.items()
            )
        )
        return (0 if self.is_equality else 1, terms, self.expr.constant)

    def __str__(self) -> str:
        return f"{self.expr} {self.relation.value} 0"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constraint({self})"


def ge(expr: LinearExpr | Variable | int) -> Constraint:
    """``expr >= 0``."""

    return Constraint(LinearExpr._coerce(expr), Relation.GE)


def le(lhs: LinearExpr | Variable | int, rhs: LinearExpr | Variable | int) -> Constraint:
    """``lhs <= rhs``."""

    return Constraint(LinearExpr._coerce(rhs) - LinearExpr._coerce(lhs), Relation.GE)


def eq(lhs: LinearExpr | Variable | int, rhs: LinearExpr | Variable | int = 0) -> Constraint:
    """``lhs = rhs``."""

    return Constraint(LinearExpr._coerce(lhs) - LinearExpr._coerce(rhs), Relation.EQ)


def negation_clauses(constraint: Constraint) -> list[list[Constraint]]:
    """The integer negation of a constraint, as a union of conjunctions.

    * ``not (e >= 0)`` is the single clause ``[-e - 1 >= 0]``.
    * ``not (e = 0)`` is two clauses: ``[e - 1 >= 0]`` or ``[-e - 1 >= 0]``.
    * A *stride* equality ``b*w + r = 0`` with lone wildcard ``w`` means
      ``r == 0 (mod b)``; its negation is ``r == j (mod b)`` for
      ``j = 1 .. b-1``, each rendered with a fresh wildcard:
      ``b*w' + r - j = 0``.

    Constraints containing wildcards in any other configuration cannot be
    negated clause-wise (the wildcard scopes over the whole conjunction);
    :class:`~repro.omega.errors.OmegaError` is raised for those.
    """

    from .errors import OmegaError
    from .terms import fresh_wildcard

    wilds = [v for v in constraint.variables() if v.is_wildcard]
    if not wilds:
        if constraint.is_equality:
            lo, hi = constraint.as_inequalities()
            return [[lo.negated()], [hi.negated()]]
        return [[constraint.negated()]]
    if (
        constraint.is_equality
        and len(wilds) == 1
        and abs(constraint.coeff(wilds[0])) >= 2
    ):
        w = wilds[0]
        b = abs(constraint.coeff(w))
        clauses: list[list[Constraint]] = []
        for j in range(1, b):
            fresh = fresh_wildcard("neg")
            shifted = constraint.expr.substitute(w, LinearExpr({fresh: 1})) - j
            clauses.append([Constraint(shifted, Relation.EQ)])
        return clauses
    raise OmegaError(
        f"cannot negate constraint with embedded wildcard: {constraint}"
    )


class NormalizeStatus(enum.Enum):
    """Outcome of normalizing a problem."""

    NORMALIZED = "normalized"
    UNSATISFIABLE = "unsatisfiable"
    TAUTOLOGY = "tautology"  # no constraints remain


class Problem:
    """A conjunction of linear constraints over integer variables.

    Problems are lightweight mutable containers; the elimination algorithms
    copy them freely.  An empty Problem is the constraint ``True``.
    """

    __slots__ = ("constraints", "name")

    def __init__(self, constraints: Iterable[Constraint] = (), name: str = ""):
        self.constraints: list[Constraint] = list(constraints)
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "Problem":
        return Problem(self.constraints, self.name)

    def add(self, constraint: Constraint) -> "Problem":
        self.constraints.append(constraint)
        return self

    def add_ge(self, expr: LinearExpr | Variable | int) -> "Problem":
        return self.add(ge(expr))

    def add_le(self, lhs, rhs) -> "Problem":
        return self.add(le(lhs, rhs))

    def add_eq(self, lhs, rhs=0) -> "Problem":
        return self.add(eq(lhs, rhs))

    def add_bounds(self, lo, expr, hi) -> "Problem":
        """``lo <= expr <= hi``."""

        self.add_le(lo, expr)
        self.add_le(expr, hi)
        return self

    def conjoin(self, *others: "Problem") -> "Problem":
        """A new Problem that is the conjunction of this one and ``others``."""

        merged = self.copy()
        for other in others:
            merged.constraints.extend(other.constraints)
        return merged

    def extend(self, constraints: Iterable[Constraint]) -> "Problem":
        self.constraints.extend(constraints)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for constraint in self.constraints:
            result.update(constraint.variables())
        return frozenset(result)

    def equalities(self) -> list[Constraint]:
        return [c for c in self.constraints if c.is_equality]

    def inequalities(self) -> list[Constraint]:
        return [c for c in self.constraints if not c.is_equality]

    def is_trivially_true(self) -> bool:
        return not self.constraints

    def bounds_on(self, var: Variable) -> tuple[list[Constraint], list[Constraint]]:
        """Constraints acting as (lower bounds, upper bounds) on ``var``.

        A constraint with positive coefficient on ``var`` bounds it from
        below; negative, from above.  Equalities are not included.
        """

        lowers: list[Constraint] = []
        uppers: list[Constraint] = []
        for constraint in self.constraints:
            if constraint.is_equality:
                continue
            coeff = constraint.coeff(var)
            if coeff > 0:
                lowers.append(constraint)
            elif coeff < 0:
                uppers.append(constraint)
        return lowers, uppers

    def is_satisfied_by(self, assignment: Mapping[Variable, int]) -> bool:
        return all(c.is_satisfied_by(assignment) for c in self.constraints)

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def normalized(self) -> tuple["Problem", NormalizeStatus]:
        """Return an equivalent normalized problem and a status.

        Normalization performs, per the original Omega test description:

        * constant-constraint evaluation (``0 >= -3`` drops, ``0 >= 3`` is
          unsatisfiable),
        * GCD reduction of every constraint — an equality whose constant is
          not divisible by the coefficient gcd is unsatisfiable; an
          inequality's constant is tightened by floor division,
        * canonical signs for equalities (first coefficient positive),
        * de-duplication: identical inequality normals keep only the
          tightest constant; a matched pair of opposite inequalities
          becomes an equality; conflicting bounds or equalities are
          detected as unsatisfiable.
        """

        if _tracing():
            with _span("omega.normalize"):
                return self._normalize()
        return self._normalize()

    def _normalize(self) -> tuple["Problem", NormalizeStatus]:
        # Each row's normal, key and flipped key are memoized on its
        # expression (see LinearExpr.eq_normal/ge_normal), so this is dict
        # work only.  A row that is already normal keeps its Constraint.
        unsat = NormalizeStatus.UNSATISFIABLE
        eqs: dict[tuple, Constraint] = {}  # normal key -> equality
        ineqs: dict[tuple, Constraint] = {}  # normal key -> tightest inequality
        for constraint in self.constraints:
            expr = constraint.expr
            if constraint.relation is _EQ:
                row = expr.eq_normal()
                if row is TRUE_ROW:
                    continue
                if row is FALSE_ROW:
                    return Problem(name=self.name), unsat
                if row is not expr:
                    constraint = Constraint(row, _EQ)
                key = row.key()
                seen = eqs.get(key)
                if seen is None:
                    eqs[key] = constraint
                elif seen.expr.constant != row.constant:
                    return Problem(name=self.name), unsat
            else:
                row = expr.ge_normal()
                if row is TRUE_ROW:
                    continue
                if row is FALSE_ROW:
                    return Problem(name=self.name), unsat
                if row is not expr:
                    constraint = Constraint(row, _GE)
                # Same normal: a smaller constant is a tighter constraint.
                key = row.key()
                seen = ineqs.get(key)
                if seen is None or row.constant < seen.expr.constant:
                    ineqs[key] = constraint

        # Opposite inequality pairs: a.x + c1 >= 0 and -a.x + c2 >= 0 mean
        # -c1 <= a.x <= c2, inconsistent when -c1 > c2, an equality when
        # -c1 == c2.
        consumed: set[tuple] = set()
        for key, constraint in ineqs.items():
            if key in consumed:
                continue
            row = constraint.expr
            other = ineqs.get(row.flipped_key())
            if other is None:
                continue
            if -row.constant > other.expr.constant:
                return Problem(name=self.name), unsat
            if -row.constant == other.expr.constant:
                consumed.add(key)
                consumed.add(row.flipped_key())
                # a.x = -c1 as an equality with canonical sign.
                eq_row = row.eq_normal()
                ekey = eq_row.key()
                seen = eqs.get(ekey)
                if seen is None:
                    eqs[ekey] = Constraint(eq_row, _EQ)
                elif seen.expr.constant != eq_row.constant:
                    return Problem(name=self.name), unsat

        result = Problem(eqs.values(), self.name)
        out = result.constraints
        if not eqs:  # nothing to imply or merge into
            out.extend(ineqs.values())
            ineqs = {}
        for key, constraint in ineqs.items():
            if key in consumed:
                continue
            row = constraint.expr
            # An inequality implied by an equality with the same normal drops.
            # The equality a.x + k = 0 says a.x = -k; the inequality
            # a.x + c >= 0 says a.x >= -c, implied when k <= c.
            seen = eqs.get(key)
            if seen is not None:
                if seen.expr.constant > row.constant:
                    return Problem(name=self.name), unsat
                continue
            seen = eqs.get(row.flipped_key())
            if seen is not None:
                # equality: -a.x + k = 0 => a.x = k; inequality a.x >= -c
                # holds iff k >= -c i.e. k + c >= 0.
                if seen.expr.constant + row.constant < 0:
                    return Problem(name=self.name), unsat
                continue
            out.append(constraint)

        if not out:
            return result, NormalizeStatus.TAUTOLOGY
        return result, NormalizeStatus.NORMALIZED

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def sorted_constraints(self) -> list[Constraint]:
        """The constraints in the display total order (see
        :meth:`Constraint.sort_key`); insertion order does not leak into
        printed or serialized output."""

        return sorted(self.constraints, key=Constraint.sort_key)

    def __str__(self) -> str:
        if not self.constraints:
            return "TRUE"
        return " and ".join(str(c) for c in self.sorted_constraints())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<Problem{label}: {self}>"

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def canonical(self) -> "CanonicalProblem":
        """The canonical, hashable form of this conjunction.

        Two problems share a canonical form exactly when their normalized
        constraint systems are identical up to a kind-preserving renaming
        of variables: constraints are GCD-normalized and deduplicated (via
        :meth:`normalized`), variables are renamed positionally by a
        structural signature (alpha-equivalence), and constraints are
        sorted under a total order.  The result carries the renaming in
        both directions so solver caches can translate stored answers back
        into a caller's variable space.

        >>> from repro.omega.terms import Variable
        >>> x, y = Variable("x"), Variable("y")
        >>> a = Problem().add_ge(2 * x - 4).add_le(x, 9)
        >>> b = Problem().add_le(y, 9).add_ge(y - 2)   # scaled + renamed
        >>> a.canonical() == b.canonical()
        True
        >>> hash(a.canonical()) == hash(b.canonical())
        True
        """

        return canonicalize_problems([self]).narrow(0)


#: Key marking a problem whose normalization proved it unsatisfiable.
_UNSAT_KEY: tuple = ("UNSAT",)


def _stand_ins(indices: dict[Variable, int]) -> dict[Variable, Variable]:
    """Each variable's canonical stand-in ``__c{index}`` (kind preserved)."""

    return {
        var: Variable(f"__c{position}", var.kind)
        for var, position in indices.items()
    }


class JointCanonical:
    """Canonical form of one or more problems over a shared variable order.

    Produced by :func:`canonicalize_problems`; ``keys[i]`` is the canonical
    key of the i-th problem, and ``key`` combines them all (plus the shared
    variable-kind vector) into a single hashable value.  ``rename`` maps
    every original variable to its canonical stand-in ``__c{index}`` (kind
    preserved), built on first use; ``indices`` gives the bare positional
    index.
    """

    __slots__ = ("keys", "kinds", "indices", "statuses", "key", "_rename")

    def __init__(
        self,
        keys: tuple[tuple, ...],
        kinds: tuple[str, ...],
        indices: dict[Variable, int],
        statuses: tuple["NormalizeStatus", ...],
    ):
        self.keys = keys
        self.kinds = kinds
        self.indices = indices
        self.statuses = statuses
        self.key = (keys, kinds)
        self._rename: dict[Variable, Variable] | None = None

    @property
    def rename(self) -> dict[Variable, Variable]:
        if self._rename is None:
            self._rename = _stand_ins(self.indices)
        return self._rename

    def inverse(self) -> dict[Variable, Variable]:
        """The canonical-to-original variable mapping."""

        return {canon: orig for orig, canon in self.rename.items()}

    def narrow(self, index: int) -> "CanonicalProblem":
        """A single-problem :class:`CanonicalProblem` view of one group."""

        return CanonicalProblem(
            (self.keys[index], self.kinds),
            self.indices,
            self.statuses[index],
        )


class CanonicalProblem:
    """The canonical form of a single :class:`Problem`.

    Structural ``__eq__``/``__hash__`` compare only the canonical ``key``:
    alpha-equivalent problems (and problems whose constraints normalize to
    the same system) collide.  The original-to-canonical variable renaming
    (``rename``, built on first use) serves cache result translation.
    """

    __slots__ = ("key", "indices", "status", "_rename")

    def __init__(
        self,
        key: tuple,
        indices: dict[Variable, int],
        status: "NormalizeStatus",
    ):
        self.key = key
        self.indices = indices
        self.status = status
        self._rename: dict[Variable, Variable] | None = None

    @property
    def rename(self) -> dict[Variable, Variable]:
        if self._rename is None:
            self._rename = _stand_ins(self.indices)
        return self._rename

    @property
    def is_unsatisfiable(self) -> bool:
        return self.status is NormalizeStatus.UNSATISFIABLE

    def inverse(self) -> dict[Variable, Variable]:
        return {canon: orig for orig, canon in self.rename.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalProblem):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CanonicalProblem({self.key!r})"


def canonicalize_problems(problems: Sequence[Problem]) -> JointCanonical:
    """Canonicalize several problems under one shared variable renaming.

    Needed when a cache key spans multiple conjunctions that share
    variables (``gist p given q``, implication against a union): the
    renaming must be computed jointly so that a variable common to two
    groups maps to the same canonical index in both.

    Each problem is normalized first; a problem that normalizes to
    *unsatisfiable* contributes the distinguished ``("UNSAT",)`` key and no
    constraints.  Variable order is decided by a structural signature (the
    multiset of name-free constraint fingerprints each variable occurs in,
    with its coefficients), with name/kind as the final tie-break — so the
    canonical form is invariant under any renaming that the signatures can
    distinguish, which in practice covers the near-identical subproblems
    the dependence analysis re-issues.
    """

    if _tracing():
        with _span("omega.canonicalize"):
            return _canonicalize(problems)
    return _canonicalize(problems)


def _canonicalize(problems: Sequence[Problem]) -> JointCanonical:
    # An unsatisfiable problem normalizes to no rows.
    groups = [problem.normalized() for problem in problems]

    # Each variable's signature: its kind, then the sorted list of the
    # name-free fingerprints of the rows it occurs in (group, relation,
    # constant, the row's memoized coefficient shape), each with the
    # variable's coefficient there.  Variables order by signature, then
    # name; (kind, name) is unique, so the variable itself never decides.
    occurrences: dict[Variable, list[tuple]] = {}
    for tag, (norm, _status) in enumerate(groups):
        for row in norm.constraints:
            expr = row.expr
            fingerprint = (tag, row.relation is _GE, expr.constant, expr.shape())
            for var, coeff in expr.terms.items():
                occurrences.setdefault(var, []).append((fingerprint, coeff))
    decorated = []
    for var, found in occurrences.items():
        found.sort()
        decorated.append((var.kind, found, var.name, var))
    decorated.sort()
    ordered = [entry[-1] for entry in decorated]
    indices = dict(zip(ordered, range(len(ordered))))

    position = indices.__getitem__
    keys: list[tuple] = []
    for norm, status in groups:
        if status is NormalizeStatus.UNSATISFIABLE:
            keys.append(_UNSAT_KEY)
            continue
        entries = []
        for row in norm.constraints:
            terms = row.expr.terms
            entries.append(
                (
                    0 if row.relation is _EQ else 1,
                    tuple(sorted(zip(map(position, terms), terms.values()))),
                    row.expr.constant,
                )
            )
        entries.sort()
        keys.append(tuple(entries))

    return JointCanonical(
        tuple(keys),
        tuple([var.kind for var in ordered]),
        indices,
        tuple([status for _norm, status in groups]),
    )
