"""Variables and affine (linear integer) expressions.

These are the atoms of the Omega test: every constraint handled by the core
engine is an affine expression over integer variables, compared against zero.
Variables come in three kinds:

``var``
    An ordinary quantified variable (e.g. a loop iteration variable copy).
``sym``
    A symbolic constant (the paper's ``Sym`` set): loop-invariant scalar
    values such as ``n`` and ``m``.  Symbolic analysis projects problems onto
    these.
``wild``
    A wildcard (existentially quantified auxiliary) variable introduced
    internally, e.g. the sigma variables created by equality elimination.
    Wildcards are never protected during elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError
from functools import total_ordering
from math import gcd
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Variable",
    "LinearExpr",
    "VarKind",
    "TRUE_ROW",
    "FALSE_ROW",
    "fresh_wildcard",
    "term",
    "const",
]


VarKind = str

_VALID_KINDS = ("var", "sym", "wild")

_wildcard_counter = itertools.count(1)


@total_ordering
class Variable:
    """An integer-valued variable, identified by name and kind.

    Immutable; equality, hashing and ordering go by ``(name, kind)``.  The
    hash is computed once and kept in a slot, because variables are the
    dictionary keys of every expression the solver builds.
    """

    __slots__ = ("name", "kind", "_hash")

    name: str
    kind: VarKind

    def __init__(self, name: str, kind: VarKind = "var") -> None:
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "_hash", hash((name, kind)))

    def __setattr__(self, attr: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return (Variable, (self.name, self.kind))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Variable:
            return NotImplemented
        return self is other or (
            self.name == other.name and self.kind == other.kind
        )

    def __lt__(self, other: "Variable") -> bool:
        if other.__class__ is not Variable:
            return NotImplemented
        return (self.name, self.kind) < (other.name, other.kind)

    @property
    def is_wildcard(self) -> bool:
        return self.kind == "wild"

    @property
    def is_symbolic(self) -> bool:
        return self.kind == "sym"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name

    # Arithmetic sugar: ``x + 1``, ``2 * x - y`` build LinearExpr values.
    def _as_expr(self) -> "LinearExpr":
        return LinearExpr._raw({self: 1}, 0)

    def __add__(self, other: object) -> "LinearExpr":
        return self._as_expr() + other

    __radd__ = __add__

    def __sub__(self, other: object) -> "LinearExpr":
        return self._as_expr() - other

    def __rsub__(self, other: object) -> "LinearExpr":
        return (-self._as_expr()) + other

    def __mul__(self, other: object) -> "LinearExpr":
        return self._as_expr() * other

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpr":
        return -self._as_expr()


def fresh_wildcard(stem: str = "sigma") -> Variable:
    """Return a fresh, globally-unique wildcard variable."""

    return Variable(f"_{stem}{next(_wildcard_counter)}", "wild")


class _Marker:
    """A named sentinel (see :data:`TRUE_ROW`, :data:`FALSE_ROW`)."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return self.label


#: Normal of a constant row that always holds (``0 >= -3``): it drops.
TRUE_ROW = _Marker("TRUE_ROW")
#: Normal of a row that never holds: a false constant row (``0 >= 3``) or
#: an equality whose coefficient gcd does not divide its constant
#: (``2x + 1 = 0``).
FALSE_ROW = _Marker("FALSE_ROW")
#: Memo value meaning "this row is already its own normal".  A sentinel and
#: not a reference to the expression itself, so no reference cycle forms.
_SELF = _Marker("SELF")

_new = object.__new__


class LinearExpr:
    """An immutable affine expression ``sum(coeff * var) + constant``.

    Coefficients and the constant are Python ints (arbitrary precision, which
    matters: Fourier-Motzkin combinations multiply coefficients together).
    Zero-coefficient terms are never stored.

    Because an expression never changes, what the solver derives from it is
    computed at most once and kept in a slot: the hash, the sorted
    :meth:`key`, its sign-flipped twin, the coefficient :meth:`shape` and
    the normal form of the row as an equality and as an inequality.  The
    slots start as ``None`` and fill on first use; concurrent threads may
    both fill one, with equal values.
    """

    __slots__ = ("_terms", "_const", "_hash", "_key", "_flip", "_ge", "_eq", "_shape")

    def __init__(self, terms: Mapping[Variable, int] | None = None, constant: int = 0):
        clean: dict[Variable, int] = {}
        if terms:
            for var, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient for {var} must be int, got {coeff!r}")
                if coeff:
                    clean[var] = coeff
        self._terms = clean
        self._const = int(constant)
        self._hash = self._key = self._flip = None
        self._ge = self._eq = self._shape = None

    @classmethod
    def _raw(cls, terms: dict[Variable, int], constant: int) -> "LinearExpr":
        """The trusted constructor: ``terms`` is a fresh dict of nonzero
        int coefficients that the new expression takes ownership of."""

        expr = _new(cls)
        expr._terms = terms
        expr._const = constant
        expr._hash = expr._key = expr._flip = None
        expr._ge = expr._eq = expr._shape = None
        return expr

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def constant(self) -> int:
        return self._const

    @property
    def terms(self) -> Mapping[Variable, int]:
        return self._terms

    def coeff(self, var: Variable) -> int:
        return self._terms.get(var, 0)

    def variables(self) -> frozenset[Variable]:
        return frozenset(self._terms)

    def is_constant(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Variable, int]]:
        return iter(self._terms.items())

    def coefficients_gcd(self) -> int:
        """gcd of the variable coefficients (0 for a constant expression)."""

        return gcd(*self._terms.values())

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value: object) -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Variable):
            return LinearExpr._raw({value: 1}, 0)
        if isinstance(value, int):
            return LinearExpr._raw({}, int(value))
        raise TypeError(f"cannot interpret {value!r} as a linear expression")

    def _combine(self, rhs: "LinearExpr", factor: int) -> "LinearExpr":
        """``self + factor * rhs`` (``factor`` nonzero)."""

        terms = self._terms.copy()
        for var, coeff in rhs._terms.items():
            merged = terms.get(var, 0) + coeff * factor
            if merged:
                terms[var] = merged
            else:
                del terms[var]
        return LinearExpr._raw(terms, self._const + rhs._const * factor)

    def __add__(self, other: object) -> "LinearExpr":
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other: object) -> "LinearExpr":
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other: object) -> "LinearExpr":
        return self._coerce(other)._combine(self, -1)

    def __neg__(self) -> "LinearExpr":
        return LinearExpr._raw(
            {v: -c for v, c in self._terms.items()}, -self._const
        )

    def __mul__(self, factor: object) -> "LinearExpr":
        if not isinstance(factor, int):
            if isinstance(factor, (LinearExpr, Variable)):
                from .errors import NonlinearConstraintError

                raise NonlinearConstraintError(
                    "products of variables are not affine; abstract the "
                    "non-linear term into a symbolic variable first",
                    term=factor,
                )
            raise TypeError("linear expressions can only be scaled by integers")
        if factor == 0:
            return LinearExpr._raw({}, 0)
        return LinearExpr._raw(
            {v: c * factor for v, c in self._terms.items()}, self._const * factor
        )

    __rmul__ = __mul__

    def scale_and_floor(self, divisor: int) -> "LinearExpr":
        """Divide all coefficients exactly and floor-divide the constant.

        Used when tightening an inequality ``g*a.x + c >= 0`` to
        ``a.x + floor(c/g) >= 0``; the caller guarantees ``divisor`` divides
        every variable coefficient.
        """

        if divisor <= 0:
            raise ValueError("divisor must be positive")
        terms: dict[Variable, int] = {}
        for var, coeff in self._terms.items():
            q, r = divmod(coeff, divisor)
            if r:
                raise ValueError(f"{divisor} does not divide coefficient of {var}")
            terms[var] = q
        return LinearExpr._raw(terms, self._const // divisor)

    def exact_div(self, divisor: int) -> "LinearExpr":
        """Divide coefficients *and* constant exactly."""

        if divisor == 0:
            raise ValueError("division by zero")
        terms: dict[Variable, int] = {}
        for var, coeff in self._terms.items():
            q, r = divmod(coeff, divisor)
            if r:
                raise ValueError(f"{divisor} does not divide coefficient of {var}")
            terms[var] = q
        q, r = divmod(self._const, divisor)
        if r:
            raise ValueError(f"{divisor} does not divide constant {self._const}")
        return LinearExpr._raw(terms, q)

    def drop(self, var: Variable) -> "LinearExpr":
        """This expression without its ``var`` term."""

        if var not in self._terms:
            return self
        terms = self._terms.copy()
        del terms[var]
        return LinearExpr._raw(terms, self._const)

    def substitute(self, var: Variable, replacement: "LinearExpr") -> "LinearExpr":
        """Return this expression with ``var`` replaced by ``replacement``."""

        coeff = self._terms.get(var, 0)
        if not coeff:
            return self
        return self.drop(var)._combine(replacement, coeff)

    def evaluate(self, assignment: Mapping[Variable, int]) -> int:
        """Evaluate under a total assignment for this expression's variables."""

        total = self._const
        for var, coeff in self._terms.items():
            total += coeff * assignment[var]
        return total

    # ------------------------------------------------------------------
    # Normal forms (memoized)
    # ------------------------------------------------------------------
    def ge_normal(self) -> "LinearExpr | _Marker":
        """The normal form of the row ``self >= 0``.

        :data:`TRUE_ROW` or :data:`FALSE_ROW` for a constant row; otherwise
        the row with its coefficients divided by their gcd ``g`` and its
        constant floor-divided by ``g`` (the tightest equivalent integer
        inequality), which is ``self`` when ``g`` is 1.
        """

        normal = self._ge
        if normal is None:
            normal = self._ge = self._reduce(False)
        return self if normal is _SELF else normal

    def eq_normal(self) -> "LinearExpr | _Marker":
        """The normal form of the row ``self = 0``.

        :data:`TRUE_ROW` or :data:`FALSE_ROW` for a constant row, and
        :data:`FALSE_ROW` when the coefficient gcd does not divide the
        constant.  Otherwise the row divided exactly by its gcd, with the
        sign chosen so the first term in (kind, name) order is positive;
        ``self`` when that changes nothing.
        """

        normal = self._eq
        if normal is None:
            normal = self._eq = self._reduce(True)
        return self if normal is _SELF else normal

    def _reduce(self, equality: bool) -> "LinearExpr | _Marker":
        terms = self._terms
        if not terms:
            holds = self._const == 0 if equality else self._const >= 0
            return TRUE_ROW if holds else FALSE_ROW
        g = gcd(*terms.values())
        if equality:
            if self._const % g:
                return FALSE_ROW
            # The sign of the first term in (kind, name) order.
            if min([(v.kind, v.name, c) for v, c in terms.items()])[2] < 0:
                g = -g
        if g == 1:
            return _SELF
        normal = LinearExpr._raw(
            {v: c // g for v, c in terms.items()}, self._const // g
        )
        # A reduced row has coefficient gcd 1, so it is a normal inequality;
        # a reduced equality is sign-canonical as well.
        normal._ge = _SELF
        if equality:
            normal._eq = _SELF
        return normal

    # ------------------------------------------------------------------
    # Identity and display
    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """A hashable key identifying the variable-coefficient part only."""

        key = self._key
        if key is None:
            key = self._key = tuple(
                sorted([(v.name, v.kind, c) for v, c in self._terms.items()])
            )
        return key

    def flipped_key(self) -> tuple:
        """``(-self).key()``, without building ``-self``."""

        flip = self._flip
        if flip is None:
            flip = self._flip = tuple(
                [(name, kind, -c) for name, kind, c in self.key()]
            )
        return flip

    def shape(self) -> tuple:
        """The name-free coefficient multiset: sorted ``(kind, coeff)``."""

        shape = self._shape
        if shape is None:
            shape = self._shape = tuple(
                sorted([(v.kind, c) for v, c in self._terms.items()])
            )
        return shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self._const == other._const and self._terms == other._terms

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.key(), self._const))
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearExpr({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for var, coeff in sorted(
            self._terms.items(), key=lambda item: (item[0].kind, item[0].name)
        ):
            if coeff == 1:
                text = var.name
            elif coeff == -1:
                text = f"-{var.name}"
            else:
                text = f"{coeff}{var.name}"
            if parts and not text.startswith("-"):
                parts.append(f"+{text}")
            else:
                parts.append(text)
        if self._const or not parts:
            if parts and self._const >= 0:
                parts.append(f"+{self._const}")
            else:
                parts.append(str(self._const))
        return "".join(parts)


def term(var: Variable, coeff: int = 1) -> LinearExpr:
    """Convenience constructor for a single-term expression."""

    return LinearExpr({var: coeff}, 0)


def const(value: int) -> LinearExpr:
    """Convenience constructor for a constant expression."""

    return LinearExpr({}, value)


def sum_exprs(exprs: Iterable[LinearExpr]) -> LinearExpr:
    """Sum an iterable of expressions (empty sum is 0)."""

    total = LinearExpr()
    for expr in exprs:
        total = total + expr
    return total
