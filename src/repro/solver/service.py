"""The SolverService: the single path from analysis code to the Omega core.

Every Omega query the analysis layers issue — satisfiability, projection,
gist, implication — goes through one :class:`SolverService`.  The service
is a serial broker: each query runs inline, in submission order, against
the canonical-form memoizing facade (:mod:`repro.omega.cache`) and the
canonical-form LRU the service owns and activates.  Results, cache hits
and spans are bit-identical to calling the omega facade directly.

All policy lives here: the degradation shield (sound conservative answers
for queries that exhaust their budget under the ``degrade`` policy),
per-query budget meters, audit notes and the cache layer (including the
persistent store tier a shared :class:`~repro.omega.cache.SolverCache`
carries).  Batches (:meth:`SolverService.sat_batch`,
:meth:`SolverService.submit_batch`) run their distinct queries once, in
order, and answer duplicates from the first computation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from ..guard import budget as _guard
from ..obs import off as _obs_off
from ..obs.audit import current_audit as _current_audit
from ..obs.instrument import metrics as _metrics
from ..obs.instrument import span as _span
from ..omega.project import Projection
from ..omega import cache as _ocache
from ..omega.cache import Raised, SolverCache
from ..omega.constraints import Problem
from ..omega.errors import BudgetExhausted, OmegaComplexityError
from .queries import SolverQuery, degraded_projection

__all__ = ["SolverService", "current_service"]


def _assume_sat() -> bool:
    """Conservative SAT answer: assume the dependence problem holds."""

    return True


def _not_proven() -> bool:
    """Conservative implication answer: nothing is proven."""

    return False


def gist_call(problem: Problem, given: Problem, options: tuple) -> Problem:
    """``gist`` with its keyword options flattened to a sorted tuple."""

    return _ocache.gist(problem, given, **dict(options))


def union_call(problem: Problem, pieces: tuple, options: tuple) -> bool:
    """``implies_union`` with options flattened to a sorted tuple."""

    return _ocache.implies_union(problem, list(pieces), **dict(options))


class _ActiveServices(threading.local):
    def __init__(self) -> None:
        self.stack: list["SolverService"] = []


_active = _ActiveServices()


def current_service() -> "SolverService | None":
    """The innermost active service on this thread, or None."""

    stack = _active.stack
    return stack[-1] if stack else None


class SolverService:
    """Serial, batching, deduplicating Omega query broker."""

    def __init__(
        self,
        *,
        cache: bool = True,
        cache_size: int | None = None,
        shared_cache: SolverCache | None = None,
    ):
        #: The canonical-form LRU (caching only); the service activates it
        #: so the omega entry points see it.
        self.cache: SolverCache | None = None
        if cache:
            self.cache = (
                shared_cache if shared_cache is not None else SolverCache(cache_size)
            )
        self.queries = 0
        self.batches = 0
        self.batch_dedup = 0
        self.degraded = 0

    # -- construction / lifecycle --------------------------------------
    @classmethod
    def for_options(
        cls, *, cache: bool = True, cache_size: int | None = None
    ) -> "SolverService":
        """Build a service for analysis options.

        Caching services adopt an enclosing ``caching(...)`` scope's cache
        when one is active on this thread, preserving the engine's
        historical cache-sharing behavior across programs.
        """

        shared = _ocache.current_cache() if cache else None
        return cls(cache=cache, cache_size=cache_size, shared_cache=shared)

    @contextmanager
    def activate(self) -> Iterator["SolverService"]:
        """Make this service (and its cache layer) current on this thread."""

        _active.stack.append(self)
        try:
            if self.cache is not None:
                with _ocache.caching(self.cache):
                    yield self
            else:
                yield self
        finally:
            _active.stack.pop()

    # -- policy ----------------------------------------------------------
    @staticmethod
    def _governed_evaluate(fn: Callable, args: tuple):
        """Evaluate one top-level query under the active governor.

        The ``solver.query`` checkpoint fires the deadline check (and any
        injected faults) at the query boundary; ``fresh_query`` resets the
        per-query work meters so one expensive query cannot starve the
        rest of the analysis of FM/splinter/DNF budget.
        """

        _guard.checkpoint("solver.query")
        gov = _guard.active()
        if gov is None:
            return fn(*args)
        with gov.fresh_query():
            return fn(*args)

    @staticmethod
    def _note_audit(kind: str, value) -> None:
        """Note one settled query outcome on the active audit log.

        Fires once per query *call* — whether the value was computed or
        replayed from a cache — keyed on the guard subject active at the
        call site.  That placement is what makes audit footprints
        identical across cache configurations: hit patterns change, call
        sites do not.
        """

        log = _current_audit()
        if log is None:
            return
        subject = _guard.current_subject()
        if isinstance(value, Raised):
            log.note_query(subject, kind, exact=False, reason="complexity")
        elif isinstance(value, Projection):
            log.note_query(
                subject,
                kind,
                exact=value.exact_union,
                reason="inexact-projection",
                splintered=value.splintered,
            )
        else:
            log.note_query(subject, kind)

    def _degrade(self, kind: str, fallback: Callable, answer: str, failure):
        """Apply the degradation policy to an exhausted query.

        Under ``degrade`` the sound conservative ``fallback`` answer is
        substituted and the event is recorded with full provenance; under
        ``raise`` (``--strict``) — or with no governor at all — the
        structured :class:`BudgetExhausted` propagates unchanged.
        Degraded answers are never cached.
        """

        gov = _guard.active()
        if gov is None or gov.policy != "degrade":
            raise failure
        value = fallback()
        self.degraded += 1
        gov.note_degradation(kind=kind, answer=answer, failure=failure)
        log = _current_audit()
        if log is not None:
            log.note_conservative(
                _guard.current_subject(), f"degraded-{kind}"
            )
        if not _obs_off():
            with _span(
                "guard.degraded",
                kind=kind,
                site=failure.site or "?",
                budget=failure.budget or "?",
            ):
                pass
        return value

    def _shielded(
        self, fn: Callable, args: tuple, kind: str, fallback: Callable,
        answer: str,
    ):
        """A scalar query with the degradation shield around it."""

        self.queries += 1
        _metrics.inc("solver.queries")
        try:
            value = self._governed_evaluate(fn, args)
        except BudgetExhausted as failure:
            return self._degrade(kind, fallback, answer, failure)
        except OmegaComplexityError:
            log = _current_audit()
            if log is not None:
                log.note_query(
                    _guard.current_subject(),
                    kind,
                    exact=False,
                    reason="complexity",
                )
            raise
        self._note_audit(kind, value)
        return value

    def _protected(
        self, fn: Callable, args: tuple, kind: str, fallback: Callable,
        answer: str,
    ):
        """Batch cell: a value, a degraded answer, or a :class:`Raised`."""

        try:
            return self._governed_evaluate(fn, args)
        except BudgetExhausted as failure:
            gov = _guard.active()
            if gov is not None and gov.policy == "degrade":
                return self._degrade(kind, fallback, answer, failure)
            return Raised.from_exception(failure)
        except OmegaComplexityError as failure:
            return Raised.from_exception(failure)

    # -- scalar primitives ----------------------------------------------
    def sat(self, problem: Problem) -> bool:
        return self._shielded(
            _ocache.is_satisfiable,
            (problem,),
            "sat",
            _assume_sat,
            "assumed satisfiable",
        )

    def project(self, problem: Problem, keep):
        return self._shielded(
            _ocache.project,
            (problem, keep),
            "project",
            lambda: degraded_projection(keep),
            "left unprojected (inexact union)",
        )

    def gist(self, problem: Problem, given: Problem, **options):
        return self._shielded(
            gist_call,
            (problem, given, tuple(sorted(options.items()))),
            "gist",
            problem.copy,
            "left unsimplified",
        )

    def implies(self, problem: Problem, given: Problem) -> bool:
        return self._shielded(
            _ocache.implies,
            (problem, given),
            "implies",
            _not_proven,
            "implication not proven",
        )

    def implies_union(
        self, problem: Problem, pieces: Sequence[Problem], **options
    ) -> bool:
        return self._shielded(
            union_call,
            (problem, tuple(pieces), tuple(sorted(options.items()))),
            "implies-union",
            _not_proven,
            "implication not proven",
        )

    def run(self, query: SolverQuery):
        """Execute one declarative query."""

        with _span("solver.query", kind=query.kind.value):
            return self._shielded(
                query.execute,
                (),
                query.kind.value,
                query.conservative,
                query.conservative_answer(),
            )

    # -- batches ---------------------------------------------------------
    def _run_batch(self, keyed: list) -> list:
        """Execute ``(key, fn, args, kind, fallback, answer)`` cells.

        Duplicate keys compute once; distinct cells run inline in
        submission order.  Results come back in submission order, and the
        first complexity failure (in submission order) is re-raised — with
        its structured fields — after every cell has settled.  Budget
        exhaustion is degraded per cell (see :meth:`_protected`) before
        it can become a batch failure.
        """

        self.queries += len(keyed)
        _metrics.inc("solver.queries", len(keyed))
        self.batches += 1
        _metrics.inc("solver.batches")
        _metrics.inc("solver.batch.queries", len(keyed))
        distinct: dict = {}
        for key, *cell in keyed:
            distinct.setdefault(key, cell)
        duplicates = len(keyed) - len(distinct)
        if duplicates:
            self.batch_dedup += duplicates
            _metrics.inc("solver.batch.dedup_hits", duplicates)
        with _span("solver.batch", size=len(keyed), distinct=len(distinct)):
            computed = {key: self._protected(*cell) for key, cell in distinct.items()}
        results: list = []
        failure: Raised | None = None
        for key, _fn, _args, kind, _fallback, _answer in keyed:
            entry = computed[key]
            # Audit noting happens per submitted cell (duplicates
            # included) — the same set of notes scalar calls would leave.
            self._note_audit(kind, entry)
            if isinstance(entry, Raised) and failure is None:
                failure = entry
            results.append(entry)
        if failure is not None:
            raise failure.rebuild()
        return results

    def submit_batch(self, queries: Sequence[SolverQuery]) -> list:
        """Execute declarative queries; results in submission order."""

        queries = list(queries)
        if not queries:
            return []
        return self._run_batch(
            [
                (
                    query.key(),
                    query.execute,
                    (),
                    query.kind.value,
                    query.conservative,
                    query.conservative_answer(),
                )
                for query in queries
            ]
        )

    def sat_batch(self, problems: Sequence[Problem]) -> list[bool]:
        """Batched satisfiability; one bool per problem, in order."""

        problems = list(problems)
        if not problems:
            return []
        return self._run_batch(
            [
                (
                    ("sat", tuple(problem.constraints)),
                    _ocache.is_satisfiable,
                    (problem,),
                    "sat",
                    _assume_sat,
                    "assumed satisfiable",
                )
                for problem in problems
            ]
        )

    # -- introspection ----------------------------------------------------
    def cache_stats(self) -> dict | None:
        """The canonical LRU's counters, or None when uncached."""

        return self.cache.stats() if self.cache is not None else None

    def stats(self) -> dict:
        """A snapshot of the service counters (for ``--stats`` etc.)."""

        return {
            "queries": self.queries,
            "batches": self.batches,
            "batch_dedup": self.batch_dedup,
            "degraded": self.degraded,
            "cache": self.cache_stats(),
        }
