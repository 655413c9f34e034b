"""SolverService mechanics: activation, batch de-duplication, ordering.

The service is a serial broker that must be indistinguishable from
calling the omega facade directly.  These tests pin the mechanics: stack
discipline, cache activation, batch de-duplication counters, ordering
guarantees and first-failure reporting.
"""

import pytest

from repro.omega import Problem, SolverCache, Variable, caching
from repro.omega.errors import OmegaComplexityError
from repro.solver import (
    SolverQuery,
    SolverService,
    current_service,
    is_satisfiable,
    satisfiable_batch,
)

x, y = Variable("x"), Variable("y")


def bounded(var, low, high):
    return Problem().add_bounds(low, var, high)


def unsat(var):
    return Problem().add_ge(var - 3).add_le(var, 1)


@pytest.fixture
def service():
    service = SolverService()
    with service.activate():
        yield service


class TestActivation:
    def test_stack_discipline(self):
        assert current_service() is None
        outer = SolverService()
        inner = SolverService()
        with outer.activate():
            assert current_service() is outer
            with inner.activate():
                assert current_service() is inner
            assert current_service() is outer
        assert current_service() is None

    def test_serial_cached_service_activates_its_lru(self):
        from repro.omega import current_cache

        service = SolverService(cache=True)
        with service.activate():
            assert current_cache() is service.cache
        assert current_cache() is not service.cache

    def test_for_options_adopts_enclosing_cache_scope(self):
        with caching() as shared:
            service = SolverService.for_options(cache=True)
            assert service.cache is shared

    def test_shared_cache_is_used_as_given(self):
        shared = SolverCache()
        assert SolverService(shared_cache=shared).cache is shared
        assert SolverService(cache=False, shared_cache=shared).cache is None


class TestFacade:
    def test_facade_dispatches_to_active_service(self):
        service = SolverService()
        with service.activate():
            assert is_satisfiable(bounded(x, 0, 5))
            assert not is_satisfiable(unsat(x))
        assert service.queries == 2

    def test_facade_falls_back_to_omega_without_a_service(self):
        assert current_service() is None
        assert is_satisfiable(bounded(x, 0, 5))
        assert satisfiable_batch([bounded(x, 0, 5), unsat(x)]) == [True, False]


class TestBatches:
    def test_sat_batch_preserves_submission_order(self, service):
        problems = [bounded(x, 0, 5), unsat(x), bounded(y, 2, 9)]
        assert service.sat_batch(problems) == [True, False, True]

    def test_duplicate_queries_compute_once(self, service):
        p = bounded(x, 0, 5)
        answers = service.sat_batch([p, p, p, unsat(y)])
        assert answers == [True, True, True, False]
        assert service.batch_dedup == 2
        assert service.queries == 4
        # The canonical cache saw only the two distinct problems.
        assert service.cache_stats()["misses"] == 2

    def test_submit_batch_mixes_query_kinds(self, service):
        p = bounded(x, 0, 5)
        sat_q = SolverQuery.sat(p)
        proj_q = SolverQuery.project(p, [x])
        implies_q = SolverQuery.implies(bounded(x, 1, 3), p)
        sat_answer, projection, implied = service.submit_batch(
            [sat_q, proj_q, implies_q]
        )
        assert sat_answer is True
        assert implied is True
        assert projection.kept == frozenset([x])
        assert projection.dark.canonical() == p.canonical()

    def test_empty_batch(self, service):
        assert service.sat_batch([]) == []
        assert service.submit_batch([]) == []

    def test_batch_raises_first_failure_in_submission_order(self, service):
        def ok():
            return True

        def boom(message):
            def fail():
                raise OmegaComplexityError(message)

            return fail

        with pytest.raises(OmegaComplexityError, match="first"):
            service._run_batch(
                [
                    (("t", 1), ok, (), "sat", ok, ""),
                    (("t", 2), boom("first"), (), "sat", ok, ""),
                    (("t", 3), boom("second"), (), "sat", ok, ""),
                ]
            )

    def test_batch_runs_every_cell_in_order_before_raising(self, service):
        ran = []

        def cell(n, fail=False):
            def run():
                ran.append(n)
                if fail:
                    raise OmegaComplexityError(f"cell {n}")
                return n

            return run

        with pytest.raises(OmegaComplexityError, match="cell 1"):
            service._run_batch(
                [
                    (("t", n), cell(n, fail=n == 1), (), "sat", cell(n), "")
                    for n in range(3)
                ]
            )
        assert ran == [0, 1, 2]


class TestCacheStats:
    def test_cache_stats_shape_matches_the_cli_contract(self, service):
        service.sat(bounded(x, 0, 5))
        stats = service.cache_stats()
        assert {
            "hits",
            "misses",
            "evictions",
            "size",
            "maxsize",
            "hit_rate",
        } <= set(stats)

    def test_serial_cache_stats_come_from_the_lru(self):
        service = SolverService(cache=True)
        with service.activate():
            is_satisfiable(bounded(x, 0, 5))
            is_satisfiable(bounded(x, 0, 5))
        assert service.cache_stats()["hits"] == 1

    def test_uncached_service_reports_no_cache_stats(self):
        service = SolverService(cache=False)
        with service.activate():
            assert is_satisfiable(bounded(x, 0, 5))
        assert service.cache_stats() is None
        assert service.stats()["cache"] is None
