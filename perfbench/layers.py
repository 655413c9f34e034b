"""The per-layer table a traced run reports.

Counts and times are per benchmark unit (a corpus program, a symbolic
unit, a serve request), so runs of different lengths compare directly;
on ``corpus`` and ``symbolic`` the counts repeat exactly for a seed.
``*.calls`` and ``*.self_ms`` come from the benchmark's own spans
(:mod:`perfbench.spans`), the other counts from the program's metrics
registry (``repro.obs.metrics``) or the daemon's ``stats`` op.
"""

from __future__ import annotations

import statistics

#: Layers whose spans give ``<name>.calls`` and ``<name>.self_ms``.
SPAN_LAYERS = (
    "ir.parse",
    "analysis.analyze",
    "analysis.symbolic",
    "solver.service",
    "omega.normalize",
    "omega.eliminate_equalities",
    "omega.is_satisfiable",
    "omega.partial_eliminate",
    "omega.fourier_motzkin",
    "omega.project",
    "omega.gist",
    "omega.canonicalize",
    "omega.store",
    "serve.handle",
)

#: Program counters reported per unit under their own names.
COUNTERS = (
    "analysis.pairs_analyzed",
    "analysis.kills_attempted",
    "analysis.kill_omega_tests",
    "analysis.covers_tested",
    "analysis.refinements_attempted",
    "solver.queries",
    "solver.memo.hits",
    "solver.memo.misses",
    "solver.plan.pairs_planned",
    "solver.plan.cores_built",
    "solver.plan.prefix_reuses",
    "solver.plan.fallbacks",
    "omega.equality_substitutions",
    "omega.fm_splinters_generated",
    "omega.splinters_examined",
    "omega.dark_shadow_hits",
    "omega.projections_splintered",
    "omega.cache.hits",
    "omega.cache.misses",
    "omega.store.hits",
    "omega.store.misses",
    "omega.store.writes",
    "omega.store.errors",
    "guard.degradations",
    "guard.budget_exhausted",
    "serve.incremental.pairs_reused",
    "omega.precision.records",
)

#: Everything else: (name, unit).
OTHER = (
    ("analysis.kill_quick_reject_ratio", "ratio"),
    ("analysis.extended_over_standard.p50", "ratio"),
    ("analysis.flow_dead", "count"),
    ("solver.plan.core_reuse_ratio", "ratio"),
    ("omega.cache.hit_ratio", "ratio"),
    ("omega.store.hit_ratio", "ratio"),
    ("serve.result_cache.hit_ratio", "ratio"),
    ("serve.admission.wait_ms.p50", "ms"),
    ("serve.admission.rejected", "count/unit"),
    ("serve.transport_ms.p50", "ms"),
    ("failed_share", "share"),
    ("degraded_share", "share"),
    ("trace.spans", "count/unit"),
    ("trace.latency_ms.p50", "ms"),
    ("trace.throughput_per_s", "1/s"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    *(
        (f"{layer}.{suffix}", unit)
        for layer in SPAN_LAYERS
        for suffix, unit in (("calls", "count/unit"), ("self_ms", "ms/unit"))
    ),
    *((name, "count/unit") for name in COUNTERS),
    *OTHER,
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def p50_ms(seconds) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def per_layer(table: dict, counters: dict, units: int, extra: dict) -> dict:
    """The ``PER_LAYER`` values from a span table, program counters, the
    unit count and workload-specific ``extra`` values (default 0)."""

    values: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = _ratio(row["calls"], units)
        values[f"{layer}.self_ms"] = _ratio(row["self_s"] * 1000.0, units)
    for name in COUNTERS:
        values[name] = _ratio(counters.get(name, 0), units)
    values["analysis.kill_quick_reject_ratio"] = _ratio(
        counters.get("analysis.kill_quick_rejects", 0),
        counters.get("analysis.kills_attempted", 0),
    )
    built = counters.get("solver.plan.cores_built", 0)
    reused = counters.get("solver.plan.cores_reused", 0)
    values["solver.plan.core_reuse_ratio"] = _ratio(reused, built + reused)
    for tier in ("omega.cache", "omega.store"):
        hits = counters.get(f"{tier}.hits", 0)
        values[f"{tier}.hit_ratio"] = _ratio(
            hits, hits + counters.get(f"{tier}.misses", 0)
        )
    values["trace.spans"] = _ratio(
        sum(row["calls"] for row in table.values()), units
    )
    for name, _unit in OTHER:
        values.setdefault(name, 0.0)
    values.update(extra)
    return {name: values[name] for name, _unit in PER_LAYER}
