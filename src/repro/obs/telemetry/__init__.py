"""Run-level telemetry: identity, ledger, live events, attribution.

The third observability layer (after in-run spans/metrics and the
per-run artifacts): everything needed to reason about analysis runs
*across* invocations —

:mod:`repro.obs.telemetry.context`
    :class:`RunContext` (run_id / request_id), stamped on run records,
    events and exported traces.
:mod:`repro.obs.telemetry.ledger`
    ``repro.run/1`` run records appended to ``results/runs.jsonl`` by
    every CLI invocation, with a :func:`stable_view` projection that is
    bit-identical across cache settings.
:mod:`repro.obs.telemetry.events`
    The live :class:`EventBus`: per-pair lifecycle events with
    deterministic content-hash sampling, delivered in read order.
:mod:`repro.obs.telemetry.diff`
    ``python -m repro diff``: ranked suspects between two run records,
    bench/precision artifacts or trace files, with a CI ``--gate``.
"""

from .context import RunContext, current_run, new_run_id, run_context
from .diff import Suspect, SuspectsReport, diff_paths, load_input
from .events import (
    EVENT_SCHEMA,
    EventBus,
    JsonlSink,
    current_bus,
    publishing,
)
from .ledger import (
    RUN_SCHEMA,
    STABLE_COUNTER_PREFIXES,
    STABLE_COUNTERS,
    append_run,
    git_sha,
    last_run,
    machine_fingerprint,
    read_runs,
    run_record,
    stable_view,
)

__all__ = [
    "EVENT_SCHEMA",
    "RUN_SCHEMA",
    "STABLE_COUNTERS",
    "STABLE_COUNTER_PREFIXES",
    "EventBus",
    "JsonlSink",
    "RunContext",
    "Suspect",
    "SuspectsReport",
    "append_run",
    "current_bus",
    "current_run",
    "diff_paths",
    "git_sha",
    "last_run",
    "load_input",
    "machine_fingerprint",
    "new_run_id",
    "publishing",
    "read_runs",
    "run_context",
    "run_record",
    "stable_view",
]
