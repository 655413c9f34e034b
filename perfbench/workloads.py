"""The three workloads: set-up, a closed-loop timed window, answer checks
and the metrics of one run.

``corpus``
    parse + analyze of each timing-corpus program from one caller, whole
    seeded-order passes until ``--seconds`` have gone by.
``symbolic``
    Example 7's ``dependence_conditions`` plus Example 8's two
    ``generate_query`` calls under one fresh ``caching(SolverCache())``.
``serve``
    a ``python -m repro serve`` child (unix socket, fresh store, no
    ledger, default deadline and admission) driven by two ``ServeClient``
    connections with the seeded request stream of :mod:`perfbench.inputs`.
    The traced run hosts :class:`repro.serve.Daemon` in this process so
    the spans see the server side.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from repro.analysis import AnalysisOptions, DependenceKind, analyze
from repro.analysis.symbolic import dependence_conditions, generate_query
from repro.ir import parse
from repro.obs.metrics import MetricsRegistry, collecting
from repro.omega import SolverCache, Variable, caching, le
from repro.programs import example7, example8
from repro.serve import Daemon, ServeApp, ServeClient, ServeError

from . import checks, layers
from .hostspeed import IMPORT_REFERENCE_S, SpeedLog, SpeedProbe, import_seconds
from .inputs import KINDS, ServeStream, corpus_texts
from .spans import SpanTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for sockets and stores, removed at the end of a run.
TMP = HERE / ".tmp"
#: Where a traced run writes its per-layer table and spans.
OUT = HERE / ".out"

#: Set-up is repeated this many times per run, each time after the import
#: reference of :mod:`perfbench.hostspeed`; ``setup_s`` is the median of
#: the set-ups scaled by their references.
SETUP_REPEATS = 7
CONNECTIONS = 2

END_TO_END = (
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("exact_share", "share"),
)

#: What a fresh interpreter imports before the workload can start.
IMPORTS = {
    "corpus": "import repro.analysis, repro.ir, repro.programs",
    "symbolic": "import repro.analysis.symbolic, repro.omega, repro.programs",
    "serve": "import repro.ir, repro.programs, repro.serve",
}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quantile(values, q: float, passes: int = 1) -> float:
    """The median over ``passes`` equal consecutive slices of ``values``
    of each slice's nearest-rank quantile.  On ``corpus`` a slice is one
    pass, so the quantile is the same program's time in every pass, and
    no single pass run in a slow moment sets it."""

    size = len(values) // passes
    return statistics.median(
        nearest_rank(values[start : start + size], q)
        for start in range(0, size * passes, size)
    )


def child_env(tmpdir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    return env


def _fresh_import(workload: str) -> None:
    subprocess.run(
        [sys.executable, "-c", IMPORTS[workload]], env=child_env(), check=True
    )


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What a timed window produced, plus the answer checks' findings."""

    def __init__(self) -> None:
        #: (began, ended) of every unit, in ``time.perf_counter`` seconds.
        self.intervals: list[tuple[float, float]] = []
        self.window = (0.0, 0.0)
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.problems: list[str] = []
        self.flow_dead = 0
        self.peak_rss_mb = 0.0
        self.details: dict = {}

    def fail(self, problem: str, units: int = 1) -> None:
        self.failed += units
        if len(self.problems) < 20:
            self.problems.append(problem)


# -- corpus -----------------------------------------------------------------


class Corpus:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        self.texts = corpus_texts()

    def warm_up(self) -> None:
        name, text = self.texts[0]
        analyze(parse(text, name))

    def window(self, seconds, tracer, speed: SpeedLog, out: Outcome) -> None:
        self.first: dict[str, tuple] = {}
        passes = 0
        speed.sample()
        started = time.perf_counter()
        while True:
            order = list(self.texts)
            self.rng.shuffle(order)
            for name, text in order:
                if tracer is not None:
                    tracer.set_unit(out.attempted)
                began = time.perf_counter()
                program = parse(text, name)
                result = analyze(program)
                out.intervals.append((began, time.perf_counter()))
                out.attempted += 1
                speed.sample()
                verdicts = checks.flow_verdicts(result)
                if name not in self.first:
                    self.first[name] = (verdicts, program, result)
                elif self.first[name][0] != verdicts:
                    out.fail(f"{name}: answer differs between passes")
            passes += 1
            if time.perf_counter() - started >= seconds:
                break
        out.window = (started, time.perf_counter())
        out.details["passes"] = passes

    def check(self, out: Outcome) -> None:
        for name, (_verdicts, program, result) in self.first.items():
            out.flow_dead += checks.dead_flow_pairs(result)
            for problem in checks.oracle(program, result):
                out.fail(problem, units=out.details["passes"])

    def extended_over_standard(self) -> float:
        """Median extended/standard time per pair (paper Fig. 6)."""

        ratios = []
        for _verdicts, program, _result in self.first.values():
            timed = analyze(program, AnalysisOptions(record_timings=True))
            ratios += [r.ratio for r in timed.pair_records if r.standard_time > 0]
        return statistics.median(ratios) if ratios else 0.0

    def close(self) -> None:
        pass


# -- symbolic ---------------------------------------------------------------


class Symbolic:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        p7, p8 = example7(), example8()
        write7 = next(a for a in p7.writes() if a.array == "A")
        read7 = next(a for a in p7.reads() if a.array == "A")
        write8 = next(a for a in p8.writes() if a.array == "A")
        read8 = next(a for a in p8.reads() if a.array == "A")
        n = Variable("n", "sym")
        keep = [Variable(name, "sym") for name in ("x", "y", "m")]
        self.calls = {
            "ex7": lambda: dependence_conditions(
                write7,
                read7,
                DependenceKind.FLOW,
                assertions=[le(50, n), le(n, 100)],
                array_bounds=p7.array_bounds,
                keep_syms=keep,
            ),
            "ex8.output": lambda: generate_query(
                write8, write8, DependenceKind.OUTPUT, array_bounds=p8.array_bounds
            ),
            "ex8.flow": lambda: generate_query(
                write8, read8, DependenceKind.FLOW, array_bounds=p8.array_bounds
            ),
        }

    def warm_up(self) -> None:
        with caching(SolverCache()):
            for call in self.calls.values():
                call()

    def window(self, seconds, tracer, speed: SpeedLog, out: Outcome) -> None:
        # Each unit's answer is reduced to its summary at once, so what the
        # run holds does not grow with the number of units completed.
        self.answers: Counter = Counter()
        speed.sample()
        started = time.perf_counter()
        while True:
            order = list(self.calls)
            self.rng.shuffle(order)
            if tracer is not None:
                tracer.set_unit(out.attempted)
            began = time.perf_counter()
            with caching(SolverCache()):
                answer = {key: self.calls[key]() for key in order}
            out.intervals.append((began, time.perf_counter()))
            out.attempted += 1
            speed.sample()
            if tracer is not None:
                tracer.enabled = False
            self.answers[
                checks.symbolic_answer(
                    answer["ex7"], answer["ex8.output"], answer["ex8.flow"]
                )
            ] += 1
            if tracer is not None:
                tracer.enabled = True
            if time.perf_counter() - started >= seconds:
                break
        out.window = (started, time.perf_counter())

    def check(self, out: Outcome) -> None:
        for summary, units in self.answers.items():
            for problem in checks.symbolic_problems(summary):
                out.fail(problem, units=units)
                break

    def close(self) -> None:
        pass


# -- serve ------------------------------------------------------------------


def _socket_path(path: Path) -> str:
    # AF_UNIX paths are limited to ~100 bytes and the checkout may be
    # deep.  A relative path must not start with "." (the daemon's HTTP
    # server takes the path's first character for a host name).
    return str(path) if len(str(path)) <= 100 else os.path.relpath(path)


class Serve:
    def __init__(self, seed: int, in_process: bool):
        self.seed = seed
        self.in_process = in_process
        self.process: subprocess.Popen | None = None
        self.daemon: Daemon | None = None
        self.workdir: Path | None = None
        self._spawned = 0

    def prepare(self) -> None:
        self.stream = ServeStream(self.seed, corpus_texts())
        self._start()

    def _start(self) -> None:
        self.workdir = TMP / f"serve-{os.getpid()}-{self._spawned}"
        self._spawned += 1
        self.workdir.mkdir(parents=True)
        self.socket = _socket_path(self.workdir / "serve.sock")
        store = self.workdir / "store.db"
        if self.in_process:
            self.app = ServeApp(store_path=store)
            self.daemon = Daemon(self.app, host=None, unix_socket=self.socket)
            self.daemon.start()
        else:
            with open(self.workdir / "daemon.log", "wb") as log:
                self.process = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "serve",
                        "--no-tcp", "--unix-socket", self.socket,
                        "--store", str(store), "--no-ledger",
                    ],
                    env=child_env(self.workdir),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                )
        client = ServeClient(unix_socket=self.socket, timeout=5.0)
        deadline = time.monotonic() + 60.0
        while True:
            if self.process is not None and self.process.poll() is not None:
                log = (self.workdir / "daemon.log").read_text(errors="replace")
                raise RuntimeError(f"daemon exited during start-up:\n{log}")
            try:
                if client.readyz()[0] == 200:
                    return
            except ServeError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon not ready after 60 s")
            time.sleep(0.01)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self.process is not None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def warm_up(self) -> None:
        pass

    def window(self, seconds, tracer, speed: SpeedLog, out: Outcome) -> None:
        lock = threading.Lock()
        stop = threading.Event()
        issued = [0]
        self.records: list[tuple] = []
        started = time.perf_counter()

        def connection() -> None:
            if tracer is not None:
                tracer.ignore_thread()
            client = ServeClient(unix_socket=self.socket, timeout=60.0)
            while not stop.is_set():
                with lock:
                    elapsed = time.perf_counter() - started
                    if issued[0] >= CONNECTIONS and elapsed >= seconds:
                        return
                    sequence = issued[0]
                    issued[0] += 1
                    request = self.stream.next()
                payload = {
                    "op": request.op,
                    "program": request.submission.text,
                    "name": request.submission.name,
                    "request_id": f"u{sequence}",
                }
                if request.pair is not None:
                    payload["pair"] = list(request.pair)
                began = time.perf_counter()
                try:
                    status, envelope = client.request(payload)
                except ServeError as failure:
                    status, envelope = 0, {"status": "transport", "error": str(failure)}
                ended = time.perf_counter()
                summary = {
                    "status": envelope.get("status"),
                    "http": status,
                    "hit": envelope.get("result_cache") == "hit",
                    "timing_ms": envelope.get("timing_ms"),
                    "error": envelope.get("error"),
                }
                if summary["status"] == "ok":
                    summary["verdicts"] = checks.envelope_verdicts(envelope)
                elif summary["status"] == "degraded":
                    summary["degradations"] = envelope.get("degradations")
                with lock:
                    self.records.append((sequence, request, began, ended, summary))

        threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
        try:
            with SpeedProbe(speed):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            stop.set()
        self.records.sort(key=lambda record: record[0])
        out.window = (started, max(record[3] for record in self.records))
        out.attempted = len(self.records)
        out.intervals = [(record[2], record[3]) for record in self.records]
        by_kind: dict[str, list[float]] = {kind: [] for kind in KINDS}
        stale = 0
        for _sequence, request, began, ended, summary in self.records:
            by_kind[request.kind].append(ended - began)
            if summary["status"] == "degraded":
                out.degraded += 1
                out.details.setdefault("degraded", []).append(
                    [request.kind, request.submission.name, round(ended - began, 3)]
                    + [d["budget"] for d in summary["degradations"][:1]]
                )
            # A result-cache hit replays the original miss's timing_ms.
            if summary["hit"] and (summary["timing_ms"] or 0) > (ended - began) * 1000:
                stale += 1
        out.details["distinct_programs"] = len(
            {(r.submission.name, r.submission.text) for _s, r, *_ in self.records}
        )
        out.details["shares"] = {
            kind: len(found) / out.attempted for kind, found in by_kind.items()
        }
        out.details["latency_ms_by_kind"] = {
            kind: [round(nearest_rank(found, q) * 1000, 2) for q in (0.5, 0.9)]
            for kind, found in by_kind.items()
            if found
        }
        out.details["result_cache_hits"] = sum(r[4]["hit"] for r in self.records)
        out.details["hits_with_stale_timing_ms"] = stale
        if self.process is not None:
            out.peak_rss_mb = _peak_rss_of(self.process.pid)

    def check(self, out: Outcome) -> None:
        direct: dict[tuple, frozenset] = {}
        for sequence, request, _began, _ended, summary in self.records:
            submission = request.submission
            if summary["status"] not in ("ok", "degraded") or summary["http"] != 200:
                out.fail(f"request u{sequence} ({request.kind}): {summary}")
                continue
            key = (submission.name, submission.text)
            if key not in direct:
                verdicts, program, result = checks.direct_verdicts(*key)
                direct[key] = verdicts
                out.flow_dead += checks.dead_flow_pairs(result)
                for problem in checks.oracle(program, result):
                    out.fail(problem)
            if summary["status"] == "ok" and summary["verdicts"] != direct[key]:
                out.fail(
                    f"request u{sequence} ({request.kind} {submission.name}): "
                    "flow verdicts differ from a direct analyze()"
                )


def _peak_rss_of(pid: int) -> float:
    """Peak resident set of a live child, in MB (Linux ``VmHWM``)."""

    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


WORKLOADS = ("corpus", "symbolic", "serve")


def _make(workload: str, seed: int, trace: bool):
    if workload == "corpus":
        return Corpus(seed)
    if workload == "symbolic":
        return Symbolic(seed)
    return Serve(seed, in_process=trace)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the report ``run.py`` prints."""

    bench = _make(workload, seed, trace)
    out = Outcome()
    setup: list[tuple[float, float]] = []
    tracer = SpanTracer() if trace else None
    registry = MetricsRegistry()
    speed = SpeedLog()
    try:
        for repeat in range(SETUP_REPEATS):
            reference = import_seconds()
            began = time.perf_counter()
            _fresh_import(workload)
            bench.prepare()
            setup.append((time.perf_counter() - began, reference))
            if repeat < SETUP_REPEATS - 1:
                bench.close()
        bench.warm_up()
        with ExitStack() as stack:
            if tracer is not None:
                tracer.install()
                stack.callback(tracer.uninstall)
                if workload != "serve":
                    stack.enter_context(collecting(registry))
                tracer.enabled = True
            bench.window(seconds, tracer, speed, out)
            if tracer is not None:
                tracer.enabled = False
        if workload != "serve":
            out.peak_rss_mb = _own_peak_rss_mb()
        if tracer is not None and workload == "serve":
            stats = ServeClient(unix_socket=bench.socket, timeout=30.0).stats()["stats"]
            registry = bench.app.registry
        bench.check(out)
        extra = {}
        if tracer is not None:
            if workload == "corpus":
                extra["analysis.extended_over_standard.p50"] = (
                    bench.extended_over_standard()
                )
            if workload == "serve":
                extra.update(_serve_layers(tracer, bench, stats, out))
    finally:
        bench.close()
        try:
            TMP.rmdir()
        except OSError:
            pass

    raw = [ended - began for began, ended in out.intervals]
    passes = out.details.get("passes", 1)
    if workload == "serve":
        # The probe shares the CPUs with the daemon and the load
        # generator, so only its median over the whole window tracks the
        # host.
        factor = speed.factor(*out.window)
        latencies = [seconds * factor for seconds in raw]
        busy = (out.window[1] - out.window[0]) * factor
    else:
        latencies = [speed.normalized(*interval) for interval in out.intervals]
        busy = sum(latencies)
    report = {
        "workload": workload,
        "outcome": out,
        "setup": setup,
        "raw": {
            "latency_ms.p50": quantile(raw, 0.5, passes) * 1000.0,
            "latency_ms.p90": quantile(raw, 0.9, passes) * 1000.0,
            "throughput_per_s": out.attempted / (out.window[1] - out.window[0]),
            "setup_s": statistics.median(seconds for seconds, _ in setup),
            "reference_kernel_ms": speed.median_ms(),
            "reference_import_ms": statistics.median(ref for _, ref in setup) * 1000.0,
        },
    }
    if tracer is not None:
        counters = dict(registry.counters)
        for problem in tracer.cross_check(counters):
            out.problems.append(f"trace cross-check: {problem}")
            out.failed += 1
        extra.update(
            {
                "analysis.flow_dead": float(out.flow_dead),
                "failed_share": out.failed / max(out.attempted, 1),
                "degraded_share": out.degraded / max(out.attempted, 1),
                "trace.latency_ms.p50": quantile(latencies, 0.5, passes) * 1000.0,
                "trace.throughput_per_s": out.attempted / busy,
            }
        )
        table = tracer.table()
        report["layers"] = layers.per_layer(table, counters, out.attempted, extra)
        report["span_table"] = table
        report["tracer"] = tracer
    else:
        report["end_to_end"] = {
            "latency_ms.p50": quantile(latencies, 0.5, passes) * 1000.0,
            "latency_ms.p90": quantile(latencies, 0.9, passes) * 1000.0,
            "throughput_per_s": out.attempted / busy,
            "setup_s": statistics.median(
                seconds * IMPORT_REFERENCE_S / reference for seconds, reference in setup
            ),
            "peak_rss_mb": out.peak_rss_mb,
            "exact_share": (out.attempted - out.failed - out.degraded)
            / max(out.attempted, 1),
        }
    return report


def _serve_layers(tracer: SpanTracer, bench: Serve, stats: dict, out: Outcome) -> dict:
    handle = tracer.durations("serve.handle")
    transport = [
        (ended - began) - handle[f"u{sequence}"]
        for sequence, _request, began, ended, _summary in bench.records
        if f"u{sequence}" in handle
    ]
    waits = [
        span[2] - span[1]
        for spans in tracer.thread_spans()
        for span in spans
        if span[0] == "serve.admission.wait"
    ]
    analyzed = sum(1 for record in bench.records if record[1].op == "analyze")
    admission = stats["admission"]
    values = {
        "serve.transport_ms.p50": layers.p50_ms(transport),
        "serve.admission.wait_ms.p50": layers.p50_ms(waits),
        "serve.admission.rejected": (
            admission["shed_queue_full"] + admission["shed_timeout"]
        )
        / max(out.attempted, 1),
        "serve.result_cache.hit_ratio": stats["result_cache"]["hits"]
        / max(analyzed, 1),
    }
    return values


def write_trace(report: dict, seed: int) -> Path:
    """Write the per-layer table and every span under ``.perfbench-out``."""

    target = OUT / f"{report['workload']}-seed{seed}"
    target.mkdir(parents=True, exist_ok=True)
    (target / "layers.json").write_text(
        json.dumps(
            {"per_layer": report["layers"], "spans": report["span_table"]},
            indent=2,
            sort_keys=True,
        )
    )
    with gzip.open(target / "spans.jsonl.gz", "wt", compresslevel=1) as sink:
        for thread, spans in enumerate(report["tracer"].thread_spans()):
            for span in spans:
                sink.write(json.dumps([thread, *span]) + "\n")
    return target
