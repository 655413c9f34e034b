"""The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest perfbench``.

They check that a run leaves the working tree as it found it, that a seed
fixes the inputs and the deterministic counters, that another seed
changes the serve stream, and that ``BENCHMARK.json`` names exactly the
metrics the runs report.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import layers, workloads
from perfbench.inputs import ServeStream, corpus_texts

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree() -> dict:
    found = {}
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [name for name in subdirs if name not in SKIPPED]
        for name in files:
            path = Path(directory, name)
            stat = path.stat()
            found[str(path.relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return found


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _stream(seed: int, count: int = 120) -> list:
    stream = ServeStream(seed, corpus_texts())
    return [stream.next() for _ in range(count)]


def test_untraced_serve_run_leaves_the_tree_unchanged():
    before = _tree()
    done = _run("--workload", "serve", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    assert set(report["metrics"]) == {name for name, _unit in workloads.END_TO_END}
    assert _tree() == before


def test_same_seed_same_inputs():
    assert _stream(11) == _stream(11)
    assert corpus_texts() == corpus_texts()


def test_other_seed_other_serve_stream():
    assert _stream(11) != _stream(12)


def test_same_seed_same_counters():
    first = workloads.run("corpus", 3, 0.0, trace=True)
    second = workloads.run("corpus", 3, 0.0, trace=True)
    assert first["outcome"].failed == second["outcome"].failed == 0
    deterministic = [
        name
        for name, unit in layers.PER_LAYER
        if unit == "count/unit" or name == "analysis.flow_dead"
    ]
    assert first["layers"]["analysis.flow_dead"] > 0
    assert first["layers"]["analysis.pairs_analyzed"] > 0
    for name in deterministic:
        assert first["layers"][name] == second["layers"][name], name
    for name in ("omega.normalize", "omega.is_satisfiable", "omega.canonicalize"):
        assert first["span_table"][name]["calls"] == second["span_table"][name]["calls"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".tmp", ".out"),
    )
    done = _run(
        "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
