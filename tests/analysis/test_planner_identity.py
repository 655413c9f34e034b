"""Engine output must match the committed snapshot digests.

The engine has one path: every ``analyze()`` run builds a query plan
(shared iteration-space bases, memoized partial-elimination prefixes, a
fused anti+flow traversal).  Its observable output — dependences,
statuses, explain trails, audit provenance, pair ordering — is pinned by
SHA-256 digests in ``data/engine_snapshots.json``.  Those digests were
recorded while a per-pair engine path still existed and agreed with the
planner byte for byte, so they carry that identity forward.  The fuzzed
programs guard shapes no curated example happens to cover.

Regenerate the digests (only when an output change is intended) with::

    PYTHONPATH=src python -m tests.analysis.test_planner_identity
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.guard import Budget
from repro.obs import metrics as _metrics
from repro.programs import PAPER_EXAMPLES, cholsky, corpus_programs
from repro.reporting import result_to_dict

from .test_cache_determinism import random_program

SNAPSHOTS = Path(__file__).parent / "data" / "engine_snapshots.json"


def snapshot(result):
    data = result_to_dict(result)
    if result.explain is not None:
        data["explain"] = result.explain.render()
    if result.provenance:
        data["provenance_repr"] = [repr(r) for r in result.provenance]
    return data


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fuzzed_programs(count=8):
    rng = random.Random(19920617)
    return [random_program(rng, index) for index in range(count)]


def cases():
    """(snapshot key, program factory, analysis options) for every pin."""

    for number, make_program in PAPER_EXAMPLES.items():
        yield f"example{number}", make_program, dict(explain=True, audit=True)
    for program in corpus_programs():
        yield f"corpus/{program.name}", lambda p=program: p, {}
    for program in fuzzed_programs():
        yield (
            f"fuzz/{program.name}",
            lambda p=program: p,
            dict(audit=True, input_deps=True),
        )
    for cache in (True, False):
        yield (
            f"cholsky/cache={cache}",
            cholsky,
            dict(cache=cache, explain=True, audit=True),
        )


CASES = {key: (make, options) for key, make, options in cases()}


def expected(key: str) -> str:
    return json.loads(SNAPSHOTS.read_text())[key]


def check(key: str) -> None:
    make_program, options = CASES[key]
    result = analyze(make_program(), AnalysisOptions(**options))
    assert digest(snapshot(result)) == expected(key)


@pytest.mark.parametrize(
    "number", PAPER_EXAMPLES, ids=[f"example{n}" for n in PAPER_EXAMPLES]
)
def test_paper_examples_identical(number):
    check(f"example{number}")


@pytest.mark.parametrize(
    "program", corpus_programs(), ids=lambda program: program.name
)
def test_corpus_identical(program):
    check(f"corpus/{program.name}")


@pytest.mark.parametrize(
    "program", fuzzed_programs(), ids=lambda program: program.name
)
def test_fuzzed_programs_identical_with_audit(program):
    check(f"fuzz/{program.name}")


@pytest.mark.parametrize("cache", (True, False))
def test_cholsky_identical_across_cache(cache):
    check(f"cholsky/cache={cache}")


def test_snapshot_file_covers_every_case():
    assert set(json.loads(SNAPSHOTS.read_text())) == set(CASES)


def test_planner_emits_the_memoized_graph():
    result = analyze(cholsky())
    graph = result.graph()
    assert result.graph() is graph  # memoized, built during the traversal
    assert result.graph(live_only=False) is not graph  # kwargs rebuild


@pytest.mark.parametrize(
    "governance",
    (dict(budget=Budget.unlimited()), dict(deadline_ms=1e9)),
    ids=("unlimited", "deadline"),
)
def test_governed_run_matches_the_ungoverned_snapshot(governance):
    # An unlimited governed run plans exactly like an ungoverned one:
    # only the (empty) degradation log distinguishes the two outputs.
    options = dict(explain=True, audit=True)
    with _metrics.collecting() as registry:
        governed = analyze(cholsky(), AnalysisOptions(**options, **governance))
    assert registry.counter("solver.plan.pairs_planned") > 0
    data = snapshot(governed)
    assert data["degradations"] == []
    data["degradations"] = None
    assert digest(data) == expected("cholsky/cache=True")


if __name__ == "__main__":
    digests = {}
    for key, (make_program, options) in CASES.items():
        result = analyze(make_program(), AnalysisOptions(**options))
        digests[key] = digest(snapshot(result))
    SNAPSHOTS.parent.mkdir(exist_ok=True)
    SNAPSHOTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {SNAPSHOTS}")
