"""Interpreter-oracle soundness of governed analyses.

A flow dependence the analysis calls *dead* (covered or killed) must
never occur at run time.  The concrete interpreter (``repro.ir.interp``)
is the ground truth: it executes each program at a few small
symbolic-constant sizes and reports every value-based flow instance
(the last write before each read).  No (write, read) pair whose every
flow dependence is dead may have such an instance — ungoverned, under a
deadline that expires almost at once, or under a seeded fault plan.
Degradation may keep a false dependence alive, never kill a true one.
"""

import random
import zlib

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.guard import injecting
from repro.ir import run_program, value_based_flows
from repro.programs import corpus_programs
from tests.analysis.test_cache_determinism import random_program

from .test_chaos import chaos_plan

#: Symbolic-constant values for the interpreter.  Names a program uses
#: but a size does not give default to 3.
SIZES = (
    dict(n=5, m=6, w=2, steps=3, N=3, M=2, NMAT=1, NRHS=1, EPS=1, s=2,
         maxB=3, x=1, y=2, k0=2),
    dict(n=8, m=4, w=3, steps=2, N=4, M=3, NMAT=2, NRHS=2, EPS=2, s=3,
         maxB=4, x=2, y=1, k0=3),
    dict(n=11, m=9, w=1, steps=4, N=5, M=4, NMAT=1, NRHS=1, EPS=3, s=1,
         maxB=2, x=0, y=3, k0=1),
)

#: How each program is analyzed: ungoverned, under a 1 ms deadline, and
#: under a seeded fault plan.
MODES = ("ungoverned", "deadline", "chaos")


def _initial(address) -> int:
    # Deterministic across processes, unlike the interpreter's default,
    # which hashes strings.
    return zlib.crc32(repr(address).encode()) % 17 - 8


def fuzzed_programs(count=12):
    rng = random.Random(19920806)
    return [random_program(rng, index) for index in range(count)]


def witnessed_pairs(program) -> set:
    """(write, read) pairs with a value-based flow instance at any size."""

    pairs = set()
    for size in SIZES:
        symbols = {name: size.get(name, 3) for name in program.symbolic_constants}
        trace = run_program(program, symbols, _initial)
        pairs.update(
            (flow.source, flow.destination) for flow in value_based_flows(trace)
        )
    return pairs


def dead_pairs(result) -> set:
    """(write, read) pairs whose every flow dependence is dead."""

    live = {(dep.src, dep.dst) for dep in result.live_flow()}
    return {(dep.src, dep.dst) for dep in result.dead_flow()} - live


def analyze_in(mode, program, offset=0):
    if mode == "deadline":
        return analyze(program, AnalysisOptions(deadline_ms=1.0))
    if mode == "chaos":
        with injecting(chaos_plan(offset)):
            return analyze(program)
    return analyze(program)


PROGRAMS = corpus_programs() + fuzzed_programs()


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda program: program.name)
def test_no_dead_pair_has_a_value_based_flow(program):
    witnessed = witnessed_pairs(program)
    for offset, mode in enumerate(MODES):
        result = analyze_in(mode, program, offset)
        unsound = sorted(
            f"{src} -> {dst}" for src, dst in dead_pairs(result) & witnessed
        )
        assert not unsound, (mode, program.name, unsound)


def test_the_oracle_sees_kills_and_the_governed_modes_degrade():
    # The oracle is only meaningful when some pairs are dead and both
    # governed modes actually substitute conservative answers.
    (program,) = [p for p in PROGRAMS if p.name == "triple_nest"]
    assert dead_pairs(analyze_in("ungoverned", program))
    assert witnessed_pairs(program)
    for mode in ("deadline", "chaos"):
        assert analyze_in(mode, program).degraded(), mode
