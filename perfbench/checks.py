"""Answer checks.  They run outside the timed windows; any failure fails
the run."""

from __future__ import annotations

import zlib

from repro.analysis import DependenceKind, analyze
from repro.analysis.symbolic import format_problem
from repro.ir import parse, run_program, value_based_flows

#: Symbolic-constant values for the interpreter oracle.  Names a program
#: uses but a size does not give default to 3.
SIZES = (
    dict(n=5, m=6, w=2, steps=3, N=3, M=2, NMAT=1, NRHS=1, EPS=1, s=2,
         maxB=3, x=1, y=2, k0=2),
    dict(n=8, m=4, w=3, steps=2, N=4, M=3, NMAT=2, NRHS=2, EPS=2, s=3,
         maxB=4, x=2, y=1, k0=3),
    dict(n=11, m=9, w=1, steps=4, N=5, M=4, NMAT=1, NRHS=1, EPS=3, s=1,
         maxB=2, x=0, y=3, k0=1),
)

#: Example 7's conditions as the paper prints them (E-EX7), per restraint
#: vector, as the constraint set ``format_problem`` renders.
EXAMPLE7 = {
    "(+,*)": {"x >= 1", "50 >= x"},
    "(0,+)": {"x = 0", "m >= y + 1"},
}

#: Example 8's two queries (E-EX8): context constraints and the residual
#: condition on the index array.
EXAMPLE8 = {
    DependenceKind.OUTPUT: (
        {"b >= a + 1", "n >= a", "a >= 1", "n >= b", "b >= 1", "n >= 1"},
        "Q[a] = Q[b]",
    ),
    DependenceKind.FLOW: (
        {"b >= a + 2", "n >= a", "a >= 1", "n + 1 >= b", "b >= 2", "n >= 1"},
        "Q[a] + 1 = Q[b]",
    ),
}


def _initial(address) -> int:
    # Deterministic across processes, unlike the interpreter's default,
    # which hashes strings.
    return zlib.crc32(repr(address).encode()) % 17 - 8


def flow_verdicts(result) -> frozenset:
    """``(src, dst, live)`` for every flow dependence of a result."""

    return frozenset(
        (
            f"{d.src.statement.label}: {d.src.ref}",
            f"{d.dst.statement.label}: {d.dst.ref}",
            d.status.value == "live",
        )
        for d in result.flow
    )


def envelope_verdicts(envelope: dict) -> frozenset:
    """The same projection of a serve response's ``result``."""

    return frozenset(
        (
            f"{d['source']['statement']}: {d['source']['reference']}",
            f"{d['destination']['statement']}: {d['destination']['reference']}",
            d["status"] == "live",
        )
        for d in envelope["result"]["flow"]
    )


def dead_flow_pairs(result) -> int:
    live = {(d.src, d.dst) for d in result.live_flow()}
    return len({(d.src, d.dst) for d in result.dead_flow()} - live)


def oracle(program, result) -> list[str]:
    """Every value-based flow the interpreter sees at each size must be a
    live pair of ``result``, so no pair called dead has an instance."""

    live = {(d.src, d.dst) for d in result.live_flow()}
    problems = []
    for size in SIZES:
        symbols = {name: size.get(name, 3) for name in program.symbolic_constants}
        trace = run_program(program, symbols, _initial)
        for flow in value_based_flows(trace):
            pair = (flow.source, flow.destination)
            if pair not in live:
                problems.append(
                    f"{program.name}: value-based flow {flow.source} -> "
                    f"{flow.destination} at {symbols} is not a live pair"
                )
                break
    return problems


def direct_verdicts(name: str, text: str):
    """``(verdicts, program, result)`` of a direct default ``analyze()``."""

    program = parse(text, name)
    result = analyze(program)
    return flow_verdicts(result), program, result


def symbolic_answer(conditions, output_queries, flow_queries) -> tuple:
    """A hashable summary of one symbolic unit's answers."""

    found = {
        str(c.restraint): frozenset(format_problem(c.condition).split(" and "))
        for c in conditions
    }
    queries = []
    for kind, group in (
        (DependenceKind.OUTPUT, output_queries),
        (DependenceKind.FLOW, flow_queries),
    ):
        for query in group:
            lines = [line.strip() for line in query.render().splitlines()]
            context = frozenset(lines[1].rstrip(",").split(" and "))
            queries.append((kind, context, lines[4]))
    return tuple(sorted(found.items())), tuple(queries)


def symbolic_problems(answer: tuple) -> list[str]:
    """Differences between one unit's answers and the paper's."""

    conditions, queries = answer
    expected = tuple(
        sorted((key, frozenset(value)) for key, value in EXAMPLE7.items())
    )
    problems = []
    if conditions != expected:
        problems.append(f"Example 7 conditions {conditions} != {expected}")
    wanted = tuple(
        (kind, frozenset(context), residual)
        for kind, (context, residual) in EXAMPLE8.items()
    )
    if queries != wanted:
        problems.append(f"Example 8 queries {queries} != {wanted}")
    return problems
