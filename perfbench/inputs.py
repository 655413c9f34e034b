"""Seeded inputs: the timing corpus as text and the ``serve`` request stream.

Everything here is a pure function of the seed.  Generated programs follow
``random_program`` in ``tests/analysis/test_cache_determinism.py`` (one or
two loops over the arrays ``a``, ``b``, ``c`` with shifted and strided
subscripts and symbolic bounds), but are kept as a plain-data *spec* so an
edit can change exactly one subscript constant and re-render.
"""

from __future__ import annotations

import copy
import random
from typing import NamedTuple

from repro.ir import ProgramBuilder, to_text
from repro.programs import timing_corpus

ARRAYS = ("a", "b", "c")
SYMBOLS = ("n", "m")

#: The serve stream repeats this block of request kinds.  The mix is an
#: assumption, not a record of real traffic (there is none to base it on);
#: each share is chosen to exercise a tier, not to be representative:
#:
#: * 3 new: enough misses that a window sends several hundred distinct
#:   programs, far more than the 64-entry result cache holds, with store
#:   writes beside the reads;
#: * 3 repeats, as many as new programs, so that result-cache hits and
#:   fall-throughs to the solver and store tiers both occur often;
#: * 2 edits, fewer than new programs, so most generated programs are also
#:   seen unedited while every block runs the incremental diff;
#: * 1 query and 1 corpus program, the smallest share a block of ten
#:   allows: they are the costliest kinds (p90 ~0.7 s), and more of them
#:   would set the whole stream's latency.
BLOCK = (
    "new", "repeat", "edit", "new", "query",
    "repeat", "new", "edit", "repeat", "corpus",
)
KINDS = tuple(dict.fromkeys(BLOCK))

#: Repeats draw in turn from this many most recent distinct programs and
#: from the whole history.  Half the result cache's 64 entries, so a recent
#: repeat is still cached (a hit), while a repeat from the whole history
#: mostly is not (a fall-through).
RECENT = 32

#: Generated programs with more statements than this on one array are
#: skipped: their governed analysis can take seconds (one took 7 s, against
#: 1.4 s ungoverned), which would put deadline degradations in the stream.
MAX_STATEMENTS_PER_ARRAY = 3

#: Generated programs come from one fixed sequence, whatever the seed: their
#: analysis cost is heavy-tailed (median ~5 ms, a few ~0.4 s), so drawing
#: them per seed made the workload's cost differ by up to 2x between seeds.
#: For the same reason the kinds come in a fixed order and a query names
#: the newest program it can.  The seed decides which programs are
#: repeated, which constant an edit changes and which pair a query names.
POOL_SEED = 19920617


class Submission(NamedTuple):
    """One distinct program text."""

    name: str
    text: str


class Request(NamedTuple):
    kind: str
    op: str
    submission: Submission
    pair: tuple | None


def corpus_texts() -> list[tuple[str, str]]:
    """The 38 timing-corpus programs printed to text, in corpus order."""

    return [(program.name, to_text(program)) for program in timing_corpus()]


def flow_pairs(submission: Submission) -> list[tuple[str, str]]:
    """``(write, read)`` statement labels, as ``"s1:"``, of the flows the
    interpreter sees at size 5.  The analysis must report each of them, so
    a ``query`` op on one always finds provenance."""

    from repro.ir import memory_based_pairs, parse, run_program

    program = parse(submission.text, submission.name)
    symbols = {name: 5 for name in program.symbolic_constants}
    trace = run_program(program, symbols, lambda address: 0)
    return sorted(
        {
            (f"{write.statement.label}:", f"{read.statement.label}:")
            for write, read in memory_based_pairs(trace)
        }
    )


# -- generated programs ---------------------------------------------------


def _subscript(rng: random.Random, loop_vars: list[str]):
    if not loop_vars or rng.random() < 0.15:
        return rng.randint(0, 4)
    extra = None
    var = rng.choice(loop_vars)
    scale = rng.choice((1, 1, 1, 2))
    const = rng.randint(-2, 2)
    if len(loop_vars) > 1 and rng.random() < 0.3:
        extra = rng.choice(loop_vars)
    return [var, scale, const, extra]


def random_spec(rng: random.Random) -> list:
    """A loop-nest spec: ``["loop", var, lo, hi, body]`` and
    ``[kind, array, subscripts]`` items, ``kind`` ``write`` or ``read``."""

    depth = rng.randint(1, 2)
    ranks = {array: rng.randint(1, depth) for array in ARRAYS}
    loop_vars: list[str] = []

    def statements() -> list:
        found = []
        for _ in range(rng.randint(1, 3)):
            array = rng.choice(ARRAYS)
            subs = [_subscript(rng, loop_vars) for _ in range(ranks[array])]
            kind = "write" if rng.random() < 0.6 else "read"
            found.append([kind, array, subs])
        return found

    def nest(level: int) -> list:
        if level == depth:
            return statements()
        name = f"i{level + 1}"
        lower = rng.randint(0, 2)
        upper = rng.choice((rng.randint(4, 12), *SYMBOLS))
        loop_vars.append(name)
        body = statements() if rng.random() < 0.3 else []
        body += nest(level + 1)
        loop_vars.pop()
        return [["loop", name, lower, upper, body]]

    return nest(0)


def _expr(sub):
    if isinstance(sub, int):
        return sub
    var, scale, const, extra = sub
    expr = ProgramBuilder.v(var) * scale + const
    if extra is not None:
        expr = expr + ProgramBuilder.v(extra)
    return expr


def render(name: str, spec: list) -> Submission:
    builder = ProgramBuilder(name)

    def emit(items: list) -> None:
        for item in items:
            if item[0] == "loop":
                _, var, lower, upper, body = item
                with builder.loop(var, lower, upper):
                    emit(body)
            elif item[0] == "write":
                builder.write(item[1], *(_expr(s) for s in item[2]))
            else:
                builder.read_stmt(item[1], *(_expr(s) for s in item[2]))

    emit(spec)
    return Submission(name, to_text(builder.build()))


def _statements(items: list) -> list:
    found = []
    for item in items:
        found += _statements(item[4]) if item[0] == "loop" else [item]
    return found


def _subscript_slots(items: list) -> list[tuple[list, int]]:
    return [
        (statement[2], index)
        for statement in _statements(items)
        for index in range(len(statement[2]))
    ]


def edit_spec(rng: random.Random, spec: list) -> list:
    """A copy of ``spec`` with one subscript constant changed."""

    edited = copy.deepcopy(spec)
    subs, index = rng.choice(_subscript_slots(edited))
    sub = subs[index]
    if isinstance(sub, int):
        subs[index] = rng.choice([v for v in range(5) if v != sub])
    else:
        sub[2] = rng.choice([v for v in range(-2, 3) if v != sub[2]])
    return edited


# -- the serve stream ------------------------------------------------------


class ServeStream:
    """The seeded request sequence of the ``serve`` workload.

    Request *i* depends only on the seed, never on timing: callers draw
    requests one at a time under their own lock.
    """

    def __init__(self, seed: int, corpus: list[tuple[str, str]]):
        self.rng = random.Random(seed)
        self._pool = random.Random(POOL_SEED)
        # CHOLSKY's governed analysis takes seconds; the rest stay far
        # inside the default deadline.  Sent in corpus order, like the
        # generated programs, so that every seed pays for the same ones.
        self.corpus = [
            Submission(name, text) for name, text in corpus if name != "CHOLSKY"
        ]
        self.history: list[Submission] = []
        self._seen: set[tuple[str, str]] = set()
        self._specs: dict[str, list] = {}
        self._sent = 0
        self._corpus_next = 0
        self._repeats = 0
        self._pairs: dict[Submission, list] = {}

    def _remember(self, submission: Submission) -> None:
        key = (submission.name, submission.text)
        if key not in self._seen:
            self._seen.add(key)
            self.history.append(submission)

    def _new(self) -> Submission:
        name = f"gen{len(self._specs)}"
        while True:
            spec = random_spec(self._pool)
            arrays = [statement[1] for statement in _statements(spec)]
            if max(map(arrays.count, arrays)) <= MAX_STATEMENTS_PER_ARRAY:
                break
        self._specs[name] = spec
        return render(name, spec)

    def next(self) -> Request:
        kind = BLOCK[self._sent % len(BLOCK)]
        self._sent += 1
        if kind in ("repeat", "edit", "query") and not self._specs:
            kind = "new"
        op = "analyze"
        pair = None
        if kind == "new":
            submission = self._new()
        elif kind == "repeat":
            pool = self.history
            if self._repeats % 2 == 0:
                pool = pool[-RECENT:]
            self._repeats += 1
            submission = self.rng.choice(pool)
        elif kind == "edit":
            name = f"gen{len(self._specs) - 1}"
            spec = edit_spec(self.rng, self._specs[name])
            self._specs[name] = spec
            submission = render(name, spec)
        elif kind == "query":
            submission, pair = self._query_target()
            op = "query"
        else:
            submission = self.corpus[self._corpus_next % len(self.corpus)]
            self._corpus_next += 1
        self._remember(submission)
        return Request(kind, op, submission, pair)

    def _query_target(self) -> tuple[Submission, tuple[str, str]]:
        for submission in self.history[::-1] + self.corpus:
            if submission not in self._pairs:
                self._pairs[submission] = flow_pairs(submission)
            if self._pairs[submission]:
                return submission, self.rng.choice(self._pairs[submission])
        raise RuntimeError("no program with a flow dependence to query")
