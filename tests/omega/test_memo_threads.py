"""The per-expression memos are thread-benign.

``LinearExpr`` fills its memo slots (key, flipped key, shape, normals) on
first use without a lock, so under the threaded HTTP daemon two handler
threads may race to fill the same slot.  Both compute equal values, so
whoever wins, every thread must see exactly what a serial run sees.
"""

import random
import sys
import threading

from repro.omega import LinearExpr, Problem, Variable, canonicalize_problems
from repro.omega.constraints import Constraint, Relation

THREADS = 4
ROUNDS = 4

VARIABLES = [Variable(f"v{i}") for i in range(5)] + [
    Variable("n", "sym"),
    Variable("m", "sym"),
    Variable("_w", "wild"),
]


def _build(seed: int) -> list[Problem]:
    """Problems sharing one pool of expression objects (memos all cold)."""

    rng = random.Random(seed)
    pool: list[LinearExpr] = []
    for _ in range(24):
        chosen = rng.sample(VARIABLES, rng.randint(1, 3))
        scale = rng.choice([1, 1, 2, 3])
        expr = LinearExpr(
            {v: scale * rng.choice([-2, -1, 1, 2]) for v in chosen},
            rng.randint(-6, 6),
        )
        pool.append(expr)
        if rng.random() < 0.4:
            pool.append(-expr + rng.randint(-1, 1))
    problems = []
    for index in range(40):
        rows = [
            Constraint(
                rng.choice(pool), rng.choice([Relation.GE, Relation.GE, Relation.EQ])
            )
            for _ in range(rng.randint(2, 7))
        ]
        problems.append(Problem(rows, name=f"p{index}"))
    return problems


def _outcome(problems: list[Problem], order: list[int]) -> dict:
    found = {}
    for index in order:
        problem = problems[index]
        normal, status = problem.normalized()
        joint = canonicalize_problems([problem, problems[(index + 1) % len(problems)]])
        found[index] = (
            status,
            [
                (c.relation, list(c.expr.terms.items()), c.expr.constant)
                for c in normal.constraints
            ],
            joint.key,
            {var.name: position for var, position in joint.indices.items()},
        )
    return found


def test_threads_sharing_expressions_match_serial_results():
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_seed in range(ROUNDS):
            expected = _outcome(_build(round_seed), list(range(40)))

            shared = _build(round_seed)
            barrier = threading.Barrier(THREADS)
            results: list[dict | Exception | None] = [None] * THREADS

            def work(slot: int) -> None:
                order = list(range(40))
                random.Random(slot).shuffle(order)
                try:
                    barrier.wait()
                    results[slot] = _outcome(shared, order)
                except Exception as exc:  # surfaced below
                    results[slot] = exc

            threads = [
                threading.Thread(target=work, args=(slot,)) for slot in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            for result in results:
                if isinstance(result, Exception):
                    raise result
                assert result == expected
    finally:
        sys.setswitchinterval(old_interval)
