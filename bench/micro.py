"""Rate microbenchmarks for the per-element operations the spans skip.

Each rate times a fixed number of calls on seeded random operands, with
the operands built before the clock starts, and reports calls per second
of ``clock``; the traced run passes its reference-speed clock.
The fields are built fresh here, so no cache of the measured workload is
reused.
"""

from __future__ import annotations

import random
import time

from kaleido import algebra, schema

# q = 569^2 and q = 197^2 over t^2 - 3, two of the prime-square fields
# tables-recheck visits: one above the dense class-table limit (lazy
# character lookups) and one below it.
LAZY_FIELD = algebra.ExtensionField(569, (566, 0, 1))
DENSE_FIELD = algebra.ExtensionField(197, (194, 0, 1))
PRIME_Q = 100003

CALLS = {
    "algebra.ext_mul_per_s": 100_000,
    "algebra.class_index_per_s.dense": 200_000,
    "algebra.class_index_per_s.lazy": 2_000,
    "algebra.prime_sub_per_s": 300_000,
    "algebra.product_add_per_s": 200_000,
    "schema.block_lines_per_s": 50_000,
}


def _rate(clock, n: int, fn, operands) -> float:
    t0 = clock()
    for args in operands:
        fn(*args)
    return n / (clock() - t0)


def _nonzero_ext(rng: random.Random, p: int, count: int, distinct=False):
    out, seen = [], set()
    while len(out) < count:
        x = (rng.randrange(p), rng.randrange(p))
        if x == (0, 0) or (distinct and x in seen):
            continue
        seen.add(x)
        out.append(x)
    return out


def rates(seed: int, clock=time.perf_counter) -> dict:
    rng = random.Random(seed)
    out = {}

    name = "algebra.ext_mul_per_s"
    fld = algebra.make_group(LAZY_FIELD)
    xs = _nonzero_ext(rng, 569, 2 * CALLS[name])
    out[name] = _rate(clock, CALLS[name], fld.mul, list(zip(xs[::2], xs[1::2])))

    name = "algebra.class_index_per_s.dense"
    table = algebra.CyclotomicTable(algebra.make_group(DENSE_FIELD), 3)
    xs = _nonzero_ext(rng, 197, CALLS[name])
    out[name] = _rate(clock, CALLS[name], table.index, [(x,) for x in xs])

    # Distinct operands, each looked up once: every call takes the
    # character path instead of the table's cache.
    name = "algebra.class_index_per_s.lazy"
    table = algebra.CyclotomicTable(algebra.make_group(LAZY_FIELD), 3)
    xs = _nonzero_ext(rng, 569, CALLS[name], distinct=True)
    out[name] = _rate(clock, CALLS[name], table.index, [(x,) for x in xs])

    name = "algebra.prime_sub_per_s"
    fld = algebra.make_group(algebra.PrimeField(PRIME_Q))
    pairs = [
        (rng.randrange(PRIME_Q), rng.randrange(PRIME_Q))
        for _ in range(CALLS[name])
    ]
    out[name] = _rate(clock, CALLS[name], fld.sub, pairs)

    name = "algebra.product_add_per_s"
    f19 = algebra.PrimeField(19)
    fld = algebra.make_group(algebra.Product(f19, f19))
    elems = fld.elements()
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(CALLS[name])]
    out[name] = _rate(clock, CALLS[name], fld.add, pairs)

    name = "schema.block_lines_per_s"
    hesse = schema.builtin_schema("hesse")
    blocks = [
        schema.OrderedBlock(hesse, tuple(rng.sample(elems, hesse.k)))
        for _ in range(500)
    ]
    calls = [(blocks[i % len(blocks)],) for i in range(CALLS[name])]
    out[name] = _rate(clock, CALLS[name], schema.OrderedBlock.lines, calls)
    return out
