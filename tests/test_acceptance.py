"""Acceptance gate: thirteen numbered end-to-end checks.

Each test prints one line, `acceptance NN PASS <elapsed> (budget ...)`,
through the capture so the result and its runtime stay visible in the
normal pytest output. A body failure surfaces as an ordinary failed
test; a budget overrun prints FAIL and then asserts.
"""

import time
from collections import Counter
from itertools import combinations

from kaleido.algebra import (
    CyclotomicTable,
    ExtensionField,
    PrimeField,
    make_group,
)
from kaleido.compose import compose_kdf, field_dm
from kaleido.designs import (
    KaleidoscopicDifferenceFamily,
    PairwiseBalancedDesign,
    delta,
    develop,
    replicate,
    verify_df,
    verify_kaleidoscope,
    verify_kdf,
)
from kaleido.schema import builtin_schema
from kaleido import search, tables
from kaleido.search import (
    FANO_AFFINE,
    FANO_POWERS,
    HESSE_POWERS,
    consecutive_block_primes,
    exhaustive_nonexistence,
    form_block,
    generate_kdf_from_initial_block,
    parametric_search,
    prefix_block_search,
    verify_listed_block,
)

F19 = make_group(PrimeField(19))
FANO = builtin_schema("fano")
HESSE = builtin_schema("hesse")


def _finish(capsys, num, budget, t0, detail):
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget
    status = "PASS" if ok else "FAIL over budget"
    with capsys.disabled():
        print(
            f"acceptance {num:02d} {status} {elapsed:7.2f}s"
            f" (budget {budget:>5.0f}s)  {detail}"
        )
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_order19_seven_point_family(capsys):
    """The listed order-19 blocks form a colored family and each color
    class is a (19, 3, 1) difference family with the displayed sets."""
    t0 = time.perf_counter()
    raw = (
        (0, 1, 2, 4, 5, 11, 8),
        (0, 7, 14, 9, 16, 1, 18),
        (0, 11, 3, 6, 17, 7, 12),
    )
    blocks = raw
    kdf = KaleidoscopicDifferenceFamily(F19, FANO, blocks, {})
    assert verify_kdf(kdf).valid
    displayed = [
        [{0, 1, 4}, {0, 7, 9}, {0, 11, 6}],
        [{1, 2, 5}, {7, 14, 16}, {11, 3, 17}],
        [{2, 4, 11}, {14, 9, 1}, {3, 6, 7}],
        [{4, 5, 8}, {9, 16, 18}, {6, 17, 12}],
        [{5, 11, 0}, {16, 1, 0}, {17, 7, 0}],
        [{11, 8, 1}, {1, 18, 7}, {7, 12, 11}],
        [{8, 0, 2}, {18, 0, 14}, {12, 0, 3}],
    ]
    for j in range(7):
        color_class = [FANO.lines_at(b)[j] for b in blocks]
        assert [set(s) for s in color_class] == displayed[j]
        assert verify_df(color_class, F19, 3, 1).valid
    _finish(capsys, 1, 1.0, t0, "3 blocks, 7 color classes at lambda 1")


def test_criterion_02_order19_nine_point_family(capsys):
    """B, 7B, 11B with the listed nine-point B is a valid family."""
    t0 = time.perf_counter()
    base = (0, 1, 2, 3, 7, 16, 8, 4, 10)
    blocks = tuple(tuple(F19.mul(s, x) for x in base) for s in (1, 7, 11))
    kdf = KaleidoscopicDifferenceFamily(F19, HESSE, blocks, {})
    assert verify_kdf(kdf).valid
    made = generate_kdf_from_initial_block(F19, base, mode="sixth_powers")
    assert made.blocks == blocks
    _finish(capsys, 2, 1.0, t0, "scaled family {B, 7B, 11B} valid")


def test_criterion_03_affine_prime_table(capsys):
    """All 35 (p, x) witnesses for the seven-point affine form."""
    t0 = time.perf_counter()
    assert len(tables.FANO_AFFINE_PRIMES) == 35
    assert tables.FANO_AFFINE_PRIMES[37] == 13
    assert tables.FANO_AFFINE_PRIMES[577] == 80
    for p, x in sorted(tables.FANO_AFFINE_PRIMES.items()):
        field = make_group(PrimeField(p))
        block = form_block(field, FANO_AFFINE, x)
        assert verify_listed_block(field, block), p
    _finish(capsys, 3, 5.0, t0, "35 affine witnesses valid, 37..577")


def test_criterion_04_alternative_seven_point_blocks(capsys):
    """Hand-listed blocks for the primes the affine form misses."""
    t0 = time.perf_counter()
    assert sorted(tables.FANO_ALT_BLOCKS) == [31, 43, 61, 79, 127, 199]
    for p, block in sorted(tables.FANO_ALT_BLOCKS.items()):
        field = make_group(PrimeField(p))
        assert verify_listed_block(field, block), p
    _finish(capsys, 4, 1.0, t0, "6 listed blocks valid")


def test_criterion_05_prime_square_tables(capsys):
    """Power-form witnesses over both families of prime squares."""
    t0 = time.perf_counter()
    assert len(tables.FANO_SQUARE_T2M3) == 27
    assert len(tables.FANO_SQUARE_T2P1) == 27
    for data, base in (
        (tables.FANO_SQUARE_T2M3, (-3, 0, 1)),
        (tables.FANO_SQUARE_T2P1, (1, 0, 1)),
    ):
        for p, (c0, c1) in sorted(data.items()):
            coeffs = tuple(c % p for c in base)
            field = make_group(ExtensionField(p, coeffs))
            block = form_block(field, FANO_POWERS, (c0 % p, c1 % p))
            assert len(set(block)) == 7, p
            assert verify_listed_block(field, block), p
    _finish(capsys, 5, 30.0, t0, "54 square witnesses valid, 27 + 27")


def test_criterion_06_order_13_extensions(capsys):
    """The degree-2 affine and degree-3 power witnesses over 13."""
    t0 = time.perf_counter()
    f169 = make_group(ExtensionField(13, (11, 0, 1)))
    block = form_block(f169, FANO_AFFINE, (6, 2))
    assert verify_listed_block(f169, block)
    kdf = generate_kdf_from_initial_block(f169, block)
    assert len(kdf.blocks) == 28
    assert verify_kdf(kdf).valid

    f2197 = make_group(ExtensionField(13, (11, 0, 0, 1)))
    block = form_block(f2197, FANO_POWERS, (10, 7, 11))
    assert verify_listed_block(f2197, block)
    kdf = generate_kdf_from_initial_block(f2197, block)
    assert len(kdf.blocks) == 366
    assert verify_kdf(kdf).valid
    _finish(capsys, 6, 10.0, t0, "orders 169 and 2197 valid end to end")


def test_criterion_07_nine_point_tables(capsys):
    """Power-form primes, exceptional nine-tuples, prime-square blocks."""
    t0 = time.perf_counter()
    assert tables.HESSE_PRIME_X[97] == 14
    assert tables.HESSE_PRIME_X[277] == 97
    for p, x in sorted(tables.HESSE_PRIME_X.items()):
        field = make_group(PrimeField(p))
        block = form_block(field, HESSE_POWERS, x)
        assert verify_listed_block(field, block), p
    assert sorted(tables.HESSE_ALT_BLOCKS) == [31, 37, 43, 61, 67, 73, 79]
    for p, block in sorted(tables.HESSE_ALT_BLOCKS.items()):
        field = make_group(PrimeField(p))
        assert verify_listed_block(field, block), p
    assert sorted(tables.HESSE_SQUARE_BLOCKS) == [5, 11, 13, 17, 23, 29]
    for p, entry in sorted(tables.HESSE_SQUARE_BLOCKS.items()):
        coeffs = tuple(c % p for c in entry["modulus"])
        field = make_group(ExtensionField(p, coeffs))
        block = tuple((c0 % p, c1 % p) for c0, c1 in entry["block"])
        assert verify_listed_block(field, block), p
    _finish(capsys, 7, 30.0, t0, "8 primes, 7 nine-tuples, 6 squares valid")


def test_criterion_08_consecutive_block_primes(capsys):
    """Primes below 1000 where (0, ..., 6) itself is an initial block."""
    t0 = time.perf_counter()
    found = consecutive_block_primes(1000)
    assert found == [7, 541, 571, 877, 937]
    for p in found:
        field = make_group(PrimeField(p))
        assert verify_listed_block(field, tuple(range(7))), p
    _finish(capsys, 8, 5.0, t0, "primes 7, 541, 571, 877, 937 confirmed")


def test_criterion_09_order_13_nonexistence(capsys):
    """The full normalized sweep at order 13 finds nothing."""
    t0 = time.perf_counter()
    cert = exhaustive_nonexistence(13, "fano", jobs=8)
    assert cert.solutions == 0
    assert cert.exhausted
    assert cert.first_solution is None
    assert cert.nodes_visited == 1_284_517
    _finish(
        capsys, 9, 3600.0, t0,
        f"0 families in {cert.nodes_visited} nodes, exhausted, jobs 8",
    )


def test_criterion_10_replication_color_table(capsys):
    """Replicating the one-block design on 7 points yields the rotating
    color table: copy j holds the base lines shifted j colors around."""
    t0 = time.perf_counter()
    trivial = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    scope = replicate(trivial, FANO)
    assert len(scope.planes) == 7
    assert verify_kaleidoscope(scope).valid
    base = [frozenset(line) for line in FANO.lines]
    for j, plane in enumerate(scope.planes):
        for c in range(7):
            assert scope.lines_of(plane)[c] == base[(c - j) % 7], (j, c)
    _finish(capsys, 10, 1.0, t0, "7 planes, rotated colors, all pairs once")


def test_criterion_11_composed_orders_133_and_361(capsys):
    """Products of the small families through multiplication tables."""
    t0 = time.perf_counter()
    f7 = make_group(PrimeField(7))
    fano7 = generate_kdf_from_initial_block(f7, (0, 1, 2, 3, 4, 5, 6))
    fano19 = generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))
    out = compose_kdf(fano7, fano19, field_dm(F19, 7))
    assert out.group.order == 133
    assert len(out.blocks) == 22
    assert verify_kdf(out).valid
    scope = develop(out)
    assert len(scope.points) == 133
    assert len(scope.planes) == 2926
    rep = verify_kaleidoscope(scope)
    assert rep.valid
    mid = time.perf_counter() - t0
    assert mid < 30.0

    hesse19 = generate_kdf_from_initial_block(
        F19, (0, 1, 2, 3, 7, 16, 8, 4, 10)
    )
    out = compose_kdf(hesse19, hesse19, field_dm(F19, 9))
    assert out.group.order == 361
    assert len(out.blocks) == 60
    assert verify_kdf(out).valid
    scope = develop(out)
    assert len(scope.planes) == 21660
    assert verify_kaleidoscope(scope).valid
    _finish(
        capsys, 11, 150.0, t0,
        f"order 133 in {mid:.2f}s (budget 30s), order 361 after",
    )


def test_criterion_12_small_field_property_suites(capsys):
    """Oracle equivalences over every field of order 7 through 37."""
    t0 = time.perf_counter()
    fields = [
        make_group(PrimeField(7)),
        make_group(PrimeField(13)),
        make_group(PrimeField(19)),
        make_group(ExtensionField(5, (2, 0, 1))),
        make_group(PrimeField(31)),
        make_group(PrimeField(37)),
    ]

    # reduced line filters accept exactly what the full predicate accepts
    for field in fields:
        table = CyclotomicTable(field, 3)
        for form in (FANO_AFFINE, FANO_POWERS, HESSE_POWERS):
            builder, _, shortcut = search._FORMS[form]
            for x in field.elements():
                pts = builder(field, x)
                if len(set(pts)) != len(pts):
                    continue
                quick = all(
                    search._line_spreads(
                        tuple(pts[i] for i in positions), field, table.index
                    )
                    for positions in shortcut
                )
                assert quick == verify_listed_block(field, pts), (
                    field.order, form, x,
                )

    # difference multisets respect every translation and every scaling
    for field in fields:
        elements = field.elements()
        nonzero = [x for x in elements if x != field.zero]
        for trip in combinations(elements, 3):
            base = Counter(delta(trip, field))
            for g in elements:
                shifted = tuple(field.add(x, g) for x in trip)
                assert Counter(delta(shifted, field)) == base
            for s in nonzero:
                scaled = tuple(field.mul(x, s) for x in trip)
                want = Counter(field.mul(d, s) for d in base.elements())
                assert Counter(delta(scaled, field)) == want

    # developed families, colors forgotten, are uniform pair covers;
    # order 13 has no seven-point family (the exhaustive sweep proves
    # that), so the development check runs on the orders that have one
    f25 = fields[3]
    x25 = tables.FANO_SQUARE_T2M3[5]
    cases = [
        (fields[0], (0, 1, 2, 3, 4, 5, 6), FANO),
        (F19, (0, 1, 2, 4, 5, 11, 8), FANO),
        (f25, form_block(f25, FANO_POWERS, x25), FANO),
        (fields[4], tables.FANO_ALT_BLOCKS[31], FANO),
        (fields[5], form_block(fields[5], FANO_AFFINE, 13), FANO),
        (F19, (0, 1, 2, 3, 7, 16, 8, 4, 10), HESSE),
    ]
    for field, points, schema in cases:
        kdf = generate_kdf_from_initial_block(field, points, schema)
        scope = develop(kdf)
        counts = Counter()
        for plane in scope.planes:
            support = set().union(*scope.lines_of(plane))
            for pair in combinations(sorted(support, key=repr), 2):
                counts[frozenset(pair)] += 1
        n = len(scope.points)
        assert len(counts) == n * (n - 1) // 2
        assert set(counts.values()) == {schema.b}
    _finish(
        capsys, 12, 60.0, t0,
        "filters, difference invariance, pair counts all agree",
    )


def test_criterion_13_unlisted_nine_point_primes(capsys):
    """Orders where the power form fails but a direct search succeeds."""
    t0 = time.perf_counter()
    found = {}
    for p in (109, 127, 151):
        field = make_group(PrimeField(p))
        start = time.perf_counter()
        res = parametric_search(field, HESSE_POWERS)
        if res is not None:
            block = res.block
        else:
            got = prefix_block_search(field, "hesse")
            assert got is not None, p
            block = got.points
        assert verify_listed_block(field, block), p
        assert time.perf_counter() - start < 600.0, p
        found[p] = block
    _finish(
        capsys, 13, 1800.0, t0,
        "blocks found at 109, 127, 151 within the per-prime budget",
    )
