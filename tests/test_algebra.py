"""Field and group arithmetic, cyclotomic classes, transversals."""

import json
import math
import random
import subprocess
import sys
import tracemalloc
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaleido import algebra
from kaleido.algebra import (
    Cyclic,
    CyclicGroup,
    CyclotomicTable,
    ExtensionField,
    ExtensionFieldGroup,
    PrimeField,
    PrimeFieldGroup,
    Product,
    ProductGroup,
    QuadraticFieldGroup,
    CubicFieldGroup,
    descriptor_from_json,
    find_irreducible,
    is_prime,
    make_group,
    prime_factors,
    primitive_element,
    transversal,
    _is_irreducible,
)
from kaleido.errors import (
    BadCongruence,
    MalformedInput,
    NonPrimeModulus,
    OrderTooSmall,
    ReducibleModulus,
    UnsupportedOrder,
    ZeroElement,
)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_below_200000():
    assert [n for n in range(200_000) if is_prime(n)] == [
        n for n in range(200_000) if _trial_division_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        3_215_031_751,  # to bases 2, 3, 5 and 7
        3_825_123_056_546_413_051,  # to every prime base up to 31
        # to every prime base up to 37; only base 41 catches it
        318_665_857_834_031_151_167_461,
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    # below the Miller-Rabin bound, so no trial division runs
    assert not is_prime((2**61 - 1) * (2**13 - 1))


def test_is_prime_refuses_a_probable_prime_past_the_bound():
    """Past the bound a failing base still proves n composite, but a
    number that passes every base is refused, at once."""
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    with pytest.raises(UnsupportedOrder, match=str(algebra._MR_BOUND)):
        is_prime(2**89 - 1)


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(169) == [13]


def _trial_division_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def test_prime_factors_matches_trial_division_below_200000():
    for n in range(200_000):
        assert prime_factors(n) == _trial_division_factors(n), n


@pytest.mark.parametrize(
    "n,want",
    [
        # q - 1 for the prime q = 1,729,382,256,910,273,363
        (1_729_382_256_910_273_362, [2, 3, 288_230_376_151_712_227]),
        (2**61 - 2, [2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321]),
        (6 * 998_244_353 * (10**9 + 7), [2, 3, 998_244_353, 10**9 + 7]),
        (6 * (2**31 - 1) * 2_147_483_659, [2, 3, 2**31 - 1, 2_147_483_659]),
    ],
)
def test_prime_factors_splits_large_cofactors(n, want):
    assert prime_factors(n) == want


def test_prime_factors_past_the_trial_limit():
    """Products of primes just above the trial limit, squares included,
    times small factors: rho must split them all."""
    rng = random.Random(5)
    primes = [p for p in range(1025, 20_000) if is_prime(p)]
    for _ in range(300):
        big = sorted(rng.sample(primes, rng.randint(1, 3)))
        n = rng.choice([1, 2, 12, 1018])
        for p in big:
            n *= p ** rng.randint(1, 2)
        assert prime_factors(n) == _trial_division_factors(n), n


def test_cyclic_group_basics():
    g = make_group(Cyclic(12))
    assert g.order == 12
    assert g.add(7, 8) == 3
    assert g.neg(5) == 7
    assert g.sub(3, 7) == 8
    assert list(g.elements()) == list(range(12))
    assert not g.is_field


def test_prime_field_basics():
    f = make_group(PrimeField(19))
    assert f.is_field
    assert f.mul(7, 11) == 1
    assert f.inv(7) == 11
    assert f.pow_(2, 18) == 1
    with pytest.raises(ZeroElement):
        f.inv(0)


# Run in a subprocess with a timeout, so that a square-and-multiply loop
# that never ends (a negative n shifted right stays -1) fails the test
# instead of hanging the suite. The fields use the degree-2 kernel, the
# generic one at degrees 3 and 4, and the prime field's builtin pow. Zero
# is also spelled with a coefficient p, which must raise all the same.
_NEGATIVE_POWERS = """
from kaleido.algebra import ExtensionField, PrimeField, make_group
from kaleido.errors import ZeroElement
for desc in (ExtensionField(5, (2, 0, 1)), ExtensionField(7, (4, 0, 0, 1)),
             ExtensionField(3, (2, 1, 0, 0, 1)), PrimeField(37)):
    f = make_group(desc)
    x = f[2]
    print(f.pow_(x, -1) == f.inv(x), f.pow_(x, -5) == f.pow_(f.inv(x), 5))
    d = len(f.zero) if isinstance(f.zero, tuple) else 0
    zeros = [f.zero] + ([tuple(f.p * (i == j) for i in range(d))
                         for j in range(d)] if d else [f.p])
    for z in zeros:
        for call in (lambda: f.inv(z), lambda: f.pow_(z, -1)):
            try:
                call()
            except ZeroElement:
                continue
            print("no error", z)
    print("ZeroElement")
"""


def test_negative_exponents_invert_first():
    proc = subprocess.run(
        [sys.executable, "-c", _NEGATIVE_POWERS],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["True True", "ZeroElement"] * 4 + [""]


def test_prime_field_rejects_composite():
    with pytest.raises(NonPrimeModulus):
        make_group(PrimeField(21))


def test_extension_field_mul():
    # t * t = 3 in Z5[t]/(t^2 - 3); coefficients are stored low to high
    f = make_group(ExtensionField(5, (2, 0, 1)))  # t^2 + 2 = t^2 - 3
    t = (0, 1)
    assert f.mul(t, t) == (3, 0)
    assert f.one == (1, 0)
    assert f.mul((4, 1), f.inv((4, 1))) == f.one


# --- the closed-form product of quadratic extensions ---


def _quadratic_reference(p, modulus):
    """The product of Z_p[t]/(modulus) by plain convolution.

    The product of two linear polynomials has degree 2 at most, and its
    t^2 term is reduced by t^2 = -m0 - m1 t, read off the modulus.
    """
    m0, m1, _ = modulus

    def mul(a, b):
        c = [0, 0, 0]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        return ((c[0] - c[2] * m0) % p, (c[1] - c[2] * m1) % p)

    return mul


def _irreducible_with_linear_term(p):
    """The smallest monic irreducible t^2 + m1 t + m0 with m1 != 0 and
    m0 != m1, so that t^2 = r0 + r1 t has r0 != r1."""
    return next(
        (m0, m1, 1)
        for m1 in range(1, p)
        for m0 in range(p)
        if m0 != m1 and _is_irreducible((m0, m1, 1), p)
    )


def _quadratic_moduli(p):
    """The canonical modulus, which has m1 = 0 or m0 = m1 for every p
    tested here, and one whose reduction has distinct coefficients."""
    return [find_irreducible(p, 2), _irreducible_with_linear_term(p)]


def test_degree_two_gets_the_closed_form_product():
    f25 = make_group(ExtensionField(5, (2, 0, 1)))
    f27 = make_group(ExtensionField(3, find_irreducible(3, 3)))
    f81 = make_group(ExtensionField(3, find_irreducible(3, 4)))
    assert type(f25) is QuadraticFieldGroup
    assert type(f27) is CubicFieldGroup
    assert type(f81) is ExtensionFieldGroup
    assert isinstance(f25, ExtensionFieldGroup)
    assert isinstance(f27, ExtensionFieldGroup)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_quadratic_mul_matches_convolution_on_every_pair(p):
    for modulus in _quadratic_moduli(p):
        f = make_group(ExtensionField(p, modulus))
        ref = _quadratic_reference(p, modulus)
        elems = f.elements()
        for a in elems:
            for b in elems:
                assert f.mul(a, b) == ref(a, b), (modulus, a, b)


@pytest.mark.parametrize("p", [569, 487])
def test_quadratic_mul_matches_convolution_on_seeded_pairs(p):
    rng = random.Random(p)
    for modulus in _quadratic_moduli(p):
        f = make_group(ExtensionField(p, modulus))
        ref = _quadratic_reference(p, modulus)
        for _ in range(2000):
            a = (rng.randrange(p), rng.randrange(p))
            b = (rng.randrange(p), rng.randrange(p))
            assert f.mul(a, b) == ref(a, b), (modulus, a, b)


QUADRATIC_PRIMES = [p for p in range(5, 45) if is_prime(p)]


def _agree_at_edge_exponents(fast, slow, rng):
    """Powers at the exponents where a kernel is likeliest to slip, equal
    to the generic class's and, for a negative n, to powers of ``inv``.

    The exponents are the ends of the unit group, the character
    exponents (q - 1)/3 and (q - 1)/6, one of 201 bits, and -1 and -5.
    Zero, also spelled with one coefficient p, raises ``ZeroElement``
    under ``inv`` and a negative n.
    """
    q = fast.order
    exponents = [0, 1, 2, q - 2, q - 1, q, (q - 1) // 3, -1, -5]
    if (q - 1) % 6 == 0:
        exponents.append((q - 1) // 6)
    exponents.append(rng.getrandbits(200) | 1 << 200)
    units = [fast.one, fast[1], fast[fast.p], fast[q - 1]]
    units += [fast[rng.randrange(1, q)] for _ in range(8)]
    for x in units:
        inverse = fast.inv(x)
        assert inverse == slow.inv(x) == fast.pow_(x, -1), x
        assert fast.mul(inverse, x) == fast.one, x
        for n in exponents:
            got = fast.pow_(x, n)
            assert got == slow.pow_(x, n), (x, n)
            if n < 0:
                assert got == slow.pow_(inverse, -n) == fast.pow_(inverse, -n)
    p, d = fast.p, len(fast.zero)
    zeros = [fast.zero] + [tuple(p * (i == j) for i in range(d)) for j in range(d)]
    for z in zeros:
        for n in exponents:
            if n >= 0:
                want = fast.one if n == 0 else fast.zero
                assert fast.pow_(z, n) == slow.pow_(z, n) == want, (z, n)
            else:
                for group in (fast, slow):
                    with pytest.raises(ZeroElement):
                        group.pow_(z, n)
        with pytest.raises(ZeroElement):
            fast.inv(z)


@pytest.mark.parametrize("p", QUADRATIC_PRIMES)
def test_quadratic_field_agrees_with_the_generic_class(p):
    """Every p^2 = 1 (mod 6) below 2,000: powers, at random and at the
    edge exponents, the primitive element and the cube classes are those
    of the generic convolution loop."""
    modulus = find_irreducible(p, 2)
    fast = make_group(ExtensionField(p, modulus))
    slow = ExtensionFieldGroup(ExtensionField(p, modulus))
    assert type(slow) is not type(fast)
    q = p * p
    assert q % 6 == 1
    rng = random.Random(q)
    for _ in range(200):
        x = (rng.randrange(p), rng.randrange(p))
        n = rng.randrange(2 * q)
        assert fast.pow_(x, n) == slow.pow_(x, n), (x, n)
    _agree_at_edge_exponents(fast, slow, rng)
    assert primitive_element(fast) == primitive_element(slow)
    fast_tab, slow_tab = CyclotomicTable(fast, 3), CyclotomicTable(slow, 3)
    for x in fast.elements()[1:]:
        assert fast_tab.index(x) == slow_tab.index(x), x


# --- the closed-form product of cubic extensions ---


def _cubic_reference(p, modulus):
    """The product of Z_p[t]/(modulus) by plain convolution.

    The product of two quadratics has degree 4 at most; its t^4 and then
    its t^3 term are reduced by t^3 = -m0 - m1 t - m2 t^2.
    """

    def mul(a, b):
        c = [0] * 5
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        for top in (4, 3):
            for i in range(3):
                c[top - 3 + i] -= c[top] * modulus[i]
        return tuple(x % p for x in c[:3])

    return mul


def _irreducible_with_full_reduction(p):
    """The smallest monic irreducible t^3 + m2 t^2 + m1 t + m0 with m0, m1
    and m2 all nonzero, so that t^3 = r0 + r1 t + r2 t^2 has r0, r1 and r2
    all nonzero; None when there is none (p = 2)."""
    return next(
        (
            (m0, m1, m2, 1)
            for m2 in range(1, p)
            for m1 in range(1, p)
            for m0 in range(1, p)
            if _is_irreducible((m0, m1, m2, 1), p)
        ),
        None,
    )


def _cubic_moduli(p):
    """The canonical modulus, and one whose t^3 has no zero coefficient."""
    full = _irreducible_with_full_reduction(p)
    return [find_irreducible(p, 3)] + ([full] if full else [])


@pytest.mark.parametrize("p", [3, 5, 7, 61])
def test_a_cubic_modulus_with_every_reduction_coefficient_nonzero(p):
    modulus = _irreducible_with_full_reduction(p)
    assert modulus is not None
    f = make_group(ExtensionField(p, modulus))
    assert all(f._red[0]), f._red


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cubic_mul_matches_convolution_on_every_pair(p):
    for modulus in _cubic_moduli(p):
        f = make_group(ExtensionField(p, modulus))
        assert type(f) is CubicFieldGroup
        ref = _cubic_reference(p, modulus)
        elems = f.elements()
        for a in elems:
            for b in elems:
                assert f.mul(a, b) == ref(a, b), (modulus, a, b)


def test_cubic_mul_matches_convolution_on_seeded_pairs():
    p = 61
    rng = random.Random(p**3)
    for modulus in _cubic_moduli(p):
        f = make_group(ExtensionField(p, modulus))
        ref = _cubic_reference(p, modulus)
        for _ in range(2000):
            a = tuple(rng.randrange(p) for _ in range(3))
            b = tuple(rng.randrange(p) for _ in range(3))
            assert f.mul(a, b) == ref(a, b), (modulus, a, b)


@pytest.mark.parametrize("p", [7, 13])
def test_cubic_field_agrees_with_the_generic_class(p):
    """Powers, at random and at the edge exponents, the primitive element
    and the cube classes of p^3 = 1 (mod 6) are those of the generic
    convolution loop."""
    for modulus in _cubic_moduli(p):
        fast = make_group(ExtensionField(p, modulus))
        slow = ExtensionFieldGroup(ExtensionField(p, modulus))
        assert type(slow) is not type(fast)
        q = p**3
        assert q % 6 == 1
        rng = random.Random(q)
        for _ in range(200):
            x = tuple(rng.randrange(p) for _ in range(3))
            n = rng.randrange(2 * q)
            assert fast.pow_(x, n) == slow.pow_(x, n), (x, n)
        _agree_at_edge_exponents(fast, slow, rng)
        assert primitive_element(fast) == primitive_element(slow)
        fast_tab, slow_tab = CyclotomicTable(fast, 3), CyclotomicTable(slow, 3)
        for x in fast.elements()[1:]:
            assert fast_tab.index(x) == slow_tab.index(x), x


def test_extension_field_rejects_reducible():
    with pytest.raises(ReducibleModulus):
        make_group(ExtensionField(5, (4, 0, 1)))  # t^2 - 1 = (t-1)(t+1)


def test_extension_field_rejects_non_monic():
    with pytest.raises(MalformedInput):
        make_group(ExtensionField(5, (1, 0, 2)))


def test_find_irreducible_is_canonical():
    # deterministic: first monic irreducible in coefficient order
    assert find_irreducible(13, 2) == find_irreducible(13, 2)
    f = make_group(ExtensionField(13, find_irreducible(13, 2)))
    assert f.order == 169
    mod = find_irreducible(2, 3)
    f = make_group(ExtensionField(2, mod))
    assert f.order == 8


def _divides(divisor, poly, p):
    """Long division over Z_p by a monic divisor; True on zero remainder."""
    rem = list(poly)
    while len(rem) >= len(divisor):
        lead = rem[-1]
        shift = len(rem) - len(divisor)
        for i, c in enumerate(divisor):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return not any(rem)


def _irreducible_by_trial_division(poly, p):
    """Reference: no monic divisor of any degree 1 up to deg/2."""
    d = len(poly) - 1
    return not any(
        _divides(low + (1,), poly, p)
        for m in range(1, d // 2 + 1)
        for low in product(range(p), repeat=m)
    )


@pytest.mark.parametrize(
    "p,degree", [(2, 2), (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (2, 3),
                 (3, 3), (5, 3), (7, 3), (11, 3), (2, 4), (3, 4), (5, 4)],
)
def test_irreducibility_matches_trial_division(p, degree):
    for low in product(range(p), repeat=degree):
        poly = low + (1,)
        assert _is_irreducible(poly, p) == _irreducible_by_trial_division(
            poly, p
        ), poly


# The first monic irreducible in canonical coefficient order for every
# prime p < 200 at degrees 2 and 3 and p < 50 at degree 4, pinned from the
# earlier residue-scan and divisor-enumeration test, so that a faster
# test cannot move a canonical modulus.
FIRST_IRREDUCIBLE = {
    (2, 2): (1, 1, 1), (3, 2): (1, 0, 1), (5, 2): (1, 1, 1), (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1), (13, 2): (1, 3, 1), (17, 2): (1, 1, 1),
    (19, 2): (1, 0, 1), (23, 2): (1, 0, 1), (29, 2): (1, 1, 1),
    (31, 2): (1, 0, 1), (37, 2): (1, 3, 1), (41, 2): (1, 1, 1),
    (43, 2): (1, 0, 1), (47, 2): (1, 0, 1), (53, 2): (1, 1, 1),
    (59, 2): (1, 0, 1), (61, 2): (1, 5, 1), (67, 2): (1, 0, 1),
    (71, 2): (1, 0, 1), (73, 2): (1, 3, 1), (79, 2): (1, 0, 1),
    (83, 2): (1, 0, 1), (89, 2): (1, 1, 1), (97, 2): (1, 3, 1),
    (101, 2): (1, 1, 1), (103, 2): (1, 0, 1), (107, 2): (1, 0, 1),
    (109, 2): (1, 6, 1), (113, 2): (1, 1, 1), (127, 2): (1, 0, 1),
    (131, 2): (1, 0, 1), (137, 2): (1, 1, 1), (139, 2): (1, 0, 1),
    (149, 2): (1, 1, 1), (151, 2): (1, 0, 1), (157, 2): (1, 3, 1),
    (163, 2): (1, 0, 1), (167, 2): (1, 0, 1), (173, 2): (1, 1, 1),
    (179, 2): (1, 0, 1), (181, 2): (1, 5, 1), (191, 2): (1, 0, 1),
    (193, 2): (1, 3, 1), (197, 2): (1, 1, 1), (199, 2): (1, 0, 1),
    (2, 3): (1, 0, 1, 1), (3, 3): (1, 0, 2, 1), (5, 3): (1, 0, 1, 1),
    (7, 3): (1, 0, 1, 1), (11, 3): (1, 0, 4, 1), (13, 3): (1, 0, 4, 1),
    (17, 3): (1, 0, 3, 1), (19, 3): (1, 0, 1, 1), (23, 3): (1, 0, 3, 1),
    (29, 3): (1, 0, 2, 1), (31, 3): (1, 0, 3, 1), (37, 3): (1, 0, 5, 1),
    (41, 3): (1, 0, 1, 1), (43, 3): (1, 0, 9, 1), (47, 3): (1, 0, 5, 1),
    (53, 3): (1, 0, 2, 1), (59, 3): (1, 0, 1, 1), (61, 3): (1, 0, 3, 1),
    (67, 3): (1, 0, 5, 1), (71, 3): (1, 0, 1, 1), (73, 3): (1, 0, 7, 1),
    (79, 3): (1, 0, 2, 1), (83, 3): (1, 0, 3, 1), (89, 3): (1, 0, 4, 1),
    (97, 3): (1, 0, 1, 1), (101, 3): (1, 0, 1, 1), (103, 3): (1, 0, 1, 1),
    (107, 3): (1, 0, 1, 1), (109, 3): (1, 0, 1, 1), (113, 3): (1, 0, 1, 1),
    (127, 3): (1, 0, 2, 1), (131, 3): (1, 0, 10, 1), (137, 3): (1, 0, 2, 1),
    (139, 3): (1, 0, 5, 1), (149, 3): (1, 0, 9, 1), (151, 3): (1, 0, 4, 1),
    (157, 3): (1, 0, 1, 1), (163, 3): (1, 0, 1, 1), (167, 3): (1, 0, 2, 1),
    (173, 3): (1, 0, 3, 1), (179, 3): (1, 0, 4, 1), (181, 3): (1, 0, 2, 1),
    (191, 3): (1, 0, 1, 1), (193, 3): (1, 0, 1, 1), (197, 3): (1, 0, 3, 1),
    (199, 3): (1, 0, 2, 1),
    (2, 4): (1, 0, 0, 1, 1), (3, 4): (1, 0, 1, 1, 1), (5, 4): (1, 0, 1, 1, 1),
    (7, 4): (1, 0, 0, 1, 1), (11, 4): (1, 0, 0, 4, 1),
    (13, 4): (1, 0, 0, 1, 1), (17, 4): (1, 0, 0, 3, 1),
    (19, 4): (1, 0, 0, 6, 1), (23, 4): (1, 0, 0, 4, 1),
    (29, 4): (1, 0, 0, 3, 1), (31, 4): (1, 0, 0, 1, 1),
    (37, 4): (1, 0, 0, 5, 1), (41, 4): (1, 0, 0, 1, 1),
    (43, 4): (1, 0, 0, 5, 1), (47, 4): (1, 0, 0, 5, 1),
}


def test_find_irreducible_results_unchanged():
    assert {
        (p, d): find_irreducible(p, d) for p, d in FIRST_IRREDUCIBLE
    } == FIRST_IRREDUCIBLE


def test_product_group():
    g = make_group(Product(PrimeField(7), PrimeField(19)))
    assert g.order == 133
    a = (3, 10)
    b = (5, 12)
    assert g.add(a, b) == (1, 3)
    assert g.neg((3, 10)) == (4, 9)
    assert len(g.elements()) == 133


CANONICAL_DESCRIPTORS = [
    Cyclic(21),
    PrimeField(7),
    ExtensionField(5, (2, 0, 1)),
    ExtensionField(7, (4, 0, 0, 1)),
    ExtensionField(3, find_irreducible(3, 4)),
]


@pytest.mark.parametrize(
    "desc",
    CANONICAL_DESCRIPTORS,
    ids=["cyclic", "prime", "degree-2", "degree-3", "degree-4"],
)
def test_a_group_keeps_the_descriptor_it_was_made_from(desc):
    assert make_group(desc).descriptor is desc


def test_a_product_builds_its_descriptor_from_its_factors():
    left, right = PrimeField(7), ExtensionField(5, (2, 0, 1))
    g = make_group(Product(left, right))
    assert g.descriptor == Product(left, right)
    assert g.left.descriptor is left and g.right.descriptor is right


@pytest.mark.parametrize(
    "modulus",
    [(-3, 0, 1), [2, 0, 1], (2, 5, 6)],
    ids=["negative", "list", "past-p"],
)
def test_an_extension_field_keeps_its_modulus_reduced(modulus):
    desc = make_group(ExtensionField(5, modulus)).descriptor
    assert desc.modulus == (2, 0, 1)
    assert type(desc.modulus) is tuple


def test_a_true_coefficient_is_written_as_1():
    """(True, 0, 1) equals (1, 0, 1) item by item, yet it is not a tuple
    of residues: the group keeps a descriptor that writes 1."""
    g = make_group(ExtensionField(3, (True, 0, 1)))
    assert list(map(type, g.descriptor.modulus)) == [int, int, int]
    assert json.dumps(g.to_json()["modulus"]) == "[1, 0, 1]"


def test_extension_elements_canonical_order():
    f = make_group(ExtensionField(3, find_irreducible(3, 2)))
    els = f.elements()
    assert els[0] == (0, 0)
    assert els[1] == (0, 1)
    assert els[3] == (1, 0)
    assert len(els) == 9


def test_descriptor_json_round_trip():
    descs = [
        Cyclic(13),
        PrimeField(19),
        ExtensionField(5, (2, 0, 1)),
        Product(PrimeField(7), Cyclic(4)),
    ]
    for d in descs:
        assert descriptor_from_json(make_group(d).to_json()) == d


def test_element_json_round_trip():
    f = make_group(ExtensionField(5, (2, 0, 1)))
    x = (4, 3)
    assert f.decoder()(f.encoder()(x)) == x
    p = make_group(Product(PrimeField(7), PrimeField(19)))
    y = (6, 18)
    assert p.decoder()(p.encoder()(y)) == y


@pytest.mark.parametrize(
    "obj,message",
    [
        (
            {"kind": "cyclic", "v": "7"},
            "cyclic descriptor needs an integer 'v'",
        ),
        (
            {"kind": "ext", "p": 3, "modulus": [1, 0.5, 1]},
            "modulus coefficients must be integers",
        ),
    ],
    ids=["string-v", "float-coefficient"],
)
def test_descriptor_refuses_non_integer_fields(obj, message):
    with pytest.raises(MalformedInput) as err:
        descriptor_from_json(obj)
    assert str(err.value) == message


def test_element_json_validates():
    f = make_group(PrimeField(7))
    with pytest.raises(MalformedInput):
        f.decoder()([1, 2])
    # integers reduce mod the order on load
    assert f.decoder()(7) == 0
    e = make_group(ExtensionField(5, (2, 0, 1)))
    with pytest.raises(MalformedInput):
        e.decoder()([1, 2, 3])


F4_MODULUS = find_irreducible(2, 4)

# One group of each kind, with the class make_group gives it.
ROUND_TRIP_GROUPS = [
    (Cyclic(12), CyclicGroup),
    (PrimeField(13), PrimeFieldGroup),
    (ExtensionField(5, (2, 0, 1)), QuadraticFieldGroup),
    (ExtensionField(3, find_irreducible(3, 3)), CubicFieldGroup),
    (ExtensionField(2, F4_MODULUS), ExtensionFieldGroup),
    (Product(PrimeField(7), PrimeField(5)), ProductGroup),
    (Product(PrimeField(3), ExtensionField(5, (2, 0, 1))), ProductGroup),
    (
        Product(
            Product(Cyclic(4), PrimeField(3)),
            ExtensionField(2, find_irreducible(2, 2)),
        ),
        ProductGroup,
    ),
]


@pytest.mark.parametrize(
    "desc,cls", ROUND_TRIP_GROUPS, ids=[repr(d) for d, _ in ROUND_TRIP_GROUPS]
)
def test_group_json_round_trip(desc, cls):
    g = make_group(desc)
    assert type(g) is cls
    text = json.dumps(g.to_json())
    assert make_group(descriptor_from_json(json.loads(text))) == g
    enc, dec = g.encoder(), g.decoder()
    for x in g.elements():
        assert dec(json.loads(json.dumps(enc(x)))) == x


def test_prime_field_names_its_characteristic_and_degree():
    f = make_group(PrimeField(13))
    assert (f.p, f.degree) == (13, 1)
    assert f.to_json() == {"kind": "prime", "p": 13}


_PAIR = "expected a pair, got "
_INT = "expected an integer element, got "

# Each input with the error text a product's decoder gives it, or None for
# the three that decode: see PAIR_ELEMENTS.
BAD_PAIRS = [
    (True, _PAIR + "True"), (False, _PAIR + "False"),
    ([True, 1], _INT + "True"), ([1, False], _INT + "False"),
    ([False, True], _INT + "False"),
    (1.0, _PAIR + "1.0"), ([1.0, 2], _INT + "1.0"), ([1, 2.5], _INT + "2.5"),
    ([float("nan"), 0], _INT + "nan"),
    ([1, 2, 3], _PAIR + "[1, 2, 3]"), ([1], _PAIR + "[1]"), ([], _PAIR + "[]"),
    ((1, 2, 3), _PAIR + "(1, 2, 3)"),
    ([[1], 2], _INT + "[1]"), ([1, [2]], _INT + "[2]"),
    ([[1, 2], [3, 4]], _INT + "[1, 2]"), ([(1,), 2], _INT + "(1,)"),
    ("12", _PAIR + "'12'"), ("[1, 2]", _PAIR + "'[1, 2]'"),
    (["1", 2], _INT + "'1'"), ([1, "2"], _INT + "'2'"),
    (None, _PAIR + "None"), ({"a": 1}, _PAIR + "{'a': 1}"),
    ([None, 1], _INT + "None"),
    ((1, 2), None), ([-1, 12], None), ([10**30, -(10**30)], None),
]

# The elements of the three pairs that decode, in BAD_PAIRS order.
PAIR_ELEMENTS = {
    Product(PrimeField(7), PrimeField(5)): [(1, 2), (6, 2), (1, 0)],
    Product(Cyclic(4), Cyclic(6)): [(1, 2), (3, 0), (0, 2)],
}


@pytest.mark.parametrize("desc", list(PAIR_ELEMENTS))
def test_pair_decoder_outcomes_pinned(desc):
    dec = make_group(desc).decoder()
    elements = iter(PAIR_ELEMENTS[desc])
    for obj, error in BAD_PAIRS:
        if error is None:
            assert dec(obj) == next(elements), obj
        else:
            with pytest.raises(MalformedInput) as err:
                dec(obj)
            assert str(err.value) == error, obj


# --- primitive elements and cyclotomy ---


def test_primitive_elements():
    assert primitive_element(make_group(PrimeField(19))) == 2
    assert primitive_element(make_group(PrimeField(7))) == 3
    assert primitive_element(make_group(PrimeField(13))) == 2


def test_the_primitive_element_of_f2_is_1():
    """q - 1 = 1 has no prime factor, so the walk's first element, 1,
    passes every test."""
    assert primitive_element(make_group(PrimeField(2))) == 1


def _plain_primitive_walk(field):
    """The first element, in canonical order after zero, whose order is
    q - 1: every element is tried."""
    q = field.order
    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    return next(
        x
        for x in islice(field, 1, None)
        if all(field.pow_(x, m) != field.one for m in cofactors)
    )


def _irreducible_with_constant(p, degree, c0):
    """The canonically smallest monic irreducible with constant term c0."""
    for n in range(p ** (degree - 1)):
        digits = [n // p ** i % p for i in range(degree - 2, -1, -1)]
        modulus = (c0, *digits, 1)
        if _is_irreducible(modulus, p):
            return modulus
    return None


def _norms_share_a_power(field):
    """Whether the norms of elements 1 .. p - 1, c t^(d-1), all lie in the
    r-th powers of F_p for one prime r dividing gcd(d, p - 1). The norm of
    t^(d-1), a, is read off by field arithmetic; c^d is an r-th power."""
    p, d = field.p, field.degree
    a = field.pow_(field[1], (field.order - 1) // (p - 1))[0]
    shared = prime_factors(math.gcd(d, p - 1))
    return any(pow(a, (p - 1) // r, p) == 1 for r in shared)


@pytest.mark.parametrize("degree, bound", [(2, 2000), (3, 600), (4, 100)])
def test_primitive_element_skip_matches_the_plain_walk(degree, bound):
    """Over F_p[t]/(f) the walk starts at element p when the norms of
    elements 1 .. p - 1 share an r-th power class; it must still find the
    plain walk's element. Moduli with constant term 1, where a = 1, and
    with 2 and p - 1, where the walk skips only when a is an r-th power,
    are pinned alike."""
    skipped = {1: 0, "other": 0}
    for p in filter(is_prime, range(bound)):
        moduli = {find_irreducible(p, degree)}
        if p < bound // 5:
            for c0 in {2 % p, p - 1}:
                moduli.add(_irreducible_with_constant(p, degree, c0))
        for modulus in moduli - {None}:
            field = make_group(ExtensionField(p, modulus))
            got = primitive_element(field)
            assert got == _plain_primitive_walk(field), (p, modulus)
            if _norms_share_a_power(field):
                skipped[1 if modulus[0] == 1 else "other"] += 1
                assert field.index(got) >= p
    assert skipped[1] >= 20 and skipped["other"] >= 5, skipped


# Prints the primitive element of the field p^degree, p and degree read
# from argv.
_PRIMITIVE = (
    "import sys\n"
    "from kaleido.algebra import ExtensionField, find_irreducible, make_group,"
    " primitive_element\n"
    "p, degree = map(int, sys.argv[1:])\n"
    "field = make_group(ExtensionField(p, find_irreducible(p, degree)))\n"
    "print(list(primitive_element(field)))\n"
)


@pytest.mark.parametrize(
    "p, degree, want",
    [(10**9 + 7, 2, [1, 4]), (1000003, 3, [0, 1, 18])],
    ids=["(10^9+7)^2", "1000003^3"],
)
def test_primitive_element_at_large_prime_powers(p, degree, want):
    """The walk no longer tries the p - 1 elements c t^(d-1) first, each
    at the cost of a field power: it answers at once where it took
    Theta(p) steps."""
    proc = subprocess.run(
        [sys.executable, "-c", _PRIMITIVE, str(p), str(degree)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == want
    field = make_group(ExtensionField(p, find_irreducible(p, degree)))
    x = tuple(got)
    q = field.order
    assert all(
        field.pow_(x, (q - 1) // r) != field.one for r in prime_factors(q - 1)
    )


def test_cubes_mod_19():
    f = make_group(PrimeField(19))
    tab = CyclotomicTable(f, 3)
    cubes = sorted(x for x in range(1, 19) if tab.index(x) == 0)
    assert cubes == [1, 7, 8, 11, 12, 18]
    assert tab.index(7) == 0


def test_cyclotomic_errors():
    with pytest.raises(OrderTooSmall):
        CyclotomicTable(make_group(ExtensionField(2, (1, 1, 1))), 6)
    with pytest.raises(BadCongruence):
        CyclotomicTable(make_group(PrimeField(11)), 3)
    with pytest.raises(MalformedInput):
        CyclotomicTable(make_group(Cyclic(13)), 3)
    tab = CyclotomicTable(make_group(PrimeField(7)), 3)
    with pytest.raises(ZeroElement):
        tab.index(0)


@pytest.mark.parametrize("q", [7, 13, 19, 25, 31, 37, 49])
def test_class_multiplicativity_exhaustive(q):
    """index(xy) = index(x) + index(y) mod e, for all unit pairs."""
    ps = prime_factors(q)
    p = ps[0]
    if q == p:
        f = make_group(PrimeField(p))
    else:
        d = 0
        n = q
        while n % p == 0:
            n //= p
            d += 1
        f = make_group(ExtensionField(p, find_irreducible(p, d)))
    tab = CyclotomicTable(f, 3)
    units = [x for x in f.elements() if x != f.zero]
    for x in units:
        ix = tab.index(x)
        for y in units:
            assert tab.index(f.mul(x, y)) == (ix + tab.index(y)) % 3


@pytest.mark.parametrize("q", [7, 13, 19, 25])
def test_six_class_multiplicativity(q):
    ps = prime_factors(q)
    p = ps[0]
    f = (
        make_group(PrimeField(p))
        if q == p
        else make_group(ExtensionField(p, find_irreducible(p, 2)))
    )
    tab = CyclotomicTable(f, 6)
    units = [x for x in f.elements() if x != f.zero]
    for x in units:
        ix = tab.index(x)
        for y in units:
            assert tab.index(f.mul(x, y)) == (ix + tab.index(y)) % 6


def _field_of_order(q):
    p = prime_factors(q)[0]
    if q == p:
        return make_group(PrimeField(p))
    d = 0
    n = q
    while n % p == 0:
        n //= p
        d += 1
    return make_group(ExtensionField(p, find_irreducible(p, d)))


def test_minus_one_is_always_a_cube():
    """-1 lies in class 0 for every prime power q = 1 (mod 6) up to 1000.

    This is what lets the whole theory quotient by sign: since 3 does not
    divide (q-1)/gcd(...), -1 = (-1)^3 is always a cube here.
    """
    checked = 0
    for q in range(7, 1001, 6):
        fs = prime_factors(q) if q > 1 else []
        if len(fs) != 1:
            continue
        f = _field_of_order(q)
        tab = CyclotomicTable(f, 3)
        assert tab.index(f.neg(f.one)) == 0, f"q={q}"
        checked += 1
    assert checked > 50


def test_dense_and_lazy_tables_agree(power_walk):
    """The table agrees with the walk over the powers of g: in full at
    q = 103, and over the first 5,000 powers at q = 100,003."""
    for p, steps in ((103, None), (100003, 5000)):
        f = make_group(PrimeField(p))
        for e in (3, 6):
            tab = CyclotomicTable(f, e)
            walk = power_walk(f, e, steps)
            assert len(walk) == (steps or p - 1)
            for x, k in walk.items():
                assert tab.index(x) == k, (p, e, x)


# --- transversals ---


def test_transversal_canonical_19():
    f = make_group(PrimeField(19))
    assert transversal(f, "canonical") == [1, 7, 8]


def test_transversal_sixth_powers_19():
    f = make_group(PrimeField(19))
    assert transversal(f, "sixth_powers") == [1, 7, 11]


@pytest.mark.parametrize("q", [7, 13, 19, 25, 31, 37, 43, 49])
def test_transversal_tiles_the_cubes(q):
    f = _field_of_order(q)
    tab = CyclotomicTable(f, 3)
    s = transversal(f, "canonical")
    assert len(s) == (q - 1) // 6
    orbit = set(s) | {f.neg(x) for x in s}
    cubes = {x for x in f.elements() if x != f.zero and tab.index(x) == 0}
    assert orbit == cubes


def test_sixth_powers_need_3_mod_4():
    f = make_group(PrimeField(13))  # 13 = 1 mod 4
    with pytest.raises(BadCongruence):
        transversal(f, "sixth_powers")


def test_transversal_needs_1_mod_6():
    with pytest.raises(BadCongruence):
        transversal(make_group(PrimeField(11)))


def test_transversal_refuses_an_unknown_mode():
    f = make_group(PrimeField(19))
    with pytest.raises(MalformedInput) as err:
        transversal(f, "bogus")
    assert str(err.value) == "unknown transversal mode: 'bogus'"


# --- property tests ---


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=18),
    b=st.integers(min_value=0, max_value=18),
    c=st.integers(min_value=0, max_value=18),
)
def test_prime_field_axioms(a, b, c):
    f = make_group(PrimeField(19))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if a != 0:
        assert f.mul(a, f.inv(a)) == f.one


@settings(max_examples=60, deadline=None)
@given(
    a=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    b=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    c=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_extension_field_axioms(a, b, c):
    f = make_group(ExtensionField(5, (2, 0, 1)))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != f.zero:
        assert f.mul(a, f.inv(a)) == f.one


# --- whole-column kernels against their per-element definitions ---


def _raw(desc):
    """Element representatives of a group, canonical or not.

    Residues run over a few multiples of the modulus either side of
    zero, and always include p + 3 and -2.
    """
    if isinstance(desc, Product):
        return st.tuples(_raw(desc.left), _raw(desc.right))
    n = getattr(desc, "v", None) or desc.p
    ints = st.integers(-2 * n, 3 * n) | st.sampled_from([n + 3, -2])
    if isinstance(desc, ExtensionField):
        return st.tuples(*[ints] * (len(desc.modulus) - 1))
    return ints


F5_2 = ExtensionField(5, (2, 0, 1))
KERNEL_GROUPS = [
    Cyclic(12),
    PrimeField(7),
    F5_2,
    ExtensionField(3, find_irreducible(3, 3)),
    ExtensionField(2, find_irreducible(2, 4)),
    Product(PrimeField(5), F5_2),
    Product(Product(Cyclic(4), PrimeField(3)), ExtensionField(2, (1, 1, 1))),
]


@st.composite
def _kernel_case(draw):
    desc = draw(st.sampled_from(KERNEL_GROUPS))
    raw = _raw(desc)
    x = draw(raw)
    a = draw(st.lists(raw, max_size=6))
    b = draw(st.lists(raw, min_size=len(a), max_size=len(a)))
    return desc, x, a, b


@settings(max_examples=150, deadline=None)
@given(_kernel_case())
def test_kernels_match_their_definitions(case):
    desc, x, a, b = case
    g = make_group(desc)
    column = g.translate_column(x, list(g))
    assert column == [g.add(x, y) for y in g.elements()]
    assert g.differences(a, b) == list(map(g.sub, a, b))
    assert g.unsigned_differences(a, b) == [
        min(d, g.neg(d)) for d in map(g.sub, a, b)
    ]
    if g.is_field:
        assert g.times(x, a) == [g.mul(x, y) for y in a]


def test_prime_translates_reduce_first():
    f = make_group(PrimeField(7))
    assert f.translate_column(10, list(f)) == [3, 4, 5, 6, 0, 1, 2]
    assert f.translate_column(-2, list(f)) == [5, 6, 0, 1, 2, 3, 4]
    assert f.times(-2, [1, 10]) == [5, 1]


# ---------------------------------------------------------------------------
# a group is the sequence of its elements


def _listed(g):
    """Every element in canonical order, built as a list the way groups
    once stored them: residues as a range, extensions as the product of
    the coefficient ranges, products as pairs of the factors' lists."""
    if isinstance(g, ProductGroup):
        return [(x, y) for x in _listed(g.left) for y in _listed(g.right)]
    if isinstance(g, ExtensionFieldGroup):
        return list(product(range(g.p), repeat=g.degree))
    return list(range(g.order))


SEQUENCE_GROUPS = [
    Cyclic(12),
    PrimeField(7),
    ExtensionField(5, find_irreducible(5, 2)),
    ExtensionField(3, find_irreducible(3, 3)),
    ExtensionField(2, find_irreducible(2, 4)),
    Product(PrimeField(7), PrimeField(5)),
    Product(ExtensionField(3, find_irreducible(3, 2)), Cyclic(4)),
]


def _strangers(g):
    """Values of an element's shape, and others, that are no element."""
    if isinstance(g, ProductGroup):
        x, y = g[-1]
        return [
            (_strangers(g.left)[0], y), (x, _strangers(g.right)[0]),
            (x, y, x), (x,), [x, y], (True, y), "xy", None,
        ]
    if isinstance(g, ExtensionFieldGroup):
        d, p = g.degree, g.p
        return [
            (p,) + (0,) * (d - 1), (0,) * (d - 1) + (-1,), (0,) * (d + 1),
            (0,) * (d - 1), [0] * d, (True,) + (0,) * (d - 1), "0", None,
        ]
    return [g.order, -1, g.order + 5, True, "0", None, (0,), [0]]


@pytest.mark.parametrize("desc", SEQUENCE_GROUPS, ids=repr)
def test_group_is_the_sequence_of_its_elements(desc):
    g = make_group(desc)
    want = _listed(g)
    n = len(want)
    assert len(g) == n
    assert g.elements() is g
    assert list(g) == want
    assert [g[i] for i in range(n)] == want
    back = range(1, n + 1)
    assert [g[-i] for i in back] == [want[-i] for i in back]
    for i in (n, n + 1, -n - 1):
        with pytest.raises(IndexError):
            g[i]
    for s in (slice(1, 5), slice(None, None, 3), slice(-4, None),
              slice(None, None, -1), slice(5, 2), slice(-3, -1, 2)):
        assert list(g[s]) == want[s], s
    assert all(x in g for x in want)
    for x in _strangers(g):
        assert (x in g) == (x in want), x


def test_reading_one_element_of_a_large_field_builds_only_that_one():
    """Element 10^12 of F_((10^9 + 7)^2) is its base-p digits; listing the
    field first would take about 10^18 tuples."""
    p = 1_000_000_007
    f = make_group(ExtensionField(p, find_irreducible(p, 2)))
    tracemalloc.start()
    try:
        got = f[10**12], f[-1], (999, 5) in f, len(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ((999, 10**12 - 999 * p), (p - 1, p - 1), True, p * p)
    assert peak < 100_000, peak
