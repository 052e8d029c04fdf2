"""Finite cyclic groups, prime and extension fields, and cyclotomic classes.

Elements are plain hashable Python values. A cyclic group or prime field
element is an int in ``range(v)``. An extension field element is a tuple of
coefficient ints with the constant term first, so ``(4, 1)`` over
``Z_5[t]/(t^2 - 3)`` means ``4 + t``. A direct product element is a pair.

Each group class owns its JSON boundary: ``to_json()`` gives its
descriptor object, and ``encoder()`` and ``decoder()`` give the functions
that write and read one element. A document resolves them once and
calls them per element, or reads and writes whole rows of elements at
once by ``decode_rows`` and ``encode_rows``. A residue is a JSON int, an
extension element a list of coefficients and a product element a
two-item list.

Extension fields of degree 2 and 3 multiply in closed form
(``QuadraticFieldGroup``, ``CubicFieldGroup``); degree 2 also takes
powers by square and multiply with that product inline. In every field a
negative exponent powers the inverse. Higher degrees convolve
the coefficient tuples and reduce by a table of t^d, t^(d+1), ...
written in the power basis. Set-up is polylog in q = p^d: a field checks
its modulus by Ben-Or's test in that product, and ``is_prime`` is exact
below about 3.3e24 and refuses a larger prime.

Every group fixes one canonical element order, used whenever "smallest" is
meant anywhere in the package: numeric for residues, lexicographic on
coefficient tuples for extensions (constant term compared first), and
lexicographic on pairs for products. A group is the sequence of its
elements in that order, each built from its index when it is read.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import operator
from collections.abc import Sequence
from typing import Union

from .errors import (
    BadCongruence,
    MalformedInput,
    NonPrimeModulus,
    OrderTooSmall,
    ReducibleModulus,
    UnsupportedOrder,
    ZeroElement,
)

Element = Union[int, tuple]

__all__ = [
    "Cyclic",
    "PrimeField",
    "ExtensionField",
    "Product",
    "GroupDescriptor",
    "Element",
    "Group",
    "make_group",
    "descriptor_from_json",
    "is_prime",
    "prime_factors",
    "find_irreducible",
    "primitive_element",
    "CyclotomicTable",
    "transversal",
]


# ---------------------------------------------------------------------------
# records


class _Fresh:
    """A record field's default made anew for each record: a field
    declared ``provenance: dict = _Fresh(dict)`` gets its own ``{}``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def _record_init(names: tuple, bind, put, post):
    """A record class's ``__init__``: the fields ``names`` from a call's
    values, by position or else through ``bind``, each set in one loop by
    ``put(record, name, value)``, then ``post(record)`` unless post is
    None."""
    n = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        if post is not None:
            post(self)

    return __init__


class _Record:
    """A record: its fields are the annotated names in its class body,
    in order, and they are its constructor's arguments, its repr and
    what it is compared by.

    ``class C(_Record)`` reads C's own field annotations once, when C is
    made, and gives C an ``__init__``, ``__eq__`` and ``__hash__`` that
    close over them; no code is generated. A field given a value in the
    class body defaults to it (``_Fresh`` makes one per record).
    ``C(...)`` takes the fields by position or keyword, with
    ``TypeError`` on a missing or extra one, sets them and then runs
    ``C.__post_init__`` if C defines one. Records are equal when they
    are of one class and their fields are equal. ``frozen=True`` in the
    class statement makes C's records read-only (assignment raises
    ``AttributeError``) and hashable by their fields; other records can
    be assigned to and are unhashable. ``C._fields`` names the fields,
    as a named tuple's do.
    """

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        for name, value in defaults.items():
            if isinstance(value, _Fresh):
                delattr(cls, name)
        cls._fields, cls._defaults = names, defaults
        # Frozen records refuse setattr, so theirs go past it.
        put = object.__setattr__ if frozen else setattr
        cls.__init__ = _record_init(
            names, cls._bind, put, cls.__dict__.get("__post_init__")
        )
        # The field values: a tuple of them, or the one field's value.
        get = operator.attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        cls.__eq__ = __eq__
        if frozen:
            # A record hashes as its fields' tuple, a 1-tuple included.
            cls.__hash__ = (
                (lambda self: hash(get(self))) if len(names) > 1
                else lambda self: hash((get(self),))
            )
            cls.__setattr__ = _Record._refuse_assignment
            cls.__delattr__ = _Record._refuse_deletion
        else:
            cls.__hash__ = None

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values a call names by position, keyword or
        default, in field order."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() has {len(names)} fields but was given"
                f" {len(args)} positional arguments"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                value = cls._defaults[name]
                values.append(
                    value.make() if isinstance(value, _Fresh) else value
                )
            else:
                raise TypeError(
                    f"{cls.__name__}() missing required argument {name!r}"
                )
        if kwargs:
            name = next(iter(kwargs))
            clash = "multiple values for" if name in names else (
                "an unexpected keyword"
            )
            raise TypeError(f"{cls.__name__}() got {clash} argument {name!r}")
        return values

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"

    def _refuse_assignment(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_deletion(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# descriptors


class Cyclic(_Record, frozen=True):
    """Integers mod v under addition."""

    v: int


class PrimeField(_Record, frozen=True):
    """Integers mod a prime p."""

    p: int


class ExtensionField(_Record, frozen=True):
    """Z_p[t] modulo a monic irreducible polynomial.

    ``modulus`` lists coefficients from the constant term up and includes
    the leading 1, so t^2 - 3 over Z_5 is ``(2, 0, 1)``.
    """

    p: int
    modulus: tuple[int, ...]


class Product(_Record, frozen=True):
    left: "GroupDescriptor"
    right: "GroupDescriptor"


GroupDescriptor = Union[Cyclic, PrimeField, ExtensionField, Product]


def _is_json_int(obj) -> bool:
    """True for an integer; JSON true and false do not count as one."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def descriptor_from_json(obj) -> GroupDescriptor:
    if not isinstance(obj, dict):
        raise MalformedInput("group descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind == "cyclic":
        v = obj.get("v")
        if not _is_json_int(v):
            raise MalformedInput("cyclic descriptor needs an integer 'v'")
        return Cyclic(v)
    if kind == "prime":
        p = obj.get("p")
        if not _is_json_int(p):
            raise MalformedInput("prime descriptor needs an integer 'p'")
        return PrimeField(p)
    if kind == "ext":
        p = obj.get("p")
        mod = obj.get("modulus")
        if not _is_json_int(p) or not isinstance(mod, (list, tuple)):
            raise MalformedInput("ext descriptor needs 'p' and 'modulus'")
        if not all(map(_is_json_int, mod)):
            raise MalformedInput("modulus coefficients must be integers")
        reduced = tuple(c % p for c in mod) if p > 1 else tuple(mod)
        return ExtensionField(p, reduced)
    if kind == "product":
        return Product(
            descriptor_from_json(obj.get("left")),
            descriptor_from_json(obj.get("right")),
        )
    raise MalformedInput(f"unknown group kind: {kind!r}")


# ---------------------------------------------------------------------------
# integer and polynomial helpers


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Below this bound no composite passes the strong test to every base above
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41. A failing base proves n composite
    at any size; passing them all proves n prime only below ``_MR_BOUND``
    (about 3.3e24), and past it raises ``UnsupportedOrder``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise UnsupportedOrder(
            f"cannot prove {n} prime: Miller-Rabin to the bases 2..41"
            f" proves primality only below {_MR_BOUND}"
        )
    return True


# Trial division stops here; a cofactor with no prime factor up to it is
# split by Pollard-Brent rho. Every n below 1025^2 is factored by division
# alone.
_TRIAL_LIMIT = 1 << 10


def _rho_factor(n: int) -> int:
    """A proper divisor of the odd composite n (Pollard-Brent rho).

    Iterates y -> y^2 + c mod n with Brent's cycle search, multiplying 128
    differences before each gcd; on a gcd of n it steps back one at a
    time, and on failure moves to the next c.
    """
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending.

    Primes up to ``_TRIAL_LIMIT`` are divided out first. A cofactor left
    over is split by Pollard-Brent rho until ``is_prime`` proves every
    part prime, so the answer is exact.
    """
    out = []
    f = 2
    while f * f <= n and f <= _TRIAL_LIMIT:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if f * f > n:
        return out + [n] if n > 1 else out
    big = set()
    parts = [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            big.add(m)
        else:
            d = _rho_factor(m)
            parts += [d, m // d]
    return out + sorted(big)


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a by b over Z_p, constant term first. b must end in a
    nonzero coefficient, and the remainder ends in one (zero is [])."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a.pop() * inv % p
        shift = len(a) + 1 - len(b)
        for i, bc in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - c * bc) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Whether a monic modulus of degree 2 or more over Z_p makes a field."""
    try:
        make_group(ExtensionField(p, tuple(modulus)))
    except ReducibleModulus:
        return False
    return True


def _digits(n: int, p: int, d: int) -> tuple[int, ...]:
    """The d base-p digits of n, most significant (constant term) first."""
    out = [0] * d
    for i in reversed(range(d)):
        n, out[i] = divmod(n, p)
    return tuple(out)


def find_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Canonically smallest monic irreducible of the given degree over Z_p.

    Candidates are tried in canonical order from constant term 1 on (a
    zero constant term means a factor t), each by a polylog(p) test;
    about one in ``degree`` passes. A p past ``is_prime``'s bound is
    refused."""
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if degree < 2:
        raise MalformedInput("degree must be at least 2")
    for n in itertools.count(p ** (degree - 1)):  # ends: one always exists
        candidate = (*_digits(n, p, degree), 1)
        if _is_irreducible(candidate, p):
            return candidate


def _collector_paused(make):
    """Run make, a function that builds rows, documents or a family's
    difference columns, or writes a document's text, with the cyclic
    garbage collector paused.

    Such a function makes tens of thousands of tuples and lists, and
    each few hundred new containers start a pass of the collector over
    the young ones, now and then over all of them. The rows hold
    elements (ints and tuples of ints) and the documents hold those,
    lists of them, and strs: nothing refers back to what holds it, so no
    cycle is made and reference counting frees it all (a cycle made
    anyway waits for a later pass). The pass a builder leaves due runs
    at the first container made after it returns; the writer, paused
    too, does not run it. The collector's switch is process-wide: if it
    is on, it is off for the call, every thread included, and back on
    when the call returns or raises; if it is already off, it stays off.
    """

    @functools.wraps(make)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return make(*args, **kwargs)
        gc.disable()
        try:
            return make(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class _Memo(dict):
    """Key -> f(key), made on the first lookup and kept.

    The default f is the identity, so each key looked up maps to the
    first equal object seen: a builder that passes its points through one
    such memo keeps one object per point.
    """

    def __init__(self, f=lambda x: x):
        super().__init__()
        self._f = f

    def __missing__(self, key):
        value = self[key] = self._f(key)
        return value


# ---------------------------------------------------------------------------
# groups


class Group(Sequence):
    """Additive finite abelian group with a fixed canonical element order,
    and the sequence of its elements in that order: ``_at(i)`` builds
    element i, and none is stored. A slice is a list."""

    is_field = False
    descriptor: GroupDescriptor
    order: int
    zero: Element

    def add(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def neg(self, a: Element) -> Element:
        raise NotImplementedError

    def sub(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    # Whole-column kernels. Each maps a per-element method over columns
    # (test_kernels_match_their_definitions states which); every class
    # gives its own ``differences``. The translates need none: each class
    # states its ``radices`` (most significant first) and an element's
    # ``digits``, which add digitwise.

    radices: tuple[int, ...]

    def digits(self, x: Element) -> tuple[int, ...]:
        raise NotImplementedError

    def translate_column(self, x: Element, elems: Sequence) -> list:
        """x + g for every g in elems, the group in canonical order, as
        entries of elems. Digits add with no carry, so with r the last
        radix, the column is the blocks of r elements in the order x's
        outer digits rotate them, each rotated left by x's last digit: two
        slices each.
        """
        *outer, r = self.radices
        *high, low = self.digits(x)
        starts = [0]
        for radix, digit in zip(outer, high):
            turn = [*range(digit, radix), *range(digit)]
            starts = [s * radix + t for s in starts for t in turn]
        column = []
        for s in starts:
            s *= r
            column += elems[s + low : s + r]
            column += elems[s : s + low]
        return column

    def unsigned_differences(self, a: Sequence, b: Sequence) -> list:
        """The canonically smaller of a[i] - b[i] and its negative,
        b[i] - a[i], for each position i."""
        return list(map(min, self.differences(a, b), self.differences(b, a)))

    def decode_rows(self, rows: list, same=None):
        """Every element of rows, JSON lists of elements, decoded in row
        order and passed through ``same`` if it is given: a lazy iterator.
        It raises ``MalformedInput``, at once or as it is read, on an
        element it cannot decode, not always the first in the rows; a
        caller that must name that one decodes element by element.

        Here an element is spelled as a list of ints, one per radix (an
        extension field, or a product of two cyclic groups). Every
        coordinate is first checked to be an exact int, since a JSON true
        or 1.0 equals 1. With ``same``, for points that recur, as in the
        planes of a kaleidoscope, each distinct spelling is decoded once.
        Without it, for rows that hold most elements once, as the blocks
        of a family do, the coordinates are reduced in one flat pass.
        """
        elements = itertools.chain.from_iterable
        try:
            exact = set(map(type, elements(elements(rows)))) <= {int}
        except TypeError:  # an element with no coordinates: a number or null
            exact = False
        if not exact:
            raise MalformedInput("expected elements spelled as integer lists")
        if same is not None:
            dec = self.decoder()
            spelled = _Memo(lambda key: same(dec(key)))
            return map(spelled.__getitem__, map(tuple, elements(rows)))
        radices = self.radices
        width = len(radices)
        if width != len(self.zero) or set(map(len, elements(rows))) - {width}:
            raise MalformedInput(f"expected elements of {width} integers")
        coordinates = elements(elements(rows))
        reduced = map(operator.mod, coordinates, itertools.cycle(radices))
        return zip(*[reduced] * width)

    def encode_rows(self, rows) -> list:
        """The JSON list of each row of elements, the mirror of
        ``decode_rows``: each element as ``encoder()`` writes it."""
        enc = self.encoder()
        return [list(map(enc, row)) for row in rows]

    def times(self, x: Element, ys: Sequence) -> list:
        """x * y for each y in ys; fields only."""
        return list(map(self.mul, itertools.repeat(x), ys))

    def character(self, e: int):
        """The e-th power character x -> x^((q-1)/e) as a function of one
        element; fields only. It raises ``ZeroElement`` on zero and
        ``MalformedInput`` on a value that is not an element."""
        exp = (self.order - 1) // e
        zero, power = self.zero, self.pow_

        def key(x: Element) -> Element:
            if x == zero:
                raise ZeroElement("zero belongs to no cyclotomic class")
            if x not in self:
                raise MalformedInput(f"{x!r} is not an element of this field")
            return power(x, exp)

        return key

    def __len__(self) -> int:
        return self.order

    def __getitem__(self, i):
        at = range(self.order)[i]
        return list(map(self._at, at)) if type(at) is range else self._at(at)

    def __iter__(self):
        return map(self._at, range(self.order))

    def elements(self) -> Sequence[Element]:
        """All elements in canonical order: the group itself."""
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.descriptor!r})"


class CyclicGroup(Group):
    def __init__(self, desc: Cyclic):
        v = desc.v
        if not isinstance(v, int) or v < 1:
            raise MalformedInput(f"cyclic order must be a positive int, got {v!r}")
        self.descriptor = desc
        self.order = v
        self.radices = (v,)
        self.zero = 0

    def add(self, a, b):
        return (a + b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def digits(self, x):
        return (x % self.order,)

    def differences(self, a, b):
        n = self.order
        return [(x - y) % n for x, y in zip(a, b)]

    def unsigned_differences(self, a, b):
        # A difference d mod n has the negative n - d, the smaller past n // 2.
        n = self.order
        half = n // 2
        return [
            d if (d := (x - y) % n) <= half else n - d for x, y in zip(a, b)
        ]

    def decode_rows(self, rows, same=None):
        """As ``Group.decode_rows``, for elements spelled as exact ints."""
        elements = itertools.chain.from_iterable
        if set(map(type, elements(rows))) - {int}:
            raise MalformedInput("expected integer elements")
        decoded = map(self.order.__rmod__, elements(rows))
        return decoded if same is None else map(same, decoded)

    def encode_rows(self, rows):
        """As ``Group.encode_rows``. Exact ints are their own encoding, so
        when one type pass finds nothing else, each row is copied into a
        list at once; otherwise (a bool, say) every element takes the
        element encoder, so ``True`` still writes 1."""
        if set(map(type, itertools.chain.from_iterable(rows))) - {int}:
            return super().encode_rows(rows)
        return list(map(list, rows))

    def _at(self, n):
        return n

    def __contains__(self, x):
        """True when x is a residue in canonical form, 0 <= x < order."""
        return isinstance(x, int) and 0 <= x < self.order

    def to_json(self) -> dict:
        return {"kind": "cyclic", "v": self.order}

    def encoder(self):
        return int

    def decoder(self):
        order = self.order

        def dec(obj):
            if isinstance(obj, bool) or not isinstance(obj, int):
                raise MalformedInput(
                    f"expected an integer element, got {obj!r}"
                )
            return obj % order

        return dec


class PrimeFieldGroup(CyclicGroup):
    """Integers mod a prime: the cyclic group of order p, with its
    multiplication."""

    is_field = True
    degree = 1

    def __init__(self, desc: PrimeField):
        p = desc.p
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrimeModulus(f"{p!r} is not prime")
        self.descriptor = desc
        self.p = self.order = p
        self.radices = (p,)
        self.zero = 0
        self.one = 1 % p

    def mul(self, a, b):
        return (a * b) % self.order

    def inv(self, a):
        if a % self.order == 0:
            raise ZeroElement("zero has no inverse")
        return pow(a, self.order - 2, self.order)

    def pow_(self, a, n: int):
        if n < 0 and a % self.order == 0:
            raise ZeroElement("zero has no inverse")
        return pow(a, n, self.order)

    def times(self, x, ys):
        p = self.order
        return [x * y % p for y in ys]

    def character(self, e):
        # Group.character with the membership test and power inline.
        p = self.order
        exp = (p - 1) // e

        def key(x):
            if x == 0:
                raise ZeroElement("zero belongs to no cyclotomic class")
            if not (isinstance(x, int) and 0 <= x < p):
                raise MalformedInput(f"{x!r} is not an element of this field")
            return pow(x, exp, p)

        return key

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}


class ExtensionFieldGroup(Group):
    is_field = True

    def __init__(self, desc: ExtensionField):
        p, modulus = desc.p, desc.modulus
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrimeModulus(f"{p!r} is not prime")
        mod = tuple(c % p for c in modulus)
        if len(mod) < 3:
            raise MalformedInput("extension modulus must have degree at least 2")
        if mod[-1] != 1:
            raise MalformedInput("extension modulus must be monic")
        # A modulus already a tuple of residues keeps its descriptor.
        same = mod == modulus and {*map(type, modulus)} == {int}
        self.descriptor = desc if same else ExtensionField(p, mod)
        self.p = p
        self.degree = len(mod) - 1
        self.order = p ** self.degree
        d = self.degree
        self.radices = (p,) * d
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        # Reduction table: _red[j] is t^(d+j) written in the power basis.
        base = tuple((-mod[i]) % p for i in range(d))
        red = [base]
        for _ in range(d - 2):
            prev = red[-1]
            hi = prev[d - 1]
            shifted = (0,) + prev[: d - 1]
            red.append(tuple((shifted[i] + hi * base[i]) % p for i in range(d)))
        self._red = red
        if not self._modulus_is_irreducible():
            raise ReducibleModulus(f"{list(modulus)} factors over Z_{p}")

    def _modulus_is_irreducible(self) -> bool:
        """Ben-Or's test (FOCS 1981): the modulus f of degree d is
        irreducible when gcd(f, t^(p^k) - t) = 1 for k = 1..d/2, since
        t^(p^k) - t is the product of the irreducibles of degree dividing
        k. Powers of t are taken by this class's product, valid for any
        monic f."""
        p, f = self.p, self.descriptor.modulus
        x = t = (0, 1) + (0,) * (self.degree - 2)
        for _ in range(self.degree // 2):
            x = self.pow_(x, p)
            a, b = f, _poly_rem(self.sub(x, t), f, p)
            while b:
                a, b = b, _poly_rem(a, b, p)
            if len(a) > 1:
                return False
        return True

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def digits(self, x):
        p = self.p
        return tuple(c % p for c in x)

    def differences(self, a, b):
        # Coefficient by coefficient: zip(*a) gives a's coefficient columns.
        p = self.p
        columns = zip(zip(*a), zip(*b))
        return list(
            zip(*[[(x - y) % p for x, y in zip(ca, cb)] for ca, cb in columns])
        )

    def mul(self, a, b):
        p = self.p
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        res = conv[:d]
        for j in range(d, 2 * d - 1):
            c = conv[j] % p
            if c:
                row = self._red[j - d]
                for i in range(d):
                    res[i] += c * row[i]
        return tuple(r % p for r in res)

    def inv(self, a):
        if not any(c % self.p for c in a):
            raise ZeroElement("zero has no inverse")
        return self.pow_(a, self.order - 2)

    def pow_(self, a, n: int):
        """a^n by square and multiply; a negative n powers the inverse."""
        if n < 0:
            a, n = self.inv(a), -n
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def __contains__(self, x):
        """True when x is a tuple of degree-many residues mod p."""
        p = self.p
        return isinstance(x, tuple) and len(x) == self.degree and all(
            isinstance(c, int) and 0 <= c < p for c in x
        )

    def _at(self, n):
        return _digits(n, self.p, self.degree)

    def to_json(self) -> dict:
        modulus = list(self.descriptor.modulus)
        return {"kind": "ext", "p": self.p, "modulus": modulus}

    def encoder(self):
        return lambda x: list(map(int, x))

    def decoder(self):
        p, degree = self.p, self.degree

        def dec(obj):
            if not isinstance(obj, (list, tuple)) or len(obj) != degree:
                raise MalformedInput(
                    f"expected {degree} coefficients, got {obj!r}"
                )
            if not all(map(_is_json_int, obj)):
                raise MalformedInput("coefficients must be integers")
            return tuple(c % p for c in obj)

        return dec


class QuadraticFieldGroup(ExtensionFieldGroup):
    """An extension of degree 2, multiplied in closed form.

    With t^2 = r0 + r1 t, where (r0, r1) is ``_red[0]``,
    (a0 + a1 t)(b0 + b1 t) = (a0 b0 + r0 a1 b1) + (a0 b1 + a1 b0 + r1 a1 b1) t.
    ``pow_`` squares and multiplies with this product written inline.
    """

    def mul(self, a, b):
        a0, a1 = a
        b0, b1 = b
        r0, r1 = self._red[0]
        p = self.p
        hi = a1 * b1
        return ((a0 * b0 + r0 * hi) % p, (a0 * b1 + a1 * b0 + r1 * hi) % p)

    def pow_(self, a, n):
        # Left to right over the bits of n: square y, then for a 1 bit
        # multiply by a, as y0 a + y1 (a t) with a t = (r0 a1, a0 + r1 a1).
        if n < 0:
            a, n = self.inv(a), -n
        if not n:
            return self.one
        r0, r1 = self._red[0]
        p = self.p
        a0, a1 = y0, y1 = a[0] % p, a[1] % p
        b0, b1 = r0 * a1 % p, (a0 + r1 * a1) % p
        for bit in bin(n)[3:]:
            hi = y1 * y1
            y0, y1 = (y0 * y0 + r0 * hi) % p, (2 * y0 + r1 * y1) * y1 % p
            if bit == "1":
                y0, y1 = (y0 * a0 + y1 * b0) % p, (y0 * a1 + y1 * b1) % p
        return (y0, y1)


class CubicFieldGroup(ExtensionFieldGroup):
    """An extension of degree 3, multiplied in closed form.

    With c0..c4 the coefficients of the plain product and t^3, t^4 written
    in the power basis as ``_red[0]`` and ``_red[1]``, coefficient i of
    the product is c_i + c3 ``_red[0][i]`` + c4 ``_red[1][i]``.
    """

    def mul(self, a, b):
        a0, a1, a2 = a
        b0, b1, b2 = b
        (r0, r1, r2), (s0, s1, s2) = self._red
        p = self.p
        c3 = a1 * b2 + a2 * b1
        c4 = a2 * b2
        return (
            (a0 * b0 + c3 * r0 + c4 * s0) % p,
            (a0 * b1 + a1 * b0 + c3 * r1 + c4 * s1) % p,
            (a0 * b2 + a1 * b1 + a2 * b0 + c3 * r2 + c4 * s2) % p,
        )


class ProductGroup(Group):
    def __init__(self, left: Group, right: Group):
        self.left = left
        self.right = right
        self.descriptor = Product(left.descriptor, right.descriptor)
        self.order = left.order * right.order
        self.radices = left.radices + right.radices
        self.zero = (left.zero, right.zero)

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def sub(self, a, b):
        return (self.left.sub(a[0], b[0]), self.right.sub(a[1], b[1]))

    def digits(self, x):
        return self.left.digits(x[0]) + self.right.digits(x[1])

    def differences(self, a, b):
        left = self.left.differences([x for x, _ in a], [y for y, _ in b])
        right = self.right.differences([x for _, x in a], [y for _, y in b])
        return list(zip(left, right))

    def _at(self, n):
        a, b = divmod(n, self.right.order)
        return (self.left[a], self.right[b])

    def __contains__(self, x):
        return isinstance(x, tuple) and len(x) == 2 and (
            x[0] in self.left and x[1] in self.right
        )

    def to_json(self) -> dict:
        return {
            "kind": "product",
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    def encoder(self):
        left, right = self.left.encoder(), self.right.encoder()
        return lambda x: [left(x[0]), right(x[1])]

    def decoder(self):
        """Decode a pair factor by factor."""
        left, right = self.left.decoder(), self.right.decoder()

        def dec(obj):
            if not isinstance(obj, (list, tuple)) or len(obj) != 2:
                raise MalformedInput(f"expected a pair, got {obj!r}")
            return (left(obj[0]), right(obj[1]))

        return dec


# The extension fields that multiply in closed form, by degree.
_CLOSED_FORM = {2: QuadraticFieldGroup, 3: CubicFieldGroup}


def make_group(desc: GroupDescriptor) -> Group:
    """Build the group handle a descriptor names. The group keeps desc as
    its ``descriptor``; only an extension field whose modulus is not yet
    a tuple of residues mod p keeps the reduced one instead. A product's
    descriptor is built from its factors'."""
    if isinstance(desc, Cyclic):
        return CyclicGroup(desc)
    if isinstance(desc, PrimeField):
        return PrimeFieldGroup(desc)
    if isinstance(desc, ExtensionField):
        degree = len(desc.modulus) - 1
        return _CLOSED_FORM.get(degree, ExtensionFieldGroup)(desc)
    if isinstance(desc, Product):
        return ProductGroup(make_group(desc.left), make_group(desc.right))
    raise MalformedInput(f"not a group descriptor: {desc!r}")


# ---------------------------------------------------------------------------
# multiplicative structure


def primitive_element(field: Group) -> Element:
    """Canonically smallest element whose multiplicative order is q - 1.

    The walk skips the elements that no primitive element can be. Over
    F_p[t]/(f) of degree d, elements 1 .. p - 1 are c t^(d-1). A primitive
    x has a norm x^((q-1)/(p-1)) that generates F_p^*. The norm of t is
    (-1)^d f(0), so c t^(d-1) has norm c^d a with a = f(0)^(d-1), as
    d(d-1) is even. If a is an r-th power for a prime r dividing
    gcd(d, p - 1), so is every c^d a: all lie in the proper subgroup of
    r-th powers, none of these elements is primitive, and the walk starts
    at p. When f(0) = 1, a = 1.
    """
    if not field.is_field:
        raise MalformedInput("primitive elements need a field")
    cached = getattr(field, "_primitive", None)
    if cached is not None:
        return cached
    q = field.order
    factors = prime_factors(q - 1)
    cofactors = [(q - 1) // r for r in factors]
    p, d = field.p, field.degree
    start = 1  # zero comes first
    if d > 1:
        a = pow(field.descriptor.modulus[0], d - 1, p)
        shared = prime_factors(math.gcd(d, p - 1))
        if any(pow(a, (p - 1) // r, p) == 1 for r in shared):
            start = p
    for x in map(field._at, range(start, q)):
        if all(field.pow_(x, m) != field.one for m in cofactors):
            field._primitive = x
            return x
    raise MalformedInput("no generator found; field arithmetic is broken")


def _check_class_count(field: Group, e: int) -> None:
    """Raise unless the nonzero elements of field split into e classes."""
    if not field.is_field:
        raise MalformedInput("cyclotomic classes need a field")
    if e not in (3, 6):
        raise MalformedInput(f"class count must be 3 or 6, got {e}")
    q = field.order
    if q - 1 < e:
        raise OrderTooSmall(f"field of order {q} has fewer than {e} units")
    if (q - 1) % e:
        raise BadCongruence(f"{e} does not divide {q} - 1")


class CyclotomicTable:
    """The e cyclotomic classes of a field: a key, and labels on demand.

    Class i is the coset g^i * H where H is the subgroup of e-th powers and
    g is the canonical primitive element. ``key`` is the e-th power
    character x -> x^((q-1)/e): its values are the e-th roots of unity,
    and two nonzero elements lie in the same class exactly when their keys
    are equal. It is the field's ``character(e)``: one power per call,
    with no primitive element and no memo, so a check that only compares
    classes builds nothing.

    ``index`` gives the label: x^((q-1)/e) = w^i with w = g^((q-1)/e)
    exactly when x lies in class i. Its first call finds g and the e
    powers of w; each label is memoised. Class indices are multiplicative.
    Both raise ``ZeroElement`` on zero and ``MalformedInput`` on a value
    that is not an element of the field.
    """

    def __init__(self, field: Group, e: int):
        _check_class_count(field, e)
        self.field = field
        self.e = e
        self.key = field.character(e)
        self._labels: dict = {}
        self._index: dict = {}

    def index(self, x: Element) -> int:
        """Class index of x. Zero is in no class."""
        got = self._index.get(x)
        if got is None:
            value = self.key(x)
            labels = self._labels
            if not labels:
                f = self.field
                omega = self.key(primitive_element(f))
                w = f.one
                for i in range(self.e):
                    labels[w] = i
                    w = f.mul(w, omega)
            got = self._index[x] = labels[value]
        return got


def transversal(field: Group, mode: str = "canonical") -> list[Element]:
    """A set S of (q-1)/6 cube-class-0 elements with {s, -s} disjoint.

    The plus-minus orbits of S tile the nonzero cubes exactly. Canonical
    mode keeps the canonically smaller member of each orbit. Sixth-powers
    mode returns the set of sixth powers, which works only when q = 3
    (mod 4), since then -1 is not a sixth power.
    """
    if not field.is_field:
        raise MalformedInput("transversals need a field")
    q = field.order
    if q % 6 != 1:
        raise BadCongruence(f"field order {q} is not 1 mod 6")
    if mode == "sixth_powers":
        if q % 4 != 3:
            raise BadCongruence(
                f"sixth powers split the cubes only for q = 3 mod 4, got {q}"
            )
        e = 6
    elif mode == "canonical":
        e = 3
    else:
        raise MalformedInput(f"unknown transversal mode: {mode!r}")
    # The e-th powers of nonzero elements are the powers of g^e, for a
    # primitive g: one product per element of the subgroup.
    step = field.pow_(primitive_element(field), e)
    powers = itertools.accumulate(
        itertools.repeat(step, (q - 1) // e - 1),
        field.mul,
        initial=field.one,
    )
    if mode == "sixth_powers":
        return sorted(powers)
    # The cubes are closed under negation, since -1 = (-1)^3, so each
    # plus-minus orbit is kept by its canonically smaller member.
    neg = field.neg
    return sorted(x for x in powers if x < neg(x))
