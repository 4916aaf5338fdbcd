"""Half-integer weight arithmetic for the even orthogonal algebra (type D).

All weights live in (1/2)Z^n and are stored as doubled integers, so every
computation in the package is exact. A weight (3/2, 1/2, 1/2, -1/2) is the
coordinate tuple ``coords2 = (3, 1, 1, -1)``.

Each weight rule is stated once here, as one pass over a coordinate tuple where it can be:
dominance (``is_dominant2``), the spinor step (``is_spinor2``), Delta (``delta_violation``)
and the records' integer check (``int_tuple_field``).

Every record is a frozen dataclass with ``slots=True``: it has no instance ``__dict__``,
so a field read is one slot lookup and a ``Weight`` takes 40 bytes instead of 56. Each
``__post_init__`` checks its rules in their order and stores a field back only when it
converts it (a non-tuple input).

``trusted`` builds the records the package derives from values it has checked, without
their ``__post_init__``. Each record class gets one builder, generated on first use, that
unpacks exactly the class's fields (a wrong number raises ValueError) and stores each
through the class's slot descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ValidationError


def as_int(x):
    """Return x if it is an int; raise ValidationError for anything else.

    Records come from JSON, where 1.5, true and "1" must not pass as integers.
    """
    if type(x) is not int:
        raise ValidationError(f"expected an integer, got {x!r}")
    return x


def int_tuple_field(record, name):
    """The record's field name as a tuple of ints, stored back only when tuple() converted
    it (tuple() of a tuple is the tuple itself); the first entry that is not an int raises
    as in as_int."""
    values = getattr(record, name)
    checked = tuple(values)
    for x in checked:
        if type(x) is not int:
            as_int(x)
    if checked is not values:
        object.__setattr__(record, name, checked)
    return checked


def trusted(cls, *values):
    """A frozen record of cls from field values its producer guarantees valid, without
    running __post_init__. Internal: the public constructors and from_json validate.
    A wrong number of values raises ValueError."""
    try:
        build = _BUILDERS[cls]
    except KeyError:
        build = _BUILDERS[cls] = _builder(cls)
    return build(values)


_BUILDERS = {}


def _builder(cls):
    """The builder trusted uses for cls: unpack one value per field, then store each through
    the class's slot descriptor (a frozen dataclass's own __setattr__ refuses). A slotted
    record has no __dict__: writing one into a record would make every later field read of
    it a dict lookup, at over twice the cost of a slot read. Generated once per class, as
    dataclasses generates __init__: a fixed-arity unpacking and one store per field cost
    under half of a zip over the field names (timeit, 3-field record)."""
    names = tuple(cls.__dataclass_fields__)
    source = (f"def build(values):\n    {', '.join(names)}, = values\n"
              "    record = new(cls)\n"
              + "".join(f"    set_{name}(record, {name})\n" for name in names)
              + "    return record\n")
    namespace = {"new": object.__new__, "cls": cls}
    namespace.update((f"set_{name}", cls.__dict__[name].__set__) for name in names)
    exec(source, namespace)
    return namespace["build"]


@dataclass(frozen=True, slots=True)
class Weight:
    """A weight of o_{2n}, coordinates doubled to keep half-integers exact."""

    coords2: tuple[int, ...]

    def __post_init__(self):
        rank = len(int_tuple_field(self, "coords2"))
        if rank < 2:
            raise ValidationError(f"rank must be at least 2, got {rank}")

    @property
    def rank(self):
        return len(self.coords2)

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValidationError("cannot add weights of different ranks")
        return Weight(tuple(a + b for a, b in zip(self.coords2, other.coords2)))

    def __neg__(self):
        return Weight(tuple(-c for c in self.coords2))

    def __str__(self):
        return "(" + ", ".join(str(c) + "/2" if c % 2 else str(c // 2) for c in self.coords2) + ")"

    def to_json(self):
        return list(self.coords2)

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data))


@dataclass(frozen=True, slots=True)
class OrthWeight:
    """A dominant-weight candidate for o_k, with floor(k/2) doubled coordinates."""

    coords2: tuple[int, ...]
    k: int

    def __post_init__(self):
        coords2, k = int_tuple_field(self, "coords2"), self.k
        if k < 1:
            raise ValidationError(f"ambient rank must be positive, got {k}")
        if len(coords2) != k // 2:
            raise ValidationError(f"o_{k} weights have {k // 2} coordinates, got {len(coords2)}")

    def is_dominant(self):
        # even rank allows a negative last coordinate; at odd rank a trailing 0 forbids it
        return is_dominant2(self.coords2 if self.k % 2 == 0 else self.coords2 + (0,))

    def to_json(self):
        return list(self.coords2)


def is_dominant2(c) -> bool:
    """True iff c1 >= c2 >= ... >= c_{n-1} >= |c_n| on a coordinate tuple (type-D dominance)."""
    for i in range(len(c) - 2):
        if c[i] < c[i + 1]:
            return False
    return len(c) < 2 or c[-2] >= abs(c[-1])


def is_dominant_d(w: Weight) -> bool:
    """Type-D dominance of a weight."""
    return is_dominant2(w.coords2)


_SPINOR_COORDS2 = frozenset((1, -1))


def is_spinor2(c) -> bool:
    """True iff every doubled coordinate is +-1: a weight of the basic spin crystal."""
    return _SPINOR_COORDS2.issuperset(c)


def spinor_weights(n: int) -> tuple[Weight, ...]:
    """All 2^n weights with entries +-1/2, in descending lexicographic order."""
    if n < 2:
        raise ValidationError(f"rank must be at least 2, got {n}")
    return tuple(Weight(signs) for signs in product((1, -1), repeat=n))


def omega_plus(n: int) -> Weight:
    return Weight((1,) * n)


def omega_minus(n: int) -> Weight:
    return Weight((1,) * (n - 1) + (-1,))


def delta_violation(w: Weight, big_n: int):
    """Why w is not a highest weight of the big_n-th spinor tensor power; None if it is one.

    The three conditions: dominance, |w_i| <= big_n/2, and 2*w_i + big_n even.
    """
    if big_n < 1:
        raise ValidationError(f"tensor power must be positive, got {big_n}")
    if not is_dominant_d(w):
        return f"{w} is not dominant"
    for c in w.coords2:
        if not -big_n <= c <= big_n:
            return f"coordinate {c}/2 of {w} is outside [-{big_n}/2, {big_n}/2]"
        if (c + big_n) % 2:
            return f"coordinate {c}/2 of {w} has the wrong parity for length {big_n}"
    return None


def delta_membership(w: Weight, big_n: int) -> bool:
    """True iff w is a highest weight occurring in the big_n-th spinor tensor power."""
    return delta_violation(w, big_n) is None


def w0_image(w: Weight) -> Weight:
    """Image of w under the longest Weyl group element of D_n.

    Full negation for even rank; for odd rank the last coordinate survives.
    """
    if w.rank % 2 == 0:
        return -w
    return Weight(tuple(-c for c in w.coords2[:-1]) + (w.coords2[-1],))
