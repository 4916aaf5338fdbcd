"""Regular cell diagrams and regular cell tables.

A regular cell diagram of length N and height n is a pair of non-negative
integer rows (l, r) around a vertical axis with r_i + l_i = N, r weakly
decreasing and r_{n-1} >= l_n. Diagrams of length N biject with the highest
weights occurring in the N-th spinor tensor power via r_i = N/2 + w_i.

A regular cell table is a nested chain of diagrams of lengths 1..N, stored
here as its step sequence: the spinor weights (mu_1, ..., mu_N) whose prefix
sums walk through the chain. Every prefix sum must be dominant and the first
step must be one of the two dominant spinor weights.

Dominance, Delta and the spinor step are asked of `weights` on coordinate tuples:
a diagram is regular when r - l is dominant; a table checks each step and its running
sum in one pass over the steps, reporting a bad step before a bad prefix sum, and stops
summing at the first bad prefix sum, the only one it reports. Both records are slotted
and store a field back only when they convert it (a non-tuple input).
Records are validated where they enter (the constructors, from_json, diagram_of_weight,
steps_from_diagram_chain); enumerate_tables, whose level walk carries only prefixes
that complete to the shape, builds its tables through weights.trusted without
re-validating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import add

from .errors import ValidationError
from .weights import (Weight, delta_violation, int_tuple_field, is_dominant2, is_spinor2,
                      spinor_weights, trusted)


@dataclass(frozen=True, slots=True)
class CellDiagram:
    l: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self):
        l, r = int_tuple_field(self, "l"), int_tuple_field(self, "r")
        n = len(r)
        if n < 2 or len(l) != n:
            raise ValidationError("diagram needs rows l, r of equal length >= 2")
        if any(x < 0 for x in l + r):
            raise ValidationError("row lengths must be non-negative")
        big_n = l[0] + r[0]
        if big_n < 1:
            raise ValidationError("diagram length must be positive")
        if any(li + ri != big_n for li, ri in zip(l, r)):
            raise ValidationError(f"all rows must have total length {big_n}")
        if not is_dominant2(tuple(ri - li for li, ri in zip(l, r))):
            raise ValidationError("r - l must be dominant: r weakly decreasing, r_{n-1} >= l_n")

    @property
    def length(self):
        return self.l[0] + self.r[0]

    @property
    def height(self):
        return len(self.r)

    def to_json(self):
        return {"N": self.length, "n": self.height, "l": list(self.l), "r": list(self.r)}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data["l"]), tuple(data["r"]))


def diagram_of_weight(w: Weight, big_n: int) -> CellDiagram:
    """The diagram with r_i = big_n/2 + w_i, defined exactly on member weights."""
    reason = delta_violation(w, big_n)
    if reason is not None:
        raise ValidationError(reason)
    r = tuple((big_n + c) // 2 for c in w.coords2)
    l = tuple(big_n - ri for ri in r)
    return CellDiagram(l, r)


def weight_of_diagram(d: CellDiagram) -> Weight:
    """Inverse of diagram_of_weight: w_i = (r_i - l_i)/2."""
    return Weight(tuple(ri - li for li, ri in zip(d.l, d.r)))


def _check_delta_dims(n, big_n):
    if n < 2:
        raise ValidationError(f"height must be at least 2, got {n}")
    if big_n < 1:
        raise ValidationError(f"length must be positive, got {big_n}")


def count_delta(n: int, big_n: int) -> int:
    """len(enumerate_delta(n, big_n)), without building the weights.

    On doubled coordinates a member is N >= c_1 >= ... >= c_{n-1} >= |c_n|, each of
    N's parity. Fixing c_{n-1} = N - 2j leaves N + 1 - 2j values of c_n and
    C(j + n - 2, n - 2) choices of c_1..c_{n-2}; the hockey-stick identity sums that
    over j = 0..K, K = N // 2, to (N + 1) C(K + n - 1, n - 1) - 2 (n - 1) C(K + n - 1, n).
    """
    _check_delta_dims(n, big_n)
    k = big_n // 2
    return (big_n + 1) * comb(k + n - 1, n - 1) - 2 * (n - 1) * comb(k + n - 1, n)


def enumerate_delta(n: int, big_n: int) -> list[Weight]:
    """All member weights at height n and length big_n, descending lex order.

    The doubled coordinates N >= c_1 >= ... >= c_{n-1} >= |c_n|, each of N's parity, are
    counted down like an odometer, with no recursion: lower the last coordinate that can
    drop by 2 and raise every later one to its new value, the largest it may take.
    """
    _check_delta_dims(n, big_n)
    least = big_n % 2  # c_1..c_{n-1} bound |c_n|, so none is below N's parity
    c = [big_n] * n
    out = []
    while True:
        out.append(Weight(tuple(c)))
        k = n - 1
        if c[k] - 2 < -c[k - 1]:
            k -= 1
            while k >= 0 and c[k] - 2 < least:
                k -= 1
            if k < 0:
                return out
        c[k] -= 2
        c[k + 1 :] = [c[k]] * (n - 1 - k)


def contains(d1: CellDiagram, d2: CellDiagram) -> bool:
    """Componentwise containment of rows on both sides of the axis."""
    if d1.height != d2.height:
        raise ValidationError("diagrams must have equal heights")
    return all(a >= b for a, b in zip(d1.l, d2.l)) and all(
        a >= b for a, b in zip(d1.r, d2.r)
    )


@dataclass(frozen=True, slots=True)
class CellTable:
    """A regular cell table, stored as its step sequence of spinor weights."""

    steps: tuple[Weight, ...]

    def __post_init__(self):
        steps = self.steps
        if type(steps) is not tuple:
            steps = tuple(steps)
            object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValidationError("a table has at least one step")
        n, bad = steps[0].rank, 0
        total = (0,) * n
        for k, mu in enumerate(steps, 1):  # a bad prefix sum is reported after the steps
            c = mu.coords2
            if len(c) != n:
                raise ValidationError("all steps must share one rank")
            if not is_spinor2(c):
                raise ValidationError(f"step {k} is not a spinor weight: {mu}")
            if not bad:  # only the first bad prefix sum is reported
                total = tuple(map(add, total, c))
                if not is_dominant2(total):
                    bad = k
        if bad == 1:
            raise ValidationError(f"first step must be one of the two dominant spinor weights, got {steps[0]}")
        if bad:
            raise ValidationError(f"prefix sum at position {bad} is not dominant")

    @property
    def length(self):
        return len(self.steps)

    @property
    def height(self):
        return self.steps[0].rank

    def weight(self) -> Weight:
        return trusted(Weight, tuple(map(sum, zip(*(mu.coords2 for mu in self.steps)))))

    def shape(self) -> CellDiagram:
        return diagram_of_weight(self.weight(), self.length)

    def diagram_chain(self) -> list[CellDiagram]:
        """The nested diagrams of the prefix sums, lengths 1..N."""
        sums = accumulate((mu.coords2 for mu in self.steps), lambda t, c: tuple(map(add, t, c)))
        return [diagram_of_weight(Weight(total), k) for k, total in enumerate(sums, 1)]

    def prefix(self, k: int) -> "CellTable":
        return CellTable(self.steps[:k])

    def flat2(self):
        return tuple(c for mu in self.steps for c in mu.coords2)

    def to_json(self):
        return {"steps2": [list(mu.coords2) for mu in self.steps]}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(Weight(tuple(s)) for s in data["steps2"]))


def table_from_steps(steps) -> CellTable:
    """Validate a step sequence and return the table (membership in T^N)."""
    return CellTable(tuple(steps))


def steps_from_diagram_chain(chain) -> CellTable:
    """Recover the step sequence from a nested diagram chain of lengths 1..N. Each row
    gains one box, so entry k contains entry k - 1 iff every step coordinate is +-1."""
    chain = list(chain)
    if not chain:
        raise ValidationError("empty chain")
    n = chain[0].height
    prev_l = prev_r = (0,) * n
    steps = []
    for k, d in enumerate(chain, 1):
        if d.length != k:
            raise ValidationError(f"chain entry {k} has length {d.length}, expected {k}")
        if d.height != n:
            raise ValidationError("diagrams must have equal heights")
        steps.append(Weight(tuple(
            (r - pr) - (l - pl) for l, r, pl, pr in zip(d.l, d.r, prev_l, prev_r))))
        prev_l, prev_r = d.l, d.r
    return table_from_steps(steps)


def enumerate_tables(shape: CellDiagram) -> list[CellTable]:
    """All tables of the given shape, in descending lex order on flattened steps, from three
    flat passes over the prefix sums.

    Forward: levels[k] maps every dominant sum of k steps within distance N - k of the
    shape's weight (in each doubled coordinate) to its moves, the (step, next sum) pairs in
    pool order. Backward: each level keeps only the moves into sums that still complete.
    Expand: the prefixes grow one level at a time along the kept moves. Every carried prefix
    completes, so no level holds more prefixes than the output.
    """
    n, big_n = shape.height, shape.length
    target = weight_of_diagram(shape).coords2
    steps_pool = spinor_weights(n)
    levels = [{(0,) * n: []}]
    for k in range(big_n):  # at k = 0 dominance keeps the two dominant first steps
        remaining, reached = big_n - k - 1, {}
        for total, moves in levels[k].items():
            for mu in steps_pool:
                new_total = tuple(map(add, total, mu.coords2))
                if new_total not in reached:
                    reached[new_total] = is_dominant2(new_total) and all(
                        abs(t - c) <= remaining for t, c in zip(target, new_total))
                if reached[new_total]:
                    moves.append((mu, new_total))
        levels.append({total: [] for total, ok in reached.items() if ok})
    for k in range(big_n - 1, -1, -1):  # level N holds the shape's weight alone, if anything
        live = levels[k + 1]
        levels[k] = {total: kept for total, moves in levels[k].items()
                     if (kept := [move for move in moves if move[1] in live])}
    prefixes = [((), (0,) * n)] if levels[0] else []
    for level in levels[:-1]:
        prefixes = [(steps + (mu,), new_total)
                    for steps, total in prefixes for mu, new_total in level[total]]
    return [trusted(CellTable, steps) for steps, _ in prefixes]
