"""Short Young diagrams, semi-standard short Young tables, GT patterns.

A short Young diagram in SYD(N, n) is a partition whose first two column
lengths sum to at most N and with at most n columns; these index the
irreducible representations of the rank-N orthogonal group that occur here.
The three indexing sets (cell tables, short Young tables, GT patterns) are
connected by the bijections y_map and j_map below.

All three read their data once: a step whose coordinate n+1-j is -1/2 (at odd n and j = 1:
whose last one is +1/2) grows column j, a GT row is a level's shorter diagram, doubled, and
j_inverse reads level k back as |beta_k|/2 or its associate. y_map and y_inverse read each step
from one memo per rank, filled as steps are met (at most 2^n): step -> its grown coordinates,
and the mask of a strip's grown coordinates -> its step.

Records are validated where they enter: the constructors, from_json, f_map, y_map, y_inverse
(through CellTable) and j_map. Each rule is one index loop over row tuples: a diagram's rows
(their integers and order in one loop, the order reported after the height, width bound and
positivity), each strip of a chain (_strip) and each pair of pattern rows (interlaces), after
the rank loop has checked every row's rank and dominance. The records are slotted and store a
field back only when they convert it (a non-tuple input). What this module
derives from checked values (the enumerators, branch_syd, associated, f_inverse,
syd_to_orthweight, y_inverse's steps, j_inverse's chain) is built through weights.trusted,
one builder per record class; y_inverse's steps are checked by validating the CellTable they
form, and j_inverse checks each strip on the rows before it builds the level, and compares
its j_map image with p. enumerate_sssyt calls branch_syd once per distinct diagram of a level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .celldiag import CellDiagram, CellTable
from .errors import ValidationError
from .weights import OrthWeight, Weight, as_int, trusted


@dataclass(frozen=True, slots=True)
class ShortYoungDiagram:
    """Partition stored as row lengths, with ambient height N and width bound n."""

    rows: tuple[int, ...]
    N: int
    n: int

    def __post_init__(self):
        rows = self.rows
        if type(rows) is not tuple:
            rows = tuple(rows)
            object.__setattr__(self, "rows", rows)
        # one pass over the rows: a non-int raises at once; their order is noted and reported
        # after the height, the width bound and positivity (rows in order end at their least)
        ordered, last = True, rows[0] if rows else 1
        for x in rows:
            if type(x) is not int:
                as_int(x)
            if x > last:
                ordered = False
            last = x
        big_n, n = self.N, self.n
        if big_n < 0 or n < 2:
            raise ValidationError("need ambient height >= 0 and width bound >= 2")
        if (last if ordered else min(rows)) <= 0:
            raise ValidationError("row lengths must be positive (drop trailing zeros)")
        if not ordered:
            raise ValidationError("rows must be weakly decreasing")
        if rows and rows[0] > n:
            raise ValidationError(f"at most {n} columns allowed, got {rows[0]}")
        if not _fits(rows, big_n):
            raise ValidationError(f"first two columns sum to {len(rows) + self.col(2)} > {big_n}")

    def col(self, j):
        """Length of the j-th column (1-based)."""
        return sum(1 for x in self.rows if x >= j)

    def columns(self):
        return _rows_from_columns(self.rows)

    def size(self):
        return sum(self.rows)

    def horizontal_strip_over(self, other):
        """True iff self contains other and self - other has no two cells in a column."""
        return _strip(self.rows, other.rows)

    def to_json(self):
        return {"rows": list(self.rows), "N": self.N, "n": self.n}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data["rows"]), as_int(data["N"]), as_int(data["n"]))


def _fits(rows, big_n):
    """The short-diagram rule on a partition: its first two columns sum to at most big_n."""
    return 2 * len(rows) - rows.count(1) <= big_n


def _strip(big, small):
    """The horizontal-strip rule on partitions, rows zero padded: big_i >= small_i >= big_{i+1}.
    Rows are positive, so small has len(big) - 1 or len(big) rows."""
    n = len(big)
    if not n - 1 <= len(small) <= n:
        return False
    for i in range(len(small)):
        x = small[i]
        if x > big[i] or (i + 1 < n and x < big[i + 1]):
            return False
    return True


def _rows_from_columns(cols):
    """The conjugate partition: entry j counts the columns of length >= j."""
    return tuple(sum(1 for c in cols if c >= j) for j in range(1, max(cols, default=0) + 1))


def f_map(d: CellDiagram) -> ShortYoungDiagram:
    """The diagram whose columns are (l_n, ..., l_1), or (r_n, l_{n-1}, ..., l_1) at odd height."""
    n = d.height
    if n % 2 == 0:
        cols = tuple(reversed(d.l))
    else:
        cols = (d.r[-1],) + tuple(reversed(d.l[:-1]))
    try:
        return ShortYoungDiagram(_rows_from_columns(cols), d.length, n)
    except ValidationError as exc:  # pragma: no cover - guaranteed for valid input
        raise AssertionError(f"f_map produced an invalid diagram: {exc}") from exc


def f_inverse(v: ShortYoungDiagram) -> CellDiagram:
    """The unique cell diagram mapping to v: l = (c_n, ..., c_1) on the columns c, with
    l_n = N - c_1 at odd n. It is regular exactly because c_1 + c_2 <= N."""
    if v.N < 1:
        raise ValidationError(f"tensor power must be positive, got {v.N}")
    cols = v.columns()
    l = list(reversed(cols + (0,) * (v.n - len(cols))))
    if v.n % 2:
        l[-1] = v.N - l[-1]
    return trusted(CellDiagram, tuple(l), tuple(v.N - x for x in l))


def _associate_rows(rows, big_n):
    """The rows of the associate: the first column becomes big_n minus itself."""
    wide = rows[:len(rows) - rows.count(1)]  # the c_2 rows past the first column stay
    return wide + (1,) * (big_n - len(rows) - len(wide))


def associated(v: ShortYoungDiagram) -> ShortYoungDiagram:
    """Replace the first column by N minus itself; an involution on SYD(N, n)."""
    return trusted(ShortYoungDiagram, _associate_rows(v.rows, v.N), v.N, v.n)


def is_self_associated(v: ShortYoungDiagram) -> bool:
    return 2 * len(v.rows) == v.N


def shorter(v: ShortYoungDiagram) -> ShortYoungDiagram:
    """The shorter of v and its associate (v itself when its first column is <= N/2)."""
    return v if 2 * len(v.rows) <= v.N else associated(v)


def syd_to_orthweight(v: ShortYoungDiagram, k: int, sign: int = 1) -> OrthWeight:
    """Rows of v as an o_k weight, zero padded; sign -1 negates the last coordinate."""
    d = k // 2
    if len(v.rows) > d:
        raise ValidationError(
            f"first column {len(v.rows)} exceeds {k}/2; pass the shorter diagram"
        )
    coords = list(v.rows) + [0] * (d - len(v.rows))
    if sign == -1:
        if k % 2 or len(v.rows) != d:
            raise ValidationError(
                "sign -1 needs even ambient rank and exactly k/2 nonzero rows"
            )
        coords[-1] = -coords[-1]
    elif sign != 1:
        raise ValidationError("sign must be +1 or -1")
    if k < 1:  # reached only by an empty v at k = 0
        raise ValidationError(f"ambient rank must be positive, got {k}")
    return trusted(OrthWeight, tuple(2 * c for c in coords), k)


def _child_ranges(beta: OrthWeight) -> list[tuple[int, int]]:
    """Bounds (lo, hi) on each doubled coordinate of a rank k-1 row under beta.

    The branching rule of Molev (arXiv math/0211289) is the chain
    b_1 >= m_1 >= b_2 >= m_2 >= ..., so b_j >= m_j >= b_{j+1}; it ends with
    b_d >= |m_d| at odd k and with m_{d-1} >= |b_d| at even k. Every bound
    depends on beta alone; interlaces checks the same chain on the two rows.
    """
    b = beta.coords2
    if beta.k % 2:
        return [*zip(b[1:], b), (-b[-1], b[-1])]
    return [*zip(b[1:-1], b), (abs(b[-1]), b[-2])] if len(b) > 1 else []


def interlaces(beta: OrthWeight, mu: OrthWeight) -> bool:
    """The branching condition from rank k down to rank k-1: b_j >= m_j >= b_{j+1}
    along the rows, ending as in _child_ranges."""
    if beta.k != mu.k + 1:
        raise ValidationError(f"ranks must be adjacent, got {beta.k} and {mu.k}")
    b, m = beta.coords2, mu.coords2
    if beta.k % 2:  # b and m both have d coordinates: ... >= b_d >= |m_d|
        for j in range(len(m) - 1):
            if not b[j] >= m[j] >= b[j + 1]:
                return False
        return b[-1] >= abs(m[-1])
    if len(b) < 2:  # m has d - 1 coordinates: ... >= b_{d-1} >= m_{d-1} >= |b_d|
        return True
    for j in range(len(b) - 2):
        if not b[j] >= m[j] >= b[j + 1]:
            return False
    return b[-2] >= m[-1] >= abs(b[-1])


def branch_syd(v: ShortYoungDiagram) -> list[ShortYoungDiagram]:
    """All members of SYD(N-1, n) under v by a horizontal strip, generated in descending lex."""
    if v.N < 1:
        raise ValidationError("cannot branch below height 0")
    out = []
    for cand in product(*(range(hi, lo - 1, -1) for hi, lo in zip(v.rows, v.rows[1:] + (0,)))):
        # interlacing under v keeps rows decreasing and within n; only c_1 + c_2 can fail
        rows = tuple(x for x in cand if x > 0)
        if _fits(rows, v.N - 1):
            out.append(trusted(ShortYoungDiagram, rows, v.N - 1, v.n))
    return out


@dataclass(frozen=True, slots=True)
class SSYTable:
    """A chain of short Young diagrams growing by horizontal strips."""

    chain: tuple[ShortYoungDiagram, ...]

    def __post_init__(self):
        chain = self.chain
        if type(chain) is not tuple:
            chain = tuple(chain)
            object.__setattr__(self, "chain", chain)
        if not chain:
            raise ValidationError("a table has at least one diagram")
        n = chain[0].n
        for k, v in enumerate(chain, 1):
            if v.N != k:
                raise ValidationError(f"chain entry {k} has ambient height {v.N}, expected {k}")
            if v.n != n:
                raise ValidationError("all chain entries must share one width bound")
        for k in range(1, len(chain)):
            if not _strip(chain[k].rows, chain[k - 1].rows):
                raise ValidationError(
                    f"entry {k + 1} does not grow from entry {k} by a horizontal strip"
                )

    @property
    def length(self):
        return len(self.chain)

    @property
    def shape(self):
        return self.chain[-1]

    def to_json(self):
        return {"chain": [list(v.rows) for v in self.chain], "n": self.chain[0].n}

    @classmethod
    def from_json(cls, data, n=None):
        width = data.get("n", n)
        if width is None:
            raise ValidationError("width bound n is required to read a chain")
        return cls(tuple(ShortYoungDiagram(tuple(rows), k, as_int(width))
                         for k, rows in enumerate(data["chain"], 1)))


def enumerate_sssyt(v: ShortYoungDiagram) -> list[SSYTable]:
    """All semi-standard short Young tables of shape v, descending lex order."""
    if v.N < 1:  # a chain starts at height 1
        raise ValidationError(f"chain entry 1 has ambient height {v.N}, expected 1")
    chains = [(v,)]
    for _ in range(v.N - 1):
        below, grown = {}, []  # one branch_syd call per distinct diagram of the level
        for c in chains:
            rhos = below.get(c[0].rows)
            if rhos is None:
                rhos = below[c[0].rows] = branch_syd(c[0])
            grown += [(rho,) + c for rho in rhos]
        chains = grown
    out = [trusted(SSYTable, c) for c in chains]
    out.sort(key=lambda s: tuple(x.rows for x in s.chain), reverse=True)
    return out


def count_sssyt(v: ShortYoungDiagram) -> int:
    """len(enumerate_sssyt(v)), without building the chains: the dimension of the O(N)
    irreducible of v, by the El Samra-King hook formula. It is the product over the boxes
    (i, j) of v of (N + r_ij) / h_ij, h_ij the hook length, r_ij = v_i + v_j - i - j for
    i <= j and -(v'_i + v'_j - i - j + 2) for i > j (1-based; v' the columns, v_k = 0 and
    v'_k = 0 past the diagram)."""
    rows, cols = v.rows + (0,) * v.n, v.columns() + (0,) * len(v.rows)
    num = den = 1
    for i, row in enumerate(v.rows, 1):
        for j in range(1, row + 1):
            if i <= j:
                num *= v.N + row + rows[j - 1] - i - j
            else:
                num *= v.N - cols[i - 1] - cols[j - 1] + i + j - 2
            den *= row - j + cols[j - 1] - i + 1
    return num // den


def _growing_signs(n):
    """Per step coordinate i, the sign growing column n - i: l_{i+1}, or r_n at odd n (f_map)."""
    return (-1,) * (n - 1) + (1 if n % 2 else -1,)


_STEP_MEMO = {}  # rank n -> ({grown mask: step}, {step coords2: grown coordinates})


def _step_memo(n):
    """Rank n's step memo, filled by _enter_step as steps are met: at most its 2^n steps."""
    memo = _STEP_MEMO.get(n)
    if memo is None:
        memo = _STEP_MEMO[n] = ({}, {})
    return memo


def _enter_step(n, mask):
    """Enter the rank-n step growing the coordinates i with bit i of mask set into its memo;
    returns the step and those coordinates, ascending."""
    steps, grown_of = _step_memo(n)
    step = steps[mask] = trusted(Weight, tuple(s if mask >> i & 1 else -s
                                               for i, s in enumerate(_growing_signs(n))))
    grown = grown_of[step.coords2] = tuple(i for i in range(n) if mask >> i & 1)
    return step, grown


def y_map(t: CellTable) -> SSYTable:
    """f_map of each prefix diagram: a column growing from L to L + 1 adds a box to row L + 1.
    Each step's grown coordinates are read from the rank's step memo."""
    n = t.height
    grown_of = _step_memo(n)[1]
    cols, rows, chain = [0] * n, [0] * t.length, []
    try:
        for k, mu in enumerate(t.steps, 1):
            grown = grown_of.get(mu.coords2)
            if grown is None:
                signs = _growing_signs(n)
                grown = _enter_step(n, sum(1 << i for i, c in enumerate(mu.coords2)
                                           if c == signs[i]))[1]
            for i in grown:
                rows[cols[i]] += 1
                cols[i] += 1
            chain.append(ShortYoungDiagram(tuple(rows[:max(cols)]), k, n))
        return SSYTable(tuple(chain))
    except ValidationError as exc:  # pragma: no cover - guaranteed for valid input
        raise AssertionError(f"y_map produced an invalid chain: {exc}") from exc


def y_inverse(s: SSYTable) -> CellTable:
    """Step k grows the columns of level k's strip, old_i + 1..new_i for each row i: step
    coordinates n - new_i..n - old_i - 1, read as a mask from the rank's step memo. The
    steps are built through trusted; validating the CellTable checks each of them."""
    n = s.chain[0].n
    steps_of = _step_memo(n)[0]
    steps, old = [], ()
    for v in s.chain:
        mask = 0
        for o, new in zip(old + (0,), v.rows):  # a strip opens at most one row
            mask |= (1 << n - o) - (1 << n - new)
        step = steps_of.get(mask)
        if step is None:
            step = _enter_step(n, mask)[0]
        steps.append(step)
        old = v.rows
    return CellTable(tuple(steps))


@dataclass(frozen=True, slots=True)
class GTPattern:
    """Interlacing chain of orthogonal weights (rank N down to 3) plus the rank-2 label z."""

    betas: tuple[OrthWeight, ...]
    z: int

    def __post_init__(self):
        betas = self.betas
        if type(betas) is not tuple:
            betas = tuple(betas)
            object.__setattr__(self, "betas", betas)
        z = as_int(self.z)
        if not betas:
            raise ValidationError("a pattern has at least the rank-3 row")
        top = betas[0].k
        if top < 3:
            raise ValidationError("patterns start at rank 3 or higher")
        for offset, beta in enumerate(betas):
            if beta.k != top - offset:
                raise ValidationError("rows must descend through consecutive ranks")
            if not beta.is_dominant():
                raise ValidationError(f"{beta.coords2} is not dominant for o_{beta.k}")
        if betas[-1].k != 3:
            raise ValidationError("the last row must have rank 3")
        for upper, lower in zip(betas, betas[1:]):
            if not interlaces(upper, lower):
                raise ValidationError(f"rows at ranks {upper.k}, {lower.k} do not interlace")
        if betas[-1].coords2[0] < 2 * abs(z):
            raise ValidationError("the rank-3 row must dominate |z|")

    @property
    def top_rank(self):
        return self.betas[0].k

    def to_json(self):
        return {"betas2": [list(b.coords2) for b in self.betas], "z": self.z}

    @classmethod
    def from_json(cls, data):
        top = len(data["betas2"]) + 2
        return cls(tuple(OrthWeight(tuple(c), top - off) for off, c in enumerate(data["betas2"])),
                   data["z"])


def j_map(s: SSYTable) -> GTPattern:
    """The pattern of a chain: shorter diagrams as rows, with a sign twist at
    self-associated levels recording the parity of the level below, and z
    carrying the rank-2 data with a sign remembering whether level 1 is empty."""
    if s.length < 3:
        raise ValidationError("patterns are only defined for chains of length >= 3")
    betas = []
    for k in range(s.length, 2, -1):
        rows = s.chain[k - 1].rows
        if 2 * len(rows) > k:
            rows = _associate_rows(rows, k)
        coords = [2 * x for x in rows]
        if len(rows) < k // 2:
            coords += [0] * (k // 2 - len(rows))
        elif 2 * len(rows) == k and sum(s.chain[k - 2].rows) % 2:  # self-associated, odd below
            coords[-1] = -coords[-1]
        betas.append(trusted(OrthWeight, tuple(coords), k))
    low = s.chain[1].rows  # level 2 is (), (a,) or (1, 1), whose shorter diagram is ()
    z = (sum(low) if len(low) < 2 else 0) * (-1 if s.chain[0].rows else 1)
    try:
        return GTPattern(tuple(betas), z)
    except ValidationError as exc:  # pragma: no cover - guaranteed for valid input
        raise AssertionError(f"j_map produced an invalid pattern: {exc}") from exc


def _reading(p: GTPattern, k: int):
    """The shorter of the two rows level k can have under p, the other being its associate:
    |beta_k|/2 at k >= 3 (None if a coordinate is odd), else read off z."""
    if k >= 3:
        rows = []
        for c in p.betas[p.top_rank - k].coords2:
            if c % 2:
                return None
            if c:
                rows.append(abs(c) // 2)
        return tuple(rows)
    if k == 2:
        return (abs(p.z),) if p.z else ()
    return (1,) if p.z < 0 else ()


def j_inverse(p: GTPattern, v: ShortYoungDiagram) -> SSYTable:
    """The unique chain of shape v mapping to p; raises if p is not in the image.

    Read top down, level k is its _reading or that row's associate: a strip adds at most one
    box to the first column, so the shorter one unless it is too short. Both fit only below a
    self-associated level k+1; their sizes differ by one, and j_map recorded the odd one as
    a negative last coordinate of beta_{k+1}. The associate is built only where one of these
    rules picks it. A final j_map comparison guards the result."""
    big_n = v.N
    if p.top_rank != big_n:
        raise ValidationError(f"pattern top rank {p.top_rank} does not match shape height {big_n}")
    if big_n < 3:
        raise ValidationError("patterns are only defined for chains of length >= 3")
    rows = _reading(p, big_n)
    if rows is None or v.rows != rows and v.rows != _associate_rows(rows, big_n):
        raise ValidationError("pattern top row does not encode the given shape")
    chain, upper = [v], v.rows
    for k in range(big_n - 1, 0, -1):
        rows = _reading(p, k)
        if rows is None:
            raise ValidationError("pattern is not in the image of the chain bijection")
        if k >= 3 and 2 * len(upper) == k + 1:  # below a self-associated level
            if sum(rows) % 2 != (p.betas[big_n - k - 1].coords2[-1] < 0):
                rows = _associate_rows(rows, k)
        elif len(rows) < len(upper) - 1:
            rows = _associate_rows(rows, k)
        if not _strip(upper, rows):
            raise ValidationError("pattern is not in the image of the chain bijection")
        chain.append(trusted(ShortYoungDiagram, rows, k, v.n))
        upper = rows
    s = trusted(SSYTable, tuple(reversed(chain)))
    if j_map(s) != p:
        raise ValidationError("pattern is not in the image of the chain bijection")
    return s


def _interlacing_children(beta: OrthWeight):
    """All rows of the next rank down that interlace beta, descending lex, each
    coordinate stepping down by 2 from its upper bound (so of beta's parity)."""
    ranges = (range(hi, lo - 1, -2) for lo, hi in _child_ranges(beta))
    return [trusted(OrthWeight, row, beta.k - 1) for row in product(*ranges)]


def enumerate_gtp(v: ShortYoungDiagram) -> list[GTPattern]:
    """All patterns whose top row encodes v, generated in descending (betas, z)
    order: sign +1 before -1 on top, children descending, z from top3 down."""
    if v.N < 3:
        raise ValidationError("patterns are only defined for ambient height >= 3")
    if is_self_associated(v):
        tops = [syd_to_orthweight(v, v.N, 1), syd_to_orthweight(v, v.N, -1)]
    else:
        tops = [syd_to_orthweight(shorter(v), v.N)]
    stacks = [[t] for t in tops]
    for _ in range(v.N - 3):
        stacks = [
            chain + [child]
            for chain in stacks
            for child in _interlacing_children(chain[-1])
        ]
    out = []
    for chain in stacks:
        top3 = chain[-1].coords2[0] // 2
        for z in range(top3, -top3 - 1, -1):
            out.append(trusted(GTPattern, tuple(chain), z))
    return out
