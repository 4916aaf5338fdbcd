"""Exact exterior-algebra verifier for the joint orthogonal actions.

The ambient space has one basis vector per pair (k, i) with k in 1..N and
i in 1..n, enumerated as (k-1)*n + (i-1). Monomials are bitmasks over these
indices, kept sorted ascending, and every operator sign is a transposition
count against that order. An operator word acts monomial by monomial: each
letter either kills the monomial (wedge onto a set bit, contraction of a clear
one) or toggles its bit, flipping the sign when an odd number of set bits lies
below it; only a surviving monomial touches its coefficient, once. Every
coefficient is a nonzero Fraction: the public constructor converts and drops
zeros, and every operation returns Fractions. The operators in scope only
ever introduce halves, so denominators stay powers of two. gl is in normal
order, E_ij = sum_k psi_{k,i} d_{k,j} - (N/2) delta_ij, so both Cartan
subalgebras act diagonally on monomials and weights are read off the bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .celldiag import diagram_of_weight
from .errors import ValidationError
from .weights import OrthWeight, Weight
from .youngt import f_map, shorter, syd_to_orthweight

ONE = Fraction(1)


class ExteriorVector:
    """Sparse exact linear combination of wedge monomials (bitmask -> coefficient)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def _of(cls, terms):
        """Wrap a dict of nonzero Fractions as given."""
        vec = object.__new__(cls)
        vec.terms = terms
        return vec

    @classmethod
    def unit(cls):
        return cls({0: ONE})

    @classmethod
    def monomial(cls, mask, coeff=ONE):
        return cls({mask: coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, ExteriorVector) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return _nonzero(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        c = Fraction(c)
        return _nonzero({m: c * v for m, v in self.terms.items()})

    def __repr__(self):
        if self.is_zero():
            return "ExteriorVector(0)"
        parts = [f"{c}*[{m:b}]" for m, c in sorted(self.terms.items())]
        return "ExteriorVector(" + " + ".join(parts) + ")"


def _nonzero(terms):
    """The vector of a dict of Fractions, dropping the coefficients that cancelled."""
    return ExteriorVector._of({m: c for m, c in terms.items() if c})


# m -> m | bit and m -> m ^ bit are injective and +-c != 0: no image accumulates or cancels.
def wedge_insert(idx, x: ExteriorVector) -> ExteriorVector:
    """Left wedge by basis vector idx; kills monomials already containing it."""
    bit, below = 1 << idx, (1 << idx) - 1
    return ExteriorVector._of({m | bit: -c if (m & below).bit_count() & 1 else c
                               for m, c in x.terms.items() if not m & bit})


def contract(idx, x: ExteriorVector) -> ExteriorVector:
    """Interior product dual to wedge_insert; kills monomials without idx."""
    bit, below = 1 << idx, (1 << idx) - 1
    return ExteriorVector._of({m ^ bit: -c if (m & below).bit_count() & 1 else c
                               for m, c in x.terms.items() if m & bit})


@dataclass(frozen=True)
class OperatorSpec:
    """A signed sum of words in the wedge/contraction generators.

    Each term is (coefficient, word); a word is a tuple of ("M", idx) or
    ("D", idx) letters, applied right to left.
    """

    terms: tuple[tuple[Fraction, tuple[tuple[str, int], ...]], ...]

    def __add__(self, other):
        return OperatorSpec(self.terms + other.terms)

    def scaled(self, c):
        c = Fraction(c)
        return OperatorSpec(tuple((c * coeff, word) for coeff, word in self.terms))

    def apply(self, x: ExteriorVector) -> ExteriorVector:
        out = {}
        for start, c in x.terms.items():
            for coeff, word in self.terms:
                mask, below = start, 0
                for kind, idx in reversed(word):
                    if (kind == "M") == (mask >> idx & 1):
                        break  # wedge onto a set bit or contraction of a clear one
                    below += (mask & ((1 << idx) - 1)).bit_count()
                    mask ^= 1 << idx
                else:
                    prev = out.get(mask, 0)
                    out[mask] = prev - coeff * c if below & 1 else prev + coeff * c
        return _nonzero(out)


@dataclass
class BiWeightReport:
    is_weight: bool
    left: OrthWeight | None
    right: Weight | None


@dataclass
class SingularReport:
    all_zero: bool
    nonzero: list[str] = field(default_factory=list)


class ExteriorAlgebra:
    """Operator context for fixed block sizes n (columns) and N (rows)."""

    def __init__(self, n, big_n):
        if n < 2:
            raise ValidationError(f"need n >= 2, got {n}")
        if big_n < 1:
            raise ValidationError(f"need N >= 1, got {big_n}")
        self.n = n
        self.N = big_n
        self.d = big_n // 2

    def index(self, k, i):
        if not (1 <= k <= self.N and 1 <= i <= self.n):
            raise ValidationError(f"basis pair ({k}, {i}) out of range")
        return (k - 1) * self.n + (i - 1)

    def kbar(self, k):
        """Pairing of the isotropic basis halves; the odd extra vector is fixed."""
        if k <= self.d:
            return k + self.d
        if k <= 2 * self.d:
            return k - self.d
        return k

    # -- the commuting actions ------------------------------------------------

    def oe_operator(self, label) -> OperatorSpec:
        """The operator image of one column-side basis element."""
        kind, i, j = label
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValidationError(f"column indices out of range in {label}")
        if kind not in ("gl", "raise", "lower"):
            raise ValidationError(f"unknown column-side label {label}")
        if kind != "gl" and i == j:
            raise ValidationError(f"{kind} operators need i != j")
        i, j, rows = i - 1, j - 1, self._row_offsets
        if kind == "gl":
            terms = [(ONE, (("M", row + i), ("D", row + j))) for row, _ in rows]
        elif kind == "raise":
            terms = [(ONE, (("M", row + i), ("M", bar + j))) for row, bar in rows]
        else:
            terms = [(ONE, (("D", bar + i), ("D", row + j))) for row, bar in rows]
        # the normal-order shift of the diagonal gl elements: -N/2 on every monomial
        shift = [(Fraction(-self.N, 2), ())] if kind == "gl" and i == j else []
        return OperatorSpec(tuple(shift + terms))

    @cached_property
    def _row_offsets(self):
        """(row offset, kbar-row offset) of each row k = 1..N in the bit enumeration."""
        n = self.n
        return tuple(((k - 1) * n, (self.kbar(k) - 1) * n) for k in range(1, self.N + 1))

    def npos_oE_labels(self):
        cols = range(1, self.n + 1)
        return [(kind, i, j) for kind in ("gl", "raise") for i in cols for j in cols if i < j]

    def ov_operator(self, mat) -> OperatorSpec:
        """Derivation action of a row-side matrix {(p, q): c}, v_q -> c * v_p."""
        n = self.n
        terms = []
        for (p, q), c in mat.items():
            if not (1 <= p <= self.N and 1 <= q <= self.N):
                raise ValidationError(f"row indices ({p}, {q}) out of range")
            if c == 0:
                continue
            c, src, dst = Fraction(c), (p - 1) * n, (q - 1) * n
            terms += [(c, (("M", src + s), ("D", dst + s))) for s in range(n)]
        return OperatorSpec(tuple(terms))

    def npos_oV_matrices(self):
        d = self.d
        mats = []
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                mats.append((f"E({i},{j})-E({j + d},{i + d})", {(i, j): 1, (j + d, i + d): -1}))
                mats.append((f"E({i},{j + d})-E({j},{i + d})", {(i, j + d): 1, (j, i + d): -1}))
        if self.N % 2 == 1:
            last = self.N
            for i in range(1, d + 1):
                mats.append((f"E({i},{last})-E({last},{i + d})", {(i, last): 1, (last, i + d): -1}))
        return mats

    # -- the operators the reports apply, each built once, on first use -----------
    # (dicts from report name to OperatorSpec)

    @cached_property
    def column_raising(self):
        return {str(label): self.oe_operator(label) for label in self.npos_oE_labels()}

    @cached_property
    def row_raising(self):
        return {name: self.ov_operator(mat) for name, mat in self.npos_oV_matrices()}

    @cached_property
    def row_cartan(self):
        d = self.d
        return {
            f"t_{i}": self.ov_operator({(i, i): 1, (i + d, i + d): -1}) for i in range(1, d + 1)
        }

    @cached_property
    def column_cartan(self):
        return {f"h_{i}": self.oe_operator(("gl", i, i)) for i in range(1, self.n + 1)}

    # -- distinguished vectors and group elements ------------------------------

    def xi_lambda(self, w: Weight) -> ExteriorVector:
        """The explicit top vector: row i takes its first r_i slots in the order
        1, ..., d, N, N-1, ..., d+1."""
        if w.rank != self.n:
            raise ValidationError("weight rank does not match n")
        diag = diagram_of_weight(w, self.N)
        factors = []
        for i in range(1, self.n + 1):
            r = diag.r[i - 1]
            for k in range(1, min(r, self.d) + 1):
                factors.append(self.index(k, i))
            for k in range(1, max(0, r - self.d) + 1):
                factors.append(self.index(self.N - k + 1, i))
        vec = ExteriorVector.unit()
        for idx in reversed(factors):
            vec = wedge_insert(idx, vec)
        assert len(vec.terms) == 1, "top vector must be a single monomial"
        return vec

    def substitute_rows(self, row_map, v):
        """Relabel row indices of every factor, wedging them on right to left with signs."""
        out = {}
        for m, c in v.terms.items():
            nm, below = 0, 0
            for bit in reversed(range(m.bit_length())):
                if m >> bit & 1:
                    k, i = divmod(bit, self.n)
                    idx = self.index(row_map.get(k + 1, k + 1), i + 1)
                    if nm >> idx & 1:
                        raise ValidationError("row relabeling is not injective")
                    below += (nm & ((1 << idx) - 1)).bit_count()
                    nm |= 1 << idx
            out[nm] = out.get(nm, 0) + (-c if below & 1 else c)
        return _nonzero(out)

    def gd_swap(self, v):
        """Action of the group element exchanging rows d and 2d (even N only)."""
        if self.N % 2 == 1:
            raise ValidationError("the row swap element needs even N")
        return self.substitute_rows({self.d: 2 * self.d, 2 * self.d: self.d}, v)

    def neg_id(self, v):
        """Action of -Id: each monomial scales by (-1)^degree."""
        return ExteriorVector._of({m: -c if m.bit_count() & 1 else c for m, c in v.terms.items()})

    # -- reports ---------------------------------------------------------------

    def weight_of_vector(self, v: ExteriorVector) -> BiWeightReport:
        """The doubled weight all of v's monomials share, read off their bits: t_i is
        2(bits of row i - bits of row i+d), h_i is 2(rows holding column i) - N."""
        n, d, big_n = self.n, self.d, self.N
        row, column = (1 << n) - 1, sum(1 << k * n for k in range(big_n))  # row 1, column 1
        weights = set()
        for m in v.terms:
            counts = [(m >> k * n & row).bit_count() for k in range(2 * d)]
            left = tuple(2 * (counts[i] - counts[i + d]) for i in range(d))
            weights.add((left, tuple(2 * (m & column << i).bit_count() - big_n for i in range(n))))
        if len(weights) != 1:  # the zero vector, or mixed weights
            return BiWeightReport(False, None, None)
        ((left, right),) = weights
        return BiWeightReport(True, OrthWeight(left, big_n), Weight(right))

    def check_singular(self, v: ExteriorVector) -> SingularReport:
        raising = (*self.column_raising.items(), *self.row_raising.items())
        nonzero = [name for name, op in raising if not op.apply(v).is_zero()]
        return SingularReport(not nonzero, nonzero)


def top_vector_report(alg: ExteriorAlgebra, w: Weight) -> dict:
    """Full JSON report for the explicit top vector of one member weight."""
    vec = alg.xi_lambda(w)
    singular = alg.check_singular(vec)
    bi = alg.weight_of_vector(vec)
    gd_sign = _sign(alg.gd_swap(vec), vec) if alg.N % 2 == 0 and w.coords2[-1] != 0 else None
    negid_sign = _sign(alg.neg_id(vec), vec) if alg.N % 2 == 1 else None
    return {
        "lambda2": list(w.coords2),
        "singular": singular.all_zero,
        "left_weight": bi.left.to_json() if bi.is_weight else None,
        "right_weight": bi.right.to_json() if bi.is_weight else None,
        "gd_sign": gd_sign,
        "negid_sign": negid_sign,
    }


def _sign(image, vec):
    """1 if image is vec, -1 if it is -vec, else None."""
    return 1 if image == vec else -1 if image == vec.scaled(-1) else None


def kappa(w: Weight, big_n: int) -> OrthWeight:
    """The row-side weight of the explicit top vector, the top row j_map writes: the
    shorter of f(lambda) and its associate, columns (min(l_n, r_n), l_{n-1}, ..., l_1)."""
    return syd_to_orthweight(shorter(f_map(diagram_of_weight(w, big_n))), big_n)


def kappa_sigma(w: Weight, big_n: int) -> OrthWeight:
    k = kappa(w, big_n)
    return OrthWeight(k.coords2[:-1] + (-k.coords2[-1],), big_n)
