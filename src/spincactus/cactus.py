"""The involution xi, the commutor, and the cactus-group action on cell tables.

xi is computed by walking one path, never by building a component: raise the
word to the top of its component, recording the e-indices used; take the
bottom word of the component, which xi assigns to the top; then replay the
recorded indices in reverse as raisings e_theta(i) from the bottom. Here theta
relabels the nodes (identity at even rank, swap of the two fork nodes at odd
rank), so xi(f_i w) = e_theta(i) xi(w). A call holds only the path, whose
length is the depth of w in its component (linear in N at fixed rank), and
needs no budget.

The commutor swaps two factor blocks via sigma(a (x) b) = xi(xi(b) (x) xi(a)).
The generator s_{p,q} reverses the factor segment [p..q] in closed form
(Henriques-Kamnitzer): s_{p,q}(w) = w[:p-1] + xi(xi(b_q) (x) ... (x) xi(b_p)) + w[q:].
The earlier forms, whole-component xi tables and the recursion
s_{p,q} = sigma_{p,p,q} o s_{p+1,q}, are kept in `suites.XiTableReference`
as the oracle these are tested against.
"""

from __future__ import annotations

import re

from .celldiag import CellTable
from .crystal import DEFAULT_BUDGET_BITS, SpinCrystal, closure
from .errors import ValidationError


class XiCache:
    """The involution and the cactus generators on the tensor words of one crystal.

    budget_bits is kept for callers; the path walk needs no budget.
    """

    def __init__(self, crystal: SpinCrystal, budget_bits=DEFAULT_BUDGET_BITS):
        self.crystal = crystal
        self.budget_bits = budget_bits

    def _theta(self, i):
        n = self.crystal.n
        if n % 2 == 1:
            if i == n - 1:
                return n
            if i == n:
                return n - 1
        return i

    def xi_word(self, w):
        """The involution on the full word (all factors as one segment)."""
        crystal = self.crystal
        path = []
        image = crystal.to_lowest_weight(crystal.to_highest_weight(w, path))
        for i in reversed(path):
            image = crystal.tensor_e(self._theta(i), image)
            assert image is not None, "xi replay left the component; theta is wrong"
        return image

    def xi_segment(self, w, a, b):
        """Apply the involution to factors a..b (1-based, inclusive)."""
        if not 1 <= a <= b <= len(w):
            raise ValidationError(f"segment {a}..{b} is out of range for length {len(w)}")
        return w[: a - 1] + self.xi_word(w[a - 1 : b]) + w[b:]

    def commutor(self, w, split):
        """Swap the blocks 1..split and split+1..end of the whole word."""
        if not 1 <= split < len(w):
            raise ValidationError(f"split must be in 1..{len(w) - 1}, got {split}")
        xa = self.xi_word(w[:split])
        xb = self.xi_word(w[split:])
        return self.xi_word(xb + xa)

    def sigma_pqr(self, w, p, q, r):
        """Commutor on the factor block p..q with the split after position r."""
        if not 1 <= p <= r < q <= len(w):
            raise ValidationError(f"need 1 <= p <= r < q <= {len(w)}, got {(p, q, r)}")
        block = self.commutor(w[p - 1 : q], r - p + 1)
        return w[: p - 1] + block + w[q:]

    def s_pq(self, w, p, q):
        """Reverse the factor segment p..q; an involution on the tensor power."""
        if not 1 <= p <= q <= len(w):
            raise ValidationError(f"need 1 <= p <= q <= {len(w)}, got {(p, q)}")
        segment = tuple(self.xi_word((b,))[0] for b in reversed(w[p - 1 : q]))
        return w[: p - 1] + self.xi_word(segment) + w[q:]


_GEN_RE = re.compile(r"s\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_cactus_word(text):
    """Parse generators like "s(1,3) s(2,4)" into a list of (p, q) pairs."""
    stripped = re.sub(r"\s+", " ", text).strip()
    if not stripped:
        return []
    pos = 0
    gens = []
    for match in _GEN_RE.finditer(stripped):
        if stripped[pos : match.start()].strip():
            raise ValidationError(f"cannot parse cactus word near: {stripped[pos:]!r}")
        p, q = int(match.group(1)), int(match.group(2))
        if not 1 <= p < q:
            raise ValidationError(f"generator needs 1 <= p < q, got s({p},{q})")
        gens.append((p, q))
        pos = match.end()
    if stripped[pos:].strip():
        raise ValidationError(f"cannot parse cactus word near: {stripped[pos:]!r}")
    return gens


def apply_cactus_word(cache: XiCache, gens, w):
    """Apply a product of generators to a word, rightmost generator first."""
    for p, q in reversed(list(gens)):
        if q > len(w):
            raise ValidationError(f"generator s({p},{q}) exceeds word length {len(w)}")
        w = cache.s_pq(w, p, q)
    return w


def act_on_table(cache: XiCache, gens, t: CellTable) -> CellTable:
    """The induced action on regular cell tables of the given shape."""
    crystal = cache.crystal
    word = crystal.table_to_word(t)
    moved = apply_cactus_word(cache, gens, word)
    out = crystal.word_to_table(moved)
    assert out.shape() == t.shape(), "cactus action must preserve the shape"
    return out


def orbit(cache: XiCache, t: CellTable, gens, budget_bits=DEFAULT_BUDGET_BITS):
    """Closure of a table under the given generators, canonical (descending) order."""
    seen = closure(t, lambda cur: (act_on_table(cache, [gen], cur) for gen in gens), budget_bits)
    return sorted(seen, key=CellTable.flat2, reverse=True)


def word_to_permutation(gens, big_n):
    """Image in the symmetric group: each generator reverses its segment."""
    perm = list(range(1, big_n + 1))
    for p, q in reversed(list(gens)):
        if q > big_n:
            raise ValidationError(f"generator s({p},{q}) exceeds degree {big_n}")
        perm = [p + q - x if p <= x <= q else x for x in perm]
    return tuple(perm)
