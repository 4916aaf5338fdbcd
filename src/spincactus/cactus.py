"""The involution xi, the commutor, and the cactus-group action on cell tables.

xi is computed by walking one path, never by building a component: raise the
word to the top of its component, recording the e-indices used; take the
bottom word of the component, which xi assigns to the top; then replay the
recorded indices in reverse as raisings e_theta(i) from the bottom. Here theta
= -w0 relabels the nodes, so xi(f_i w) = e_theta(i) xi(w). A call holds only
the path, whose length is the depth of w in its component (linear in N at
fixed rank), and the bottom word of each top met, up to 2^budget_bits of them,
so a second word of the same component skips the walk down. On a single
factor xi is w0 on its weight, a fixed bit flip. Theta and the flip are read
from the crystal (`SpinCrystal.theta`, `SpinCrystal.flip`).

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
from .crystal import SpinCrystal, closure, node_limit
from .errors import ValidationError


class XiCache:
    """The involution and the cactus generators on the tensor words of one crystal.

    xi_word keeps the bottom word of each top it has walked from, for at most 2^budget_bits
    tops (the crystal's budget by default); past that it walks down again.
    """

    def __init__(self, crystal: SpinCrystal, budget_bits=None):
        self.crystal = crystal
        self.budget_bits = crystal.budget_bits if budget_bits is None else budget_bits
        self._limit = node_limit(self.budget_bits)
        self._bottoms = {}

    def xi_word(self, w):
        """The involution on the full word (all factors as one segment)."""
        crystal, theta = self.crystal, self.crystal.theta
        path = []
        top = crystal.to_highest_weight(w, path)
        image = self._bottoms.get(top)
        if image is None:
            image = crystal.to_lowest_weight(top)
            if len(self._bottoms) < self._limit:
                self._bottoms[top] = image
        for i in reversed(path):
            image = crystal.tensor_e(theta[i], image)
            assert image is not None, "xi replay left the component; theta is wrong"
        return image

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
        flip = self.crystal.flip
        segment = tuple(b ^ flip for b in reversed(w[p - 1 : q]))
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


def orbit(cache: XiCache, t: CellTable, gens):
    """Closure of a table under the generators, within the cache's budget, in descending order."""
    seen = closure(t, lambda cur: (act_on_table(cache, [gen], cur) for gen in gens),
                   cache.budget_bits)
    return sorted(seen, key=CellTable.flat2, reverse=True)


def word_to_permutation(gens, big_n):
    """Image in the symmetric group: each generator reverses its segment."""
    perm = list(range(1, big_n + 1))
    for p, q in reversed(list(gens)):
        if q > big_n:
            raise ValidationError(f"generator s({p},{q}) exceeds degree {big_n}")
        perm = [p + q - x if p <= x <= q else x for x in perm]
    return tuple(perm)
