"""The spin crystal of the even orthogonal algebra and its tensor powers.

Elements of the basic crystal are the 2^n sign vectors, packed into integer
bitmasks (bit j set means coordinate j+1 is +1/2). For i < n the lowering
operator f_i turns signs (+,-) at positions (i, i+1) into (-,+); f_n turns
(+,+) at positions (n-1, n) into (-,-). Words in the N-th tensor power are
tuples of masks; the tensor rule moves e_i to the first factor of a pair
exactly when eps_i(first) exceeds phi_i(second), and f_i when it is at least
phi_i(second).

The kernel is table-driven: each crystal precomputes, for every index i, the
images of all 2^n factors under e_i and f_i and their eps_i, phi_i (0 or 1;
every i-string of the basic crystal has length at most one). On a word, one
pass over the factors (`_signature`) gives the free phi_i and eps_i factors of
the equivalent signature rule: e_i and f_i move the first of them, eps_i and
phi_i count them, and the scans read tops, bottoms and successors from it.
The literal two-factor recursion stays in `suites` as the oracle
(`tensor_e_reference`, `tensor_f_reference`).

The bijection between highest-weight words and regular cell tables reads the
factor weights right to left: under this tensor rule the last factor of a
highest-weight word is the one forced into a dominant spinor weight, so the
branching sequence of the component is the reversed factor sequence.

Every scan is bounded by 2^budget_bits nodes: `node_limit` is the one check
of budget_bits, and `closure` the one bounded depth-first walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .celldiag import CellTable, table_from_steps
from .errors import BudgetExceededError, ValidationError
from .weights import Weight, as_int

DEFAULT_BUDGET_BITS = 20
MAX_BUDGET_BITS = 24


def _spin_move(n, i, b, lowering):
    """f_i (lowering) or e_i on one sign vector by the bit rule; None where it is zero.

    Both flip a pair of adjacent bits to its complement: bits (i-1, i) from
    (+,-) for f_i and (-,+) for e_i when i < n, bits (n-2, n-1) from (+,+)
    for f_n and (-,-) for e_n.
    """
    if i < n:
        shift, source = i - 1, 0b01 if lowering else 0b10
    else:
        shift, source = n - 2, 0b11 if lowering else 0b00
    if (b >> shift) & 3 == source:
        return b ^ (3 << shift)
    return None


def node_limit(budget_bits):
    """The node limit 2^budget_bits of a scan; budget_bits must be an int in 0..MAX_BUDGET_BITS."""
    if not 0 <= as_int(budget_bits) <= MAX_BUDGET_BITS:
        raise ValidationError(f"budget_bits must be in 0..{MAX_BUDGET_BITS}, got {budget_bits}")
    return 1 << budget_bits


def _check_budget(needed_bits, budget_bits):
    """Refuse up front a scan of about 2^needed_bits nodes that exceeds the limit."""
    node_limit(budget_bits)
    if needed_bits > budget_bits:
        raise BudgetExceededError(needed_bits, budget_bits)


def closure(start, successors, budget_bits):
    """The nodes reachable from start, depth first; successors(node) yields its neighbours,
    None for a missing one. Raises BudgetExceededError past node_limit(budget_bits) nodes."""
    limit = node_limit(budget_bits)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in successors(stack.pop()):
            if nxt is not None and nxt not in seen:
                if len(seen) >= limit:
                    raise BudgetExceededError(budget_bits + 1, budget_bits)
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True)
class Component:
    """One connected component: its highest-weight word, weight, and size."""

    hw_word: tuple[int, ...]
    weight: Weight
    size: int


class SpinCrystal:
    """Crystal structure on sign vectors and their tensor words, for fixed rank n."""

    def __init__(self, n):
        if n < 2:
            raise ValidationError(f"rank must be at least 2, got {n}")
        self.n = n
        # Operator tables indexed [i][b], slot 0 unused: the image of b under
        # e_i or f_i (None where it is zero), and eps_i, phi_i of b (0 or 1).
        indices = range(1, n + 1)
        self._e = (None,) + tuple(
            tuple(_spin_move(n, i, b, False) for b in self.elements()) for i in indices
        )
        self._f = (None,) + tuple(
            tuple(_spin_move(n, i, b, True) for b in self.elements()) for i in indices
        )
        self._eps1 = (None,) + tuple(
            tuple(int(up is not None) for up in self._e[i]) for i in indices
        )
        self._phi1 = (None,) + tuple(
            tuple(int(down is not None) for down in self._f[i]) for i in indices
        )
        assert not any(
            self._eps1[i][b] and self._phi1[i][b] for i in indices for b in self.elements()
        ), "every i-string of the basic crystal has length at most one"

    # -- single factors ----------------------------------------------------

    def elements(self):
        return range(1 << self.n)

    def element_weight(self, b) -> Weight:
        return Weight(tuple(1 if (b >> j) & 1 else -1 for j in range(self.n)))

    def element_of_weight(self, w: Weight):
        if w.rank != self.n or any(c not in (1, -1) for c in w.coords2):
            raise ValidationError(f"{w} is not a spinor weight of rank {self.n}")
        mask = 0
        for j, c in enumerate(w.coords2):
            if c == 1:
                mask |= 1 << j
        return mask

    def _check_index(self, i):
        if not 1 <= i <= self.n:
            raise ValidationError(f"crystal index must be in 1..{self.n}, got {i}")

    def spin_f(self, i, b):
        self._check_index(i)
        return self._f[i][b]

    def spin_e(self, i, b):
        self._check_index(i)
        return self._e[i][b]

    # -- tensor words -------------------------------------------------------

    def word_weight(self, w) -> Weight:
        total = [0] * self.n
        for b in w:
            for j in range(self.n):
                total[j] += 1 if (b >> j) & 1 else -1
        return Weight(tuple(total))

    def _signature(self, i, w):
        """The free phi_i and the free eps_i positions of w, innermost first, in one pass.

        Factors with eps_i = 1 and phi_i = 1 pair off like brackets: each phi
        factor cancels the nearest uncancelled eps factor to its left. The
        free factors read phi...phi eps...eps; f_i moves the last free phi
        factor and e_i the first free eps factor, so each list starts with
        the factor its operator moves, then the one it moves next.
        """
        eps1, phi1 = self._eps1[i], self._phi1[i]
        free_phi = []
        free_eps = []  # eps factors not yet cancelled, left to right
        k = 0  # a plain counter: enumerate costs a quarter of the pass on short words
        for b in w:
            if eps1[b]:
                free_eps.append(k)
            elif phi1[b]:
                if free_eps:
                    free_eps.pop()
                else:
                    free_phi.append(k)
            k += 1
        free_phi.reverse()
        return free_phi, free_eps

    def _move(self, i, w, lowering):
        """f_i (lowering) or e_i on a word by the signature rule; None where it is zero."""
        self._check_index(i)
        free_phi, free_eps = self._signature(i, w)
        free = free_phi if lowering else free_eps
        if not free:
            return None
        pos = free[0]
        table = self._f[i] if lowering else self._e[i]
        return w[:pos] + (table[w[pos]],) + w[pos + 1 :]

    def tensor_f(self, i, w):
        return self._move(i, w, True)

    def tensor_e(self, i, w):
        return self._move(i, w, False)

    def eps(self, i, w):
        """Largest power of e_i that does not kill w: the number of free eps factors."""
        self._check_index(i)
        return len(self._signature(i, w)[1])

    def phi(self, i, w):
        """Largest power of f_i that does not kill w: the number of free phi factors."""
        self._check_index(i)
        return len(self._signature(i, w)[0])

    def is_highest_weight(self, w):
        """No e_i moves w: read right to left, a pending phi factor cancels each
        eps factor. Stops at the first eps factor that none cancels."""
        for i in range(1, self.n + 1):
            eps1, phi1 = self._eps1[i], self._phi1[i]
            pending = 0
            for b in reversed(w):
                if eps1[b]:
                    if not pending:
                        return False
                    pending -= 1
                elif phi1[b]:
                    pending += 1
        return True

    def is_lowest_weight(self, w):
        return not any(self._signature(i, w)[0] for i in range(1, self.n + 1))

    def _walk(self, w, step, path):
        # Apply each index until it stops moving, cycling through 1..n; the
        # walk ends after n consecutive indices fail to move.
        n = self.n
        i = 1
        stuck = 0
        while stuck < n:
            moved = step(i, w)
            if moved is None:
                stuck += 1
                i = i % n + 1
            else:
                w = moved
                stuck = 0
                if path is not None:
                    path.append(i)
        return w

    def to_highest_weight(self, w, path=None):
        """The top of w's component; appends the e-indices used to path, if given."""
        return self._walk(w, self.tensor_e, path)

    def to_lowest_weight(self, w, path=None):
        """The bottom of w's component; appends the f-indices used to path, if given."""
        return self._walk(w, self.tensor_f, path)

    def component_members(self, w, budget_bits=DEFAULT_BUDGET_BITS):
        """All words in the component of w, found by lowering from its top.

        One signature per (member, index) gives the f_i-successor and says
        whether the member is a top or a bottom word.
        """
        hw = self.to_highest_weight(w)
        indices = range(1, self.n + 1)
        signature, f = self._signature, self._f
        tops = bottoms = 0

        def successors(cur):
            nonlocal tops, bottoms
            down = []
            top = True
            for i in indices:
                free_phi, free_eps = signature(i, cur)
                if free_eps:
                    top = False
                if free_phi:
                    pos = free_phi[0]
                    down.append(cur[:pos] + (f[i][cur[pos]],) + cur[pos + 1 :])
            tops += top
            bottoms += not down
            return down

        members = closure(hw, successors, budget_bits)
        assert tops == 1 and bottoms == 1, (
            "every component must have exactly one top and one bottom word"
        )
        return hw, members

    # -- whole-crystal scans --------------------------------------------------

    def all_words(self, big_n):
        return product(range(1 << self.n), repeat=big_n)

    def components(self, big_n, budget_bits=DEFAULT_BUDGET_BITS):
        """Partition the full tensor power into components, built one at a time from
        each top and listed in the product order of their first words."""
        found = []
        total = 0
        for hw in self.highest_weight_words(big_n, budget_bits):
            _, members = self.component_members(hw, budget_bits)
            total += len(members)
            found.append((min(members), Component(hw, self.word_weight(hw), len(members))))
        assert total == (1 << self.n) ** big_n, "the components must cover the tensor power"
        found.sort(key=lambda pair: pair[0])
        return [comp for _, comp in found]

    def highest_weight_words(self, big_n, budget_bits=DEFAULT_BUDGET_BITS):
        _check_budget(self.n * big_n, budget_bits)
        return [w for w in self.all_words(big_n) if self.is_highest_weight(w)]

    def hw_census(self, big_n, budget_bits=DEFAULT_BUDGET_BITS):
        """Count highest-weight words per weight; keys in descending lex order."""
        census = {}
        for w in self.highest_weight_words(big_n, budget_bits):
            wt = self.word_weight(w)
            census[wt] = census.get(wt, 0) + 1
        return dict(sorted(census.items(), key=lambda kv: kv[0].coords2, reverse=True))

    # -- identification with cell tables --------------------------------------

    def word_to_table(self, w) -> CellTable:
        """The cell table of a highest-weight word: factor weights, read right to left."""
        if not self.is_highest_weight(w):
            raise ValidationError("word is not highest weight")
        steps = tuple(self.element_weight(b) for b in reversed(w))
        try:
            return table_from_steps(steps)
        except ValidationError as exc:  # pragma: no cover - identification guard
            raise AssertionError(
                f"highest-weight word does not yield a valid table: {exc}"
            ) from exc

    def table_to_word(self, t: CellTable):
        """The unique highest-weight word whose reversed factor weights are t's steps."""
        if t.height != self.n:
            raise ValidationError("table height does not match crystal rank")
        w = tuple(self.element_of_weight(mu) for mu in reversed(t.steps))
        assert self.is_highest_weight(w), (
            "table steps do not produce a highest-weight word"
        )
        return w

    def decompose_component_tensor(self, hw_word, budget_bits=DEFAULT_BUDGET_BITS):
        """Weights of the top words in (component of hw_word) tensored by one more factor."""
        if not self.is_highest_weight(hw_word):
            raise ValidationError("word is not highest weight")
        _check_budget(self.n * (len(hw_word) + 1), budget_bits)
        _, members = self.component_members(hw_word, budget_bits)
        found = []
        for w in members:
            for b in self.elements():
                ext = w + (b,)
                if self.is_highest_weight(ext):
                    found.append(self.word_weight(ext))
        found.sort(key=lambda wt: wt.coords2, reverse=True)
        return found


def word_label(crystal, w):
    """Human-readable sign-string label, factors separated by '|'."""
    return "|".join(
        "".join("+" if (b >> j) & 1 else "-" for j in range(crystal.n)) for b in w
    )


def crystal_dot(crystal, big_n, budget_bits=DEFAULT_BUDGET_BITS, words=None):
    """DOT digraph of the full tensor power, or of the given word set."""
    node_limit(budget_bits)
    if words is None:
        _check_budget(crystal.n * big_n, budget_bits)
        words = list(crystal.all_words(big_n))
    words = sorted(words)
    lines = ["digraph crystal {"]
    for w in words:
        lines.append(f'  "{word_label(crystal, w)}";')
    kept = set(words)
    for w in words:
        for i in range(1, crystal.n + 1):
            down = crystal.tensor_f(i, w)
            if down is not None and down in kept:
                lines.append(
                    f'  "{word_label(crystal, w)}" -> '
                    f'"{word_label(crystal, down)}" [label="{i}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def census_json(crystal, big_n, budget_bits=DEFAULT_BUDGET_BITS):
    return [
        {"lambda2": list(wt.coords2), "count": count}
        for wt, count in crystal.hw_census(big_n, budget_bits).items()
    ]
