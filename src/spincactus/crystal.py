"""The spin crystal of the even orthogonal algebra and its tensor powers.

Elements of the basic crystal are the 2^n sign vectors, packed into integer
bitmasks (bit j set means coordinate j+1 is +1/2). For i < n the lowering
operator f_i turns signs (+,-) at positions (i, i+1) into (-,+); f_n turns
(+,+) at positions (n-1, n) into (-,-). Words in the N-th tensor power are
tuples of masks; the tensor rule moves e_i to the first factor of a pair
exactly when eps_i(first) exceeds phi_i(second), and f_i when it is at least
phi_i(second).

The basic crystal is minuscule, so e_i and f_i flip the same two bits of a
factor: a move is one XOR with index i's mask. One code table per index says
which move a factor allows: 1 for an eps factor (eps_i = 1), 2 for a phi factor
(phi_i = 1), 0 for neither. In the equivalent signature rule each phi factor
cancels the nearest open eps factor to its left; one left-to-right bracket
pass (`_bracket`) serves e_i, f_i, eps_i and phi_i, and the tops and bottoms
tests read its eps and phi counts. `to_highest_weight` raises a whole
e_i-string per pass, flipping every open eps factor at once;
`to_lowest_weight` keeps single `tensor_f` moves, whose calls the `act`
benchmark workload counts (bench/).

The whole-crystal scans apply the same rule to two blocks, B^(x)h (x) B^(x)(N-h)
with h = N // 2 (Henriques-Kamnitzer): for w = u + v, f_i acts on v when
phi_i(v) > eps_i(u) and on u otherwise, and eps_i(w) = eps_i(v) + max(eps_i(u) -
phi_i(v), 0). Each half-word's record (eps_i, phi_i, f_i image for every i, one
`_bracket` pass each) is stored on the crystal, at most 2^budget_bits of them;
past that a record is computed again. The component walk reads each member's
successors and its top test from its two records. The same rule gives the
tops: u + v is one exactly when v is a top and eps_i(u) <= phi_i(v) for every
i, one pairing (`_tops_ending`) for two scans. The tops of power N pair each u
of length h with the tops of power N - h; the tops of a component tensored with
one more factor pair each member with the tops of power 1. Each crystal stores
the tops of a power once, so the census and the components share one scan. The
two-factor recursion stays in `suites` (`tensor_e_reference`, `tensor_f_reference`):
without a memo it is the literal recursion, the oracle; `suite_crystal_axioms` gives it
one memo per crystal, holding each head's eps_i and moves once per (i, head).

The bijection between highest-weight words and regular cell tables reads the
factor weights right to left: under this tensor rule the last factor of a
highest-weight word is the one forced into a dominant spinor weight, so the
branching sequence of the component is the reversed factor sequence.

Each crystal holds one budget: every scan of it is bounded by 2^budget_bits nodes.
`node_limit` is the one check of budget_bits, `charge` the one refusal of a count past it,
and `closure` the one bounded depth-first walk. A scan of the N-th power charges its
`word_count` (2^n)^N; the crystal's own tables hold 2^n entries per index, the words of
power 1, so it charges them before it builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import le

from .celldiag import CellTable, table_from_steps
from .errors import BudgetExceededError, ValidationError
from .weights import Weight, as_int, is_spinor2, trusted

DEFAULT_BUDGET_BITS = 20
MAX_BUDGET_BITS = 24


def _spin_pair(n, i):
    """Where index i acts on one sign vector: the mask of its two bits, and the
    value of those bits that f_i moves. e_i moves the complement, and each flips
    the pair: bits (i-1, i) from (+,-) for f_i and (-,+) for e_i when i < n,
    bits (n-2, n-1) from (+,+) for f_n and (-,-) for e_n."""
    if i < n:
        return 3 << (i - 1), 1 << (i - 1)
    return 3 << (n - 2), 3 << (n - 2)


def node_limit(budget_bits):
    """The node limit 2^budget_bits of a scan; budget_bits must be an int in 0..MAX_BUDGET_BITS."""
    if not 0 <= as_int(budget_bits) <= MAX_BUDGET_BITS:
        raise ValidationError(f"budget_bits must be in 0..{MAX_BUDGET_BITS}, got {budget_bits}")
    return 1 << budget_bits


def charge(count, budget_bits):
    """Refuse up front a scan of count nodes past node_limit(budget_bits); the refusal
    reports the bits 2^needed_bits >= count needs."""
    if count > node_limit(budget_bits):
        raise BudgetExceededError(max(count - 1, 0).bit_length(), budget_bits)


def word_count(n, big_n):
    """(2^n)^N, the words of the N-th tensor power of rank n, 1 at N <= 0. A count past
    2^65536 is given as 2^65536, far past any budget, so an absurd n or N is refused at
    once instead of after building an n*N-bit number."""
    return 1 << max(0, min(n * big_n, 1 << 16))


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
                    charge(limit + 1, budget_bits)
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True, slots=True)
class Component:
    """One connected component: its highest-weight word, weight, and size."""

    hw_word: tuple[int, ...]
    weight: Weight
    size: int


class SpinCrystal:
    """Crystal structure on sign vectors and their tensor words, for fixed rank n; every
    scan and stored record of it is bounded by 2^budget_bits."""

    def __init__(self, n, budget_bits=DEFAULT_BUDGET_BITS):
        if n < 2:
            raise ValidationError(f"rank must be at least 2, got {n}")
        charge(word_count(n, 1), budget_bits)  # the tables below hold 2^n entries per index
        self.n = n
        self.budget_bits = budget_bits
        self._limit = 1 << budget_bits
        # Indexed [i], slot 0 unused: index i's mask, and b's code for index i at
        # [i][b]: 1 for an eps factor (eps_i = 1), 2 for a phi factor (phi_i = 1),
        # 0 for neither.
        pairs = [_spin_pair(n, i) for i in range(1, n + 1)]
        self._mask = (None,) + tuple(mask for mask, _ in pairs)
        self._code = (None,) + tuple(
            tuple((b & mask == mask ^ down) + 2 * (b & mask == down) for b in self.elements())
            for mask, down in pairs
        )
        self._coords2 = tuple(signs[::-1] for signs in product((-1, 1), repeat=n))
        # per-element records for words <-> tables: each element's weight, each coords2's element
        self._weights = tuple(trusted(Weight, c) for c in self._coords2)
        self._element = {c: b for b, c in enumerate(self._coords2)}
        # theta = -w0 on the nodes, slot 0 unused: the fork nodes n-1 and n swap at odd
        # rank. xi on one factor is w0 on its weight, as the basic crystal is minuscule:
        # the flip of every sign at even rank, of all but the last at odd rank.
        self.theta = (0,) + tuple(range(1, n - 1)) + ((n, n - 1) if n % 2 else (n - 1, n))
        self.flip = (1 << (n if n % 2 == 0 else n - 1)) - 1
        self._tops = {}  # big_n -> the highest-weight words of that power, in product order
        self._blocks = {}  # half-word -> its (eps_i, phi_i, f_i image) for i = 1..n, see `_block`

    # -- single factors ----------------------------------------------------

    def elements(self):
        return range(1 << self.n)

    def element_weight(self, b) -> Weight:
        return self._weights[b]

    def element_of_weight(self, w: Weight):
        if w.rank != self.n or not is_spinor2(w.coords2):
            raise ValidationError(f"{w} is not a spinor weight of rank {self.n}")
        return self._element[w.coords2]

    def _check_index(self, i):
        if not 1 <= i <= self.n:
            raise ValidationError(f"crystal index must be in 1..{self.n}, got {i}")

    def spin_f(self, i, b):
        self._check_index(i)
        return b ^ self._mask[i] if self._code[i][b] == 2 else None

    def spin_e(self, i, b):
        self._check_index(i)
        return b ^ self._mask[i] if self._code[i][b] == 1 else None

    # -- tensor words -------------------------------------------------------

    def word_weight(self, w) -> Weight:
        coords2 = map(sum, zip((0,) * self.n, *map(self._coords2.__getitem__, w)))
        return trusted(Weight, tuple(coords2))  # a sum of rank-n spinor weights is valid

    def _bracket(self, i, w):
        """One left-to-right bracket pass of index i over w.

        Factors with eps_i = 1 and phi_i = 1 pair off like brackets: each phi
        factor cancels the nearest open eps factor to its left, and the free
        factors read phi...phi eps...eps. Returns the number of free phi
        factors, the last of them (the one f_i moves), the number of open eps
        factors and the first of them (the one e_i moves); a missing position
        is None.
        """
        if not 1 <= i <= self.n:
            self._check_index(i)
        code = self._code[i]
        depth = free = k = 0  # k by hand: enumerate costs a quarter of the pass on short words
        first_eps = last_phi = None
        for b in w:
            c = code[b]
            if c == 1:
                if not depth:
                    first_eps = k
                depth += 1
            elif c:
                if depth:
                    depth -= 1
                else:
                    free += 1
                    last_phi = k
            k += 1
        return free, last_phi, depth, first_eps if depth else None

    def tensor_f(self, i, w):
        pos = self._bracket(i, w)[1]
        return None if pos is None else w[:pos] + (w[pos] ^ self._mask[i],) + w[pos + 1 :]

    def tensor_e(self, i, w):
        pos = self._bracket(i, w)[3]
        return None if pos is None else w[:pos] + (w[pos] ^ self._mask[i],) + w[pos + 1 :]

    def eps(self, i, w):
        """Largest power of e_i that does not kill w: the number of open eps factors."""
        return self._bracket(i, w)[2]

    def phi(self, i, w):
        """Largest power of f_i that does not kill w: the number of free phi factors."""
        return self._bracket(i, w)[0]

    def is_highest_weight(self, w):
        return not any(self._bracket(i, w)[2] for i in range(1, self.n + 1))

    def is_lowest_weight(self, w):
        return not any(self._bracket(i, w)[0] for i in range(1, self.n + 1))

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
        """The top of w's component; appends the e-indices used to path, if given. Each
        index visit raises a whole e_i-string in one pass, in `_walk`'s order: e_i moves
        the first open eps factor, which turns into a free phi factor, so e_i^eps_i flips
        every open eps factor."""
        n, codes, masks = self.n, self._code, self._mask
        w = list(w)
        i = 1
        stuck = 0
        while stuck < n:
            code = codes[i]
            opened = []  # positions of the open eps factors
            k = 0
            for b in w:
                c = code[b]
                if c == 1:
                    opened.append(k)
                elif c and opened:
                    opened.pop()
                k += 1
            if opened:
                mask = masks[i]
                for k in opened:
                    w[k] ^= mask
                if path is not None:
                    path += [i] * len(opened)
                stuck = 1  # eps_i is now 0
            else:
                stuck += 1
            i = i % n + 1
        return tuple(w)

    def to_lowest_weight(self, w, path=None):
        """The bottom of w's component; appends the f-indices used to path, if given."""
        return self._walk(w, self.tensor_f, path)

    def _block(self, w):
        """w's record, flat: eps_i, phi_i and f_i(w) (None for no move) for i = 1..n,
        from one `_bracket` pass each. The crystal stores at most 2^budget_bits records;
        past that a record is computed again on each call."""
        rec = self._blocks.get(w)
        if rec is None:
            rec = []
            for i in range(1, self.n + 1):
                phi, pos, eps, _ = self._bracket(i, w)
                image = None if pos is None else w[:pos] + (w[pos] ^ self._mask[i],) + w[pos + 1 :]
                rec += (eps, phi, image)
            rec = tuple(rec)
            if len(self._blocks) < self._limit:
                self._blocks[w] = rec
        return rec

    def _lowering(self, h):
        """successors(w) for `closure`: the f_i(w) that exist, in index order, read from
        the records of u = w[:h] and v = w[h:] by the tensor rule. v's phi factors
        cancel open eps factors of u, so f_i acts on v when phi_i(v) > eps_i(u) and on u
        otherwise, and eps_i(w) = eps_i(v) + max(eps_i(u) - phi_i(v), 0). Also returns
        counts = [tops, bottoms] among the words seen: none open, no successor."""
        blocks, block = self._blocks, self._block
        counts = [0, 0]

        def successors(w):
            u, v = w[:h], w[h:]
            rec_u = iter(blocks.get(u) or block(u))
            rec_v = iter(blocks.get(v) or block(v))
            down = []
            opened = 0  # open eps factors over all indices
            for eps_u, phi_u, f_u, eps_v, phi_v, f_v in zip(rec_u, rec_u, rec_u, rec_v, rec_v, rec_v):
                opened += eps_v
                if phi_v > eps_u:
                    down.append(u + f_v)
                else:
                    opened += eps_u - phi_v
                    if phi_u:
                        down.append(f_u + v)
            counts[0] += not opened
            counts[1] += not down
            return down

        return successors, counts

    def component_members(self, w):
        """All words in the component of w, found by lowering from its top; each
        member's successors and open eps factors come from the records of its two
        halves, split at N // 2 (`_lowering`)."""
        hw = self.to_highest_weight(w)
        successors, counts = self._lowering(len(hw) // 2)
        members = closure(hw, successors, self.budget_bits)
        assert counts == [1, 1], "every component must have exactly one top and one bottom word"
        return hw, members

    # -- whole-crystal scans --------------------------------------------------

    def all_words(self, big_n):
        """Every word of the N-th tensor power in product order; every scan starts here."""
        if big_n < 0:
            raise ValidationError(f"tensor power N must be at least 0, got {big_n}")
        return product(range(1 << self.n), repeat=big_n)

    def components(self, big_n):
        """Partition the full tensor power into components, built one at a time from
        each top and listed in the product order of their first words."""
        found = []
        total = 0
        for hw in self.highest_weight_words(big_n):
            _, members = self.component_members(hw)
            total += len(members)
            found.append((min(members), Component(hw, self.word_weight(hw), len(members))))
        assert total == (1 << self.n) ** big_n, "the components must cover the tensor power"
        found.sort(key=lambda pair: pair[0])
        return [comp for _, comp in found]

    def highest_weight_words(self, big_n):
        """The tops of the N-th tensor power in product order; one scan per crystal and N.

        Power 0 has the empty word; for N >= 1 every word u of length h = N // 2, or 1 at
        N = 1, is paired with the stored tops of power N - h (`_tops_ending`)."""
        charge(word_count(self.n, big_n), self.budget_bits)
        tops = self._tops.get(big_n)
        if tops is None:
            h = big_n // 2 or 1
            tops = ((),) if not big_n else tuple(self._tops_ending(self.all_words(h), big_n - h))
            self._tops[big_n] = tops
        return list(tops)

    def _tops_ending(self, lefts, big_n):
        """The tops u + v for u in lefts and v a top of power big_n, in that order. By the
        tensor rule v's phi factors must cancel every open eps factor of u: u + v is a top
        exactly when v is one and eps_i(u) <= phi_i(v) for every i."""
        indices = range(1, self.n + 1)
        rights = [(v, [self._bracket(i, v)[0] for i in indices])
                  for v in self.highest_weight_words(big_n)]
        tops = []
        for u in lefts:
            eps_u = [self._bracket(i, u)[2] for i in indices]
            tops += [u + v for v, phi_v in rights if all(map(le, eps_u, phi_v))]
        return tops

    def hw_census(self, big_n):
        """Count highest-weight words per weight; keys in descending lex order."""
        census = {}
        for w in self.highest_weight_words(big_n):
            wt = self.word_weight(w)
            census[wt] = census.get(wt, 0) + 1
        return dict(sorted(census.items(), key=lambda kv: kv[0].coords2, reverse=True))

    # -- identification with cell tables --------------------------------------

    def word_to_table(self, w) -> CellTable:
        """The cell table of a highest-weight word: factor weights, read right to left."""
        if not self.is_highest_weight(w):
            raise ValidationError("word is not highest weight")
        steps = tuple(map(self._weights.__getitem__, reversed(w)))
        try:
            return table_from_steps(steps)
        except ValidationError as exc:  # pragma: no cover - identification guard
            raise AssertionError(
                f"highest-weight word does not yield a valid table: {exc}"
            ) from exc

    def table_to_word(self, t: CellTable):
        """The unique highest-weight word whose reversed factor weights are t's steps;
        a valid table of height n has only spinor steps of rank n, all in `_element`."""
        if t.height != self.n:
            raise ValidationError("table height does not match crystal rank")
        w = tuple([self._element[mu.coords2] for mu in reversed(t.steps)])
        assert self.is_highest_weight(w), (
            "table steps do not produce a highest-weight word"
        )
        return w

    def decompose_component_tensor(self, hw_word):
        """Weights of the top words in (component of hw_word) tensored by one more factor:
        each member paired with the tops of power 1 (`_tops_ending`)."""
        if not self.is_highest_weight(hw_word):
            raise ValidationError("word is not highest weight")
        charge(word_count(self.n, len(hw_word) + 1), self.budget_bits)
        _, members = self.component_members(hw_word)
        found = [self.word_weight(w) for w in self._tops_ending(members, 1)]
        found.sort(key=lambda wt: wt.coords2, reverse=True)
        return found


def word_label(crystal, w):
    """Human-readable sign-string label, factors separated by '|'."""
    return "|".join(
        "".join("+" if (b >> j) & 1 else "-" for j in range(crystal.n)) for b in w
    )


def crystal_dot(crystal, big_n, words=None):
    """DOT digraph of the full tensor power, or of the given word set."""
    if words is None:
        charge(word_count(crystal.n, big_n), crystal.budget_bits)
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


def census_json(crystal, big_n):
    return [
        {"lambda2": list(wt.coords2), "count": count}
        for wt, count in crystal.hw_census(big_n).items()
    ]
