"""Machine-checkable verification suites.

Each suite returns a JSON-ready report: a list of named checks with pass
flags and a short detail string. The CLI exposes them via `verify`; the
acceptance tests pin their parameters and assert on the same reports.
"""

from __future__ import annotations

import random

from .cactus import XiCache, act_on_table, word_to_permutation
from .celldiag import (
    CellDiagram,
    CellTable,
    diagram_of_weight,
    enumerate_delta,
    enumerate_tables,
    steps_from_diagram_chain,
    weight_of_diagram,
)
from .clifford import (
    ExteriorAlgebra,
    ExteriorVector,
    contract,
    kappa,
    kappa_sigma,
    wedge_insert,
)
from .crystal import DEFAULT_BUDGET_BITS, SpinCrystal, _check_budget, closure
from .errors import ValidationError
from .weights import Weight, is_dominant_d, spinor_weights, w0_image
from .youngt import (
    GTPattern,
    SSYTable,
    ShortYoungDiagram,
    associated,
    count_sssyt,
    enumerate_gtp,
    enumerate_sssyt,
    f_inverse,
    f_map,
    is_self_associated,
    j_inverse,
    j_map,
    shorter,
    syd_to_orthweight,
    y_inverse,
    y_map,
)

SCHEMA = "cactus-crystal/1"  # the schema id of every JSON report and CLI record


def _report(suite, params, checks):
    return {
        "schema": SCHEMA,
        "suite": suite,
        "params": params,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _pairing(c2, i, n):
    """<wt, alpha_i^vee> of the weight with doubled coordinates c2."""
    if i < n:
        return (c2[i - 1] - c2[i]) // 2
    return (c2[n - 2] + c2[n - 1]) // 2


def _root2(i, n):
    alpha = [0] * n
    if i < n:
        alpha[i - 1], alpha[i] = 2, -2
    else:
        alpha[n - 2], alpha[n - 1] = 2, 2
    return tuple(alpha)


def tensor_f_reference(crystal, i, w, eps_memo=None):
    """Literal two-factor recursion, eps/phi by repeated application; eps_memo, if
    given, is a dict of eps_i by (i, word) that belongs to this crystal alone."""
    if len(w) == 1:
        moved = crystal.spin_f(i, w[0])
        return None if moved is None else (moved,)
    head, last = w[:-1], w[-1]
    if _eps_reference(crystal, i, head, eps_memo) >= _phi1_reference(crystal, i, last):
        moved = tensor_f_reference(crystal, i, head, eps_memo)
        return None if moved is None else moved + (last,)
    moved = crystal.spin_f(i, last)
    return None if moved is None else head + (moved,)


def tensor_e_reference(crystal, i, w, eps_memo=None):
    if len(w) == 1:
        moved = crystal.spin_e(i, w[0])
        return None if moved is None else (moved,)
    head, last = w[:-1], w[-1]
    if _eps_reference(crystal, i, head, eps_memo) > _phi1_reference(crystal, i, last):
        moved = tensor_e_reference(crystal, i, head, eps_memo)
        return None if moved is None else moved + (last,)
    moved = crystal.spin_e(i, last)
    return None if moved is None else head + (moved,)


def _phi1_reference(crystal, i, b):
    return 0 if crystal.spin_f(i, b) is None else 1


def _eps_reference(crystal, i, w, memo=None):
    if memo is not None and (i, w) in memo:
        return memo[i, w]
    count = 0
    cur = tensor_e_reference(crystal, i, w, memo)
    while cur is not None:
        count += 1
        cur = tensor_e_reference(crystal, i, cur, memo)
    if memo is not None:
        memo[i, w] = count
    return count


class XiTableReference(XiCache):
    """Oracle for XiCache: xi by whole-component tables, s_pq by its recursion.

    The top word of each component maps to its bottom word, and the
    assignment propagates down the f_i edges with the relabeling theta,
    asserting that every path gives the same image. One table is kept per
    visited component. s_{p,q} follows s_{p,q} = sigma_{p,p,q} o s_{p+1,q},
    with the commutor built on the table xi.
    """

    def __init__(self, crystal, budget_bits=DEFAULT_BUDGET_BITS):
        super().__init__(crystal, budget_bits)
        self._tables = {}

    def _build(self, hw):
        crystal = self.crystal
        table = {hw: crystal.to_lowest_weight(hw)}

        def successors(cur):
            # each f_i-successor of cur gets its image e_theta(i) of cur's image
            image = table[cur]
            for i in range(1, crystal.n + 1):
                down = crystal.tensor_f(i, cur)
                if down is None:
                    continue
                up = crystal.tensor_e(crystal.theta[i], image)
                assert up is not None, "xi propagation left the component"
                known = table.setdefault(down, up)
                assert known == up, "xi propagation is path-dependent; theta/w0 rule is wrong"
                yield down

        closure(hw, successors, self.budget_bits)
        return table

    def xi_word(self, w):
        hw = self.crystal.to_highest_weight(w)
        table = self._tables.get(hw)
        if table is None:
            table = self._build(hw)
            self._tables[hw] = table
        return table[w]

    def s_pq(self, w, p, q):
        if not 1 <= p <= q <= len(w):
            raise ValidationError(f"need 1 <= p <= q <= {len(w)}, got {(p, q)}")
        if p == q:
            return w
        return self.sigma_pqr(self.s_pq(w, p + 1, q), p, q, p)


def suite_crystal_axioms(n_values=(2, 3), big_n_max=4, budget_bits=DEFAULT_BUDGET_BITS):
    """The crystal axioms on every word of every power N <= big_n_max, and tensor_e/f
    against the literal two-factor recursion. Each word's weight is computed once per
    power into a table of doubled coordinates, one entry per word (at most 2^budget_bits,
    charged up front), which the weight-shift checks read at the e/f-neighbour."""
    # the largest whole-crystal scan: N factors at the largest rank
    _check_budget(max(n_values) * big_n_max, budget_bits)
    checks = []
    for n in n_values:
        crystal = SpinCrystal(n)
        # the reference's eps_i by (i, word) on heads shorter than N: n*sum_{k<N} 2^(nk) at most
        eps_memo = {}
        roots = [(i, _root2(i, n)) for i in range(1, n + 1)]
        wts = sorted((crystal.element_weight(b) for b in crystal.elements()),
                     key=lambda w: w.coords2, reverse=True)
        _check(
            checks,
            f"character n={n}",
            list(wts) == sorted(spinor_weights(n), key=lambda w: w.coords2, reverse=True),
            "weight multiset of the basic crystal is all sign vectors, once each",
        )
        for big_n in range(1, big_n_max + 1):
            weights = {w: crystal.word_weight(w).coords2 for w in crystal.all_words(big_n)}
            bad = []
            for w, c2 in weights.items():
                for i, root in roots:
                    eps, phi = crystal.eps(i, w), crystal.phi(i, w)
                    if phi - eps != _pairing(c2, i, n):
                        bad.append(("pairing", w, i))
                    down = crystal.tensor_f(i, w)
                    if down is not None:
                        if weights.get(down) != tuple(a - b for a, b in zip(c2, root)):
                            bad.append(("weight-shift-f", w, i))
                        if crystal.tensor_e(i, down) != w:
                            bad.append(("ef-adjoint", w, i))
                    up = crystal.tensor_e(i, w)
                    if up is not None:
                        if weights.get(up) != tuple(a + b for a, b in zip(c2, root)):
                            bad.append(("weight-shift-e", w, i))
                        if crystal.tensor_f(i, up) != w:
                            bad.append(("fe-adjoint", w, i))
                    if down != tensor_f_reference(crystal, i, w, eps_memo):
                        bad.append(("f-vs-reference", w, i))
                    if up != tensor_e_reference(crystal, i, w, eps_memo):
                        bad.append(("e-vs-reference", w, i))
            _check(
                checks,
                f"axioms n={n} N={big_n}",
                not bad,
                f"{len(bad)} violations" if bad else "all four axioms and the reference rule agree",
            )
    return _report("crystal-axioms", {"n_values": list(n_values), "N_max": big_n_max}, checks)


def suite_census(n_values=(2, 3), big_n_max=5, budget_bits=DEFAULT_BUDGET_BITS):
    checks = []
    for n in n_values:
        crystal = SpinCrystal(n)
        for big_n in range(1, big_n_max + 1):
            comps = crystal.components(big_n, budget_bits)
            census = crystal.hw_census(big_n, budget_bits)
            table_counts = {
                lam: len(enumerate_tables(diagram_of_weight(lam, big_n)))
                for lam in enumerate_delta(n, big_n)
            }
            _check(
                checks,
                f"per-weight counts n={n} N={big_n}",
                census == {k: v for k, v in table_counts.items() if v},
                f"{len(census)} weights",
            )
            _check(
                checks,
                f"component count n={n} N={big_n}",
                len(comps) == sum(table_counts.values()),
                f"{len(comps)} components",
            )
            _check(
                checks,
                f"total size n={n} N={big_n}",
                sum(c.size for c in comps) == (1 << n) ** big_n,
                f"2^{n * big_n} words",
            )
            round_trip = all(
                crystal.table_to_word(crystal.word_to_table(c.hw_word)) == c.hw_word
                for c in comps
            )
            _check(checks, f"table round-trip n={n} N={big_n}", round_trip)
    return _report(
        "census",
        {"n_values": list(n_values), "N_max": big_n_max, "budget_bits": budget_bits},
        checks,
    )


def suite_commutor(n_values=(2, 3), big_n_max=4, budget_bits=DEFAULT_BUDGET_BITS):
    """xi is an involution with the w0 weight rule on every word of every power, the
    commutor is involutive on two factors, and the coboundary square holds on three.
    xi of each word is computed once per power into a table, one entry per word (at most
    2^budget_bits, charged up front), and the involution reads each image's image there."""
    # the largest whole-crystal scan: N factors (at least two) per rank, three at n=2
    _check_budget(max([6] + [n * max(big_n_max, 2) for n in n_values]), budget_bits)
    checks = []
    for n in n_values:
        crystal = SpinCrystal(n)
        cache = XiCache(crystal, budget_bits)
        for big_n in range(1, big_n_max + 1):
            images = {w: cache.xi_word(w) for w in crystal.all_words(big_n)}
            bad = 0
            for w, image in images.items():
                if images.get(image) != w:
                    bad += 1
                if crystal.word_weight(image) != w0_image(crystal.word_weight(w)):
                    bad += 1
            _check(checks, f"xi involution and weight rule n={n} N={big_n}", bad == 0,
                   f"{bad} violations" if bad else "")
        bad = sum(
            1
            for w in crystal.all_words(2)
            if cache.commutor(cache.commutor(w, 1), 1) != w
        )
        _check(checks, f"commutor involutive on two factors n={n}", bad == 0)
    crystal = SpinCrystal(2)
    cache = XiCache(crystal, budget_bits)
    bad = 0
    for w in crystal.all_words(3):
        path1 = cache.commutor(cache.sigma_pqr(w, 2, 3, 2), 1)
        path2 = cache.commutor(cache.sigma_pqr(w, 1, 2, 1), 2)
        if path1 != path2:
            bad += 1
    _check(checks, "coboundary square on three factors n=2", bad == 0,
           f"{bad} violations" if bad else "both expansions of the full reversal agree")
    return _report(
        "commutor", {"n_values": list(n_values), "N_max": big_n_max}, checks
    )


def _generator_permutations(n, big_n, budget_bits):
    """Each generator's action on each shape's tables, as the list of the image's index
    in that shape's enumerate_tables list: one act_on_table per (generator, table)."""
    crystal = SpinCrystal(n)
    cache = XiCache(crystal, budget_bits)
    gens = [(p, q) for p in range(1, big_n + 1) for q in range(p + 1, big_n + 1)]
    shapes = [enumerate_tables(diagram_of_weight(lam, big_n)) for lam in enumerate_delta(n, big_n)]
    # one action per (generator, table): refuse up front a total past the node limit
    _check_budget(max(len(gens) * sum(map(len, shapes)) - 1, 0).bit_length(), budget_bits)
    perms = []
    for tables in shapes:
        index = {t: k for k, t in enumerate(tables)}
        perms.append({gen: [index[act_on_table(cache, [gen], t)] for t in tables]
                      for gen in gens})
    return gens, perms


def suite_cactus_relations(n=2, big_n=4, budget_bits=DEFAULT_BUDGET_BITS):
    """The cactus relations of Henriques-Kamnitzer on the tables of every shape: each
    generator is a bijective involution, disjoint generators commute, and the nested
    relation holds, with its image in the symmetric group. Every generator acts once per
    table; the checks compose those actions as lists of table indices."""
    checks = []
    gens, perms = _generator_permutations(n, big_n, budget_bits)
    involution_ok = True
    bijective_ok = True
    for by_gen in perms:
        for image in by_gen.values():
            if len(set(image)) != len(image):
                bijective_ok = False
            if any(image[j] != k for k, j in enumerate(image)):
                involution_ok = False
    _check(checks, "generators permute each table set", bijective_ok)
    _check(checks, "generators are involutions", involution_ok)

    def compose(outer, inner):
        return [outer[j] for j in inner]

    disjoint_ok = True
    nested_ok = True
    for by_gen in perms:
        for pq in gens:
            for kl in gens:
                p, q = pq
                k, l = kl
                if q < k:
                    if compose(by_gen[pq], by_gen[kl]) != compose(by_gen[kl], by_gen[pq]):
                        disjoint_ok = False
                if p <= k and l <= q:
                    m, nn = p + q - l, p + q - k
                    lhs = compose(by_gen[pq], by_gen[kl])
                    rhs = compose(by_gen[(m, nn)], by_gen[pq])
                    if lhs != rhs:
                        nested_ok = False
                    if word_to_permutation([pq, kl], big_n) != word_to_permutation(
                        [(m, nn), pq], big_n
                    ):
                        nested_ok = False
    _check(checks, "disjoint generators commute", disjoint_ok)
    _check(checks, "nested relation holds", nested_ok)
    return _report("cactus-relations", {"n": n, "N": big_n}, checks)


def predicted_tensor_weights(lam: Weight):
    """Weights of the product with one more factor, by the dominance filter."""
    out = [
        lam + mu
        for mu in spinor_weights(lam.rank)
        if is_dominant_d(lam + mu)
    ]
    out.sort(key=lambda w: w.coords2, reverse=True)
    return out


def suite_thm2(n_values=(2, 3), big_n_max=3, budget_bits=DEFAULT_BUDGET_BITS):
    checks = []
    for n in n_values:
        crystal = SpinCrystal(n)
        for big_n in range(1, big_n_max + 1):
            bad = 0
            for hw in crystal.highest_weight_words(big_n, budget_bits):
                actual = crystal.decompose_component_tensor(hw, budget_bits)
                if actual != predicted_tensor_weights(crystal.word_weight(hw)):
                    bad += 1
            _check(checks, f"tensor decomposition n={n} N={big_n}", bad == 0,
                   f"{bad} components disagree" if bad else "")
    return _report("thm2", {"n_values": list(n_values), "N_max": big_n_max}, checks)


def suite_thm52(n_values=(2, 3), big_n_max=4, seed=20240801):
    checks = []
    rng = random.Random(seed)
    nbits = 16
    relation_bad = 0
    for _ in range(300):
        terms = {}
        for _ in range(4):
            mask = rng.getrandbits(nbits)
            terms[mask] = terms.get(mask, 0) + rng.randint(-4, 4)
        v = ExteriorVector(terms)
        a, b = rng.randrange(nbits), rng.randrange(nbits)
        if not (
            wedge_insert(a, wedge_insert(b, v)) + wedge_insert(b, wedge_insert(a, v))
        ).is_zero():
            relation_bad += 1
        if not (contract(a, contract(b, v)) + contract(b, contract(a, v))).is_zero():
            relation_bad += 1
        anti = wedge_insert(a, contract(b, v)) + contract(b, wedge_insert(a, v))
        if (anti != v) if a == b else (not anti.is_zero()):
            relation_bad += 1
    _check(checks, "wedge/contraction relations (random)", relation_bad == 0,
           f"seed={seed}, 300 draws at 16 generators")
    centralizer_bad = 0
    for n, big_n in ((2, 2), (2, 3), (3, 2)):
        alg = ExteriorAlgebra(n, big_n)
        row_side = [*alg.row_raising.values(), *alg.row_cartan.values()]
        column_side = [*alg.column_raising.values(), *alg.column_cartan.values()]
        for _ in range(20):
            terms = {rng.getrandbits(n * big_n): rng.randint(-3, 3) for _ in range(3)}
            v = ExteriorVector(terms)
            row = rng.choice(row_side)
            column = rng.choice(column_side)
            if row.apply(column.apply(v)) != column.apply(row.apply(v)):
                centralizer_bad += 1
    _check(checks, "row and column actions commute (random)", centralizer_bad == 0,
           f"seed={seed}")
    for n in n_values:
        for big_n in range(1, big_n_max + 1):
            alg = ExteriorAlgebra(n, big_n)
            bad = []
            for lam in enumerate_delta(n, big_n):
                vec = alg.xi_lambda(lam)
                if not alg.check_singular(vec).all_zero:
                    bad.append((lam, "not singular"))
                report = alg.weight_of_vector(vec)
                if not report.is_weight:
                    bad.append((lam, "not a weight vector"))
                    continue
                if report.right != lam:
                    bad.append((lam, "wrong column-side weight"))
                if report.left != kappa(lam, big_n):
                    bad.append((lam, "wrong row-side weight"))
                if big_n % 2 == 0 and lam.coords2[-1] == 0:
                    swapped = alg.gd_swap(vec)
                    if not alg.check_singular(swapped).all_zero:
                        bad.append((lam, "swapped vector not singular"))
                    swapped_report = alg.weight_of_vector(swapped)
                    if not (
                        swapped_report.is_weight
                        and swapped_report.left == kappa_sigma(lam, big_n)
                        and swapped_report.right == lam
                    ):
                        bad.append((lam, "swapped vector has wrong weight"))
            _check(checks, f"top vectors n={n} N={big_n}", not bad,
                   "; ".join(f"{l}: {m}" for l, m in bad[:3]) if bad else "")
    return _report("thm52", {"n_values": list(n_values), "N_max": big_n_max}, checks)


# the tensor powers whose row-swap (even N) and negation (odd N) signs thm51-signs checks
THM51_EVEN_NS, THM51_ODD_NS = (2, 4), (1, 3)


def suite_thm51_signs(n_values=(2, 3)):
    checks = []
    branches = set()
    for n in n_values:
        for big_n in THM51_EVEN_NS:
            alg = ExteriorAlgebra(n, big_n)
            for lam in enumerate_delta(n, big_n):
                if lam.coords2[-1] == 0:
                    continue
                vec = alg.xi_lambda(lam)
                expected = (-1) ** n if lam.coords2[-1] > 0 else (-1) ** (n - 1)
                ok = alg.gd_swap(vec) == vec.scaled(expected)
                branches.add((n % 2, lam.coords2[-1] > 0))
                _check(
                    checks,
                    f"row-swap sign n={n} N={big_n} lambda2={list(lam.coords2)}",
                    ok,
                    f"expected {expected}",
                )
        for big_n in THM51_ODD_NS:
            alg = ExteriorAlgebra(n, big_n)
            for lam in enumerate_delta(n, big_n):
                vec = alg.xi_lambda(lam)
                nu = f_map(diagram_of_weight(lam, big_n))
                expected = (-1) ** nu.size()
                ok = alg.neg_id(vec) == vec.scaled(expected)
                _check(
                    checks,
                    f"negation sign n={n} N={big_n} lambda2={list(lam.coords2)}",
                    ok,
                    f"expected {expected}",
                )
    expected_branches = {(n % 2, sign) for n in n_values for sign in (True, False)}
    _check(
        checks,
        "all reachable row-swap parity branches exercised",
        branches == expected_branches,
        str(sorted(branches)),
    )
    return _report(
        "thm51-signs",
        {"n_values": list(n_values), "even_N": list(THM51_EVEN_NS), "odd_N": list(THM51_ODD_NS)},
        checks,
    )


def wedge_insert_reference(idx, x):
    """wedge_insert as a signed accumulation over the monomials without idx."""
    bit, out = 1 << idx, {}
    for m, c in x.terms.items():
        if not m & bit:
            sign = -1 if (m & (bit - 1)).bit_count() & 1 else 1
            out[m | bit] = out.get(m | bit, 0) + c * sign
    return ExteriorVector(out)


def contract_reference(idx, x):
    """contract as a signed accumulation over the monomials holding idx."""
    bit, out = 1 << idx, {}
    for m, c in x.terms.items():
        if m & bit:
            sign = -1 if (m & (bit - 1)).bit_count() & 1 else 1
            out[m & ~bit] = out.get(m & ~bit, 0) + c * sign
    return ExteriorVector(out)


def y_map_reference(t):
    """y_map as the literal composition: f_map of every prefix diagram."""
    return SSYTable(tuple(f_map(d) for d in t.diagram_chain()))


def y_inverse_reference(s):
    """y_inverse as the literal composition: the steps of the f_inverse chain."""
    return steps_from_diagram_chain([f_inverse(v) for v in s.chain])


def j_map_reference(s):
    """j_map through shorter and syd_to_orthweight, one level at a time."""
    betas = []
    for k in range(s.length, 2, -1):
        v, sign = s.chain[k - 1], -1 if s.chain[k - 2].size() % 2 else 1
        betas.append(syd_to_orthweight(v, k, sign) if is_self_associated(v)
                     else syd_to_orthweight(shorter(v), k))
    z = shorter(s.chain[1]).size()
    return GTPattern(tuple(betas), -z if s.chain[0].size() else z)


def enumerate_tables_reference(shape):
    """enumerate_tables as a plain search: every step tested at every node."""
    n, big_n = shape.height, shape.length
    target = weight_of_diagram(shape).coords2
    steps_pool = spinor_weights(n)
    out = []

    def extend(prefix_steps, total, k):
        if k == big_n:
            if total == target:
                out.append(CellTable(tuple(prefix_steps)))
            return
        for mu in steps_pool:
            new_total = tuple(a + c for a, c in zip(total, mu.coords2))
            if (is_dominant_d(Weight(new_total)) and (k or is_dominant_d(mu))
                    and all(abs(t - c) <= big_n - k - 1 for t, c in zip(target, new_total))):
                extend(prefix_steps + [mu], new_total, k + 1)

    extend([], (0,) * n, 0)
    return out


def _level_options_reference(p, k, n):
    """The members of SYD(k, n) p can record at level k, the recorded one first."""
    if k >= 3:
        coords2 = p.betas[p.top_rank - k].coords2
        if any(c % 2 for c in coords2):
            return []
        candidates = [tuple(abs(c) // 2 for c in coords2 if c)]
    elif k == 2:
        candidates = [(abs(p.z),)] if p.z else [(), (1, 1)]
    else:
        candidates = [(1,)] if p.z < 0 else [(), (1,)]
    options = []
    for rows in candidates:
        try:
            options.append(ShortYoungDiagram(rows, k, n))
        except ValidationError:
            pass
    if k >= 3 and options:
        options.append(associated(options[0]))
    return options


def j_inverse_reference(p, v):
    """j_inverse as a search: level k is the first of its options that grows into level
    k+1 by a horizontal strip (and has the recorded parity below a self-associated level)."""
    big_n = v.N
    if p.top_rank != big_n:
        raise ValidationError(f"pattern top rank {p.top_rank} does not match shape height {big_n}")
    if big_n < 3:
        raise ValidationError("patterns are only defined for chains of length >= 3")
    if v not in _level_options_reference(p, big_n, v.n):
        raise ValidationError("pattern top row does not encode the given shape")
    chain = [v]
    for k in range(big_n - 1, 0, -1):
        upper = chain[-1]
        parity = None
        if k >= 2 and is_self_associated(upper):
            parity = int(p.betas[big_n - k - 1].coords2[-1] < 0)
        for cand in _level_options_reference(p, k, v.n):
            if (parity is None or cand.size() % 2 == parity) and upper.horizontal_strip_over(cand):
                chain.append(cand)
                break
        else:
            raise ValidationError("pattern is not in the image of the chain bijection")
    s = SSYTable(tuple(reversed(chain)))
    if j_map(s) != p:
        raise ValidationError("pattern is not in the image of the chain bijection")
    return s


def _all_cell_diagrams(n, big_n):
    """Independent enumeration of valid diagrams, straight from the invariants."""
    out = []

    def extend(r_prefix):
        i = len(r_prefix)
        if i == n:
            if r_prefix[n - 2] >= big_n - r_prefix[n - 1]:
                out.append(
                    CellDiagram(tuple(big_n - r for r in r_prefix), tuple(r_prefix))
                )
            return
        top = big_n if i == 0 else r_prefix[-1]
        for r in range(top, -1, -1):
            extend(r_prefix + [r])

    extend([])
    return out


def _all_syd(n, big_n):
    """Independent enumeration of short Young diagrams, from the definition."""
    out = []

    def extend(rows):
        first_col = len(rows)
        second_col = sum(1 for x in rows if x >= 2)
        if first_col + second_col > big_n:
            return
        out.append(ShortYoungDiagram(tuple(rows), big_n, n))
        top = rows[-1] if rows else n
        for x in range(1, top + 1):
            extend(rows + [x])

    extend([])
    return out


def _steps_read_back(tables, seen):
    """How many tables do not get their steps back from their diagram chain. Step k is
    read off the diagrams of lengths k-1 and k, so each (k, prefix sum, step) not in seen
    is checked once, on the shortest prefix of its table that holds all of them."""
    bad = 0
    for t in tables:
        total, sums, last = (0,) * t.height, [], 0
        for k, mu in enumerate(t.steps, 1):
            if (k, total, mu) not in seen:
                seen.add((k, total, mu))
                last = k
            total = tuple(a + c for a, c in zip(total, mu.coords2))
            sums.append(total)
        if last:
            chain = [diagram_of_weight(Weight(c), k) for k, c in enumerate(sums[:last], 1)]
            bad += steps_from_diagram_chain(chain).steps != t.steps[:last]
    return bad


# the largest (n, N) of the weight<->diagram and of the diagram<->partition checks
KN_MAX, F_MAX = (4, 7), (5, 7)


def suite_bijections(chain_n_max=3, chain_big_ns=(3, 4)):
    checks = []
    for n in range(2, KN_MAX[0] + 1):
        for big_n in range(1, KN_MAX[1] + 1):
            lams = enumerate_delta(n, big_n)
            diagrams = [diagram_of_weight(lam, big_n) for lam in lams]
            ok = (
                all(weight_of_diagram(d) == lam for d, lam in zip(diagrams, lams))
                and len(set(diagrams)) == len(lams)
                and set(diagrams) == set(_all_cell_diagrams(n, big_n))
            )
            _check(checks, f"weight<->diagram n={n} N={big_n}", ok, f"{len(lams)} weights")
    for n in range(2, F_MAX[0] + 1):
        for big_n in range(1, F_MAX[1] + 1):
            diagrams = [diagram_of_weight(lam, big_n) for lam in enumerate_delta(n, big_n)]
            images = [f_map(d) for d in diagrams]
            ok = (
                len(set(images)) == len(images)
                and all(f_inverse(v) == d for d, v in zip(diagrams, images))
                and set(images) == set(_all_syd(n, big_n))
            )
            _check(checks, f"diagram<->partition n={n} N={big_n}", ok, f"{len(images)} diagrams")
    seen = set()
    for n in range(2, chain_n_max + 1):
        for big_n in chain_big_ns:
            total_bad = 0
            counted = []
            for lam in enumerate_delta(n, big_n):
                shape = diagram_of_weight(lam, big_n)
                tables = enumerate_tables(shape)
                nu = f_map(shape)
                chains = enumerate_sssyt(nu)
                patterns = enumerate_gtp(nu)
                if not (len(tables) == len(chains) == len(patterns) == count_sssyt(nu)):
                    total_bad += 1
                total_bad += _steps_read_back(tables, seen)
                images = set()
                for t in tables:
                    s = y_map(t)
                    images.add(s)
                    if y_inverse(s) != t:
                        total_bad += 1
                if images != set(chains):
                    total_bad += 1
                pattern_images = set()
                for s in chains:
                    p = j_map(s)
                    pattern_images.add(p)
                    if j_inverse(p, nu) != s:
                        total_bad += 1
                if pattern_images != set(patterns):
                    total_bad += 1
                counted.append(len(tables))
            _check(
                checks,
                f"table<->chain<->pattern n={n} N={big_n}",
                total_bad == 0,
                f"{sum(counted)} tables checked",
            )
    return _report(
        "bijections",
        {
            "kn": list(KN_MAX),
            "f": list(F_MAX),
            "chains": [chain_n_max, list(chain_big_ns)],
        },
        checks,
    )


SUITES = {
    "crystal-axioms": suite_crystal_axioms,
    "census": suite_census,
    "commutor": suite_commutor,
    "cactus-relations": suite_cactus_relations,
    "thm2": suite_thm2,
    "thm52": suite_thm52,
    "thm51-signs": suite_thm51_signs,
    "bijections": suite_bijections,
}
