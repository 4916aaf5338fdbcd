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
from .crystal import DEFAULT_BUDGET_BITS, SpinCrystal, _check_budget, node_limit
from .errors import BudgetExceededError, ValidationError
from .weights import Weight, is_dominant_d, spinor_weights, w0_image
from .youngt import (
    ShortYoungDiagram,
    count_sssyt,
    enumerate_gtp,
    enumerate_sssyt,
    f_inverse,
    f_map,
    j_inverse,
    j_map,
    y_inverse,
    y_map,
)


def _report(suite, params, checks):
    return {
        "schema": "cactus-crystal/1",
        "suite": suite,
        "params": params,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _pairing(wt: Weight, i, n):
    c2 = wt.coords2
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


def tensor_f_reference(crystal, i, w):
    """Literal two-factor recursion, eps/phi by repeated application."""
    if len(w) == 1:
        moved = crystal.spin_f(i, w[0])
        return None if moved is None else (moved,)
    head, last = w[:-1], w[-1]
    if _eps_reference(crystal, i, head) >= _phi1_reference(crystal, i, last):
        moved = tensor_f_reference(crystal, i, head)
        return None if moved is None else moved + (last,)
    moved = crystal.spin_f(i, last)
    return None if moved is None else head + (moved,)


def tensor_e_reference(crystal, i, w):
    if len(w) == 1:
        moved = crystal.spin_e(i, w[0])
        return None if moved is None else (moved,)
    head, last = w[:-1], w[-1]
    if _eps_reference(crystal, i, head) > _phi1_reference(crystal, i, last):
        moved = tensor_e_reference(crystal, i, head)
        return None if moved is None else moved + (last,)
    moved = crystal.spin_e(i, last)
    return None if moved is None else head + (moved,)


def _phi1_reference(crystal, i, b):
    return 0 if crystal.spin_f(i, b) is None else 1


def _eps_reference(crystal, i, w):
    count = 0
    cur = tensor_e_reference(crystal, i, w)
    while cur is not None:
        count += 1
        cur = tensor_e_reference(crystal, i, cur)
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
        limit = node_limit(self.budget_bits)
        lw = crystal.to_lowest_weight(hw)
        table = {hw: lw}
        queue = [hw]
        while queue:
            cur = queue.pop()
            image = table[cur]
            for i in range(1, crystal.n + 1):
                down = crystal.tensor_f(i, cur)
                if down is None:
                    continue
                up = crystal.tensor_e(self._theta(i), image)
                assert up is not None, "xi propagation left the component"
                if down in table:
                    assert table[down] == up, (
                        "xi propagation is path-dependent; theta/w0 rule is wrong"
                    )
                    continue
                if len(table) >= limit:
                    raise BudgetExceededError(self.budget_bits + 1, self.budget_bits)
                table[down] = up
                queue.append(down)
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


def suite_crystal_axioms(n_values=(2, 3), big_n_max=4):
    checks = []
    for n in n_values:
        crystal = SpinCrystal(n)
        wts = sorted((crystal.element_weight(b) for b in crystal.elements()),
                     key=lambda w: w.coords2, reverse=True)
        _check(
            checks,
            f"character n={n}",
            list(wts) == sorted(spinor_weights(n), key=lambda w: w.coords2, reverse=True),
            "weight multiset of the basic crystal is all sign vectors, once each",
        )
        for big_n in range(1, big_n_max + 1):
            bad = []
            for w in crystal.all_words(big_n):
                wt = crystal.word_weight(w)
                for i in range(1, n + 1):
                    eps, phi = crystal.eps(i, w), crystal.phi(i, w)
                    if phi - eps != _pairing(wt, i, n):
                        bad.append(("pairing", w, i))
                    down = crystal.tensor_f(i, w)
                    if down is not None:
                        shift = tuple(
                            a - b for a, b in zip(wt.coords2, _root2(i, n))
                        )
                        if crystal.word_weight(down).coords2 != shift:
                            bad.append(("weight-shift-f", w, i))
                        if crystal.tensor_e(i, down) != w:
                            bad.append(("ef-adjoint", w, i))
                    up = crystal.tensor_e(i, w)
                    if up is not None:
                        shift = tuple(
                            a + b for a, b in zip(wt.coords2, _root2(i, n))
                        )
                        if crystal.word_weight(up).coords2 != shift:
                            bad.append(("weight-shift-e", w, i))
                        if crystal.tensor_f(i, up) != w:
                            bad.append(("fe-adjoint", w, i))
                    if crystal.tensor_f(i, w) != tensor_f_reference(crystal, i, w):
                        bad.append(("f-vs-reference", w, i))
                    if crystal.tensor_e(i, w) != tensor_e_reference(crystal, i, w):
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
    # the largest whole-crystal scan: N factors (at least two) per rank, three at n=2
    _check_budget(max([6] + [n * max(big_n_max, 2) for n in n_values]), budget_bits)
    checks = []
    for n in n_values:
        crystal = SpinCrystal(n)
        cache = XiCache(crystal, budget_bits)
        for big_n in range(1, big_n_max + 1):
            bad = 0
            for w in crystal.all_words(big_n):
                image = cache.xi_word(w)
                if cache.xi_word(image) != w:
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
    cache = XiCache(crystal)
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
    crystal = SpinCrystal(n)
    cache = XiCache(crystal, budget_bits)
    gens = [(p, q) for p in range(1, big_n + 1) for q in range(p + 1, big_n + 1)]
    shapes = [enumerate_tables(diagram_of_weight(lam, big_n)) for lam in enumerate_delta(n, big_n)]
    # one action per (generator, table): refuse up front a total past the node limit
    _check_budget(max(len(gens) * sum(map(len, shapes)) - 1, 0).bit_length(), budget_bits)
    perms = [
        {gen: {t: act_on_table(cache, [gen], t) for t in tables} for gen in gens}
        for tables in shapes
    ]
    return gens, perms


def suite_cactus_relations(n=2, big_n=4, budget_bits=DEFAULT_BUDGET_BITS):
    checks = []
    gens, perms = _generator_permutations(n, big_n, budget_bits)
    involution_ok = True
    bijective_ok = True
    for by_gen in perms:
        for mapping in by_gen.values():
            if len(set(mapping.values())) != len(mapping):
                bijective_ok = False
            if any(mapping[mapping[t]] != t for t in mapping):
                involution_ok = False
    _check(checks, "generators permute each table set", bijective_ok)
    _check(checks, "generators are involutions", involution_ok)

    def compose(mapping_outer, mapping_inner):
        return {t: mapping_outer[mapping_inner[t]] for t in mapping_inner}

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
            for comp in crystal.components(big_n, budget_bits):
                actual = crystal.decompose_component_tensor(comp.hw_word, budget_bits)
                if actual != predicted_tensor_weights(comp.weight):
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
            v = ExteriorVector({m: c for m, c in terms.items()})
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


def suite_thm51_signs(n_values=(2, 3), even_n_values=(2, 4), odd_n_values=(1, 3)):
    checks = []
    branches = set()
    for n in n_values:
        for big_n in even_n_values:
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
        for big_n in odd_n_values:
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
        {"n_values": list(n_values), "even_N": list(even_n_values), "odd_N": list(odd_n_values)},
        checks,
    )


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


def suite_bijections(
    kn_n_max=4,
    kn_big_n_max=7,
    f_n_max=5,
    f_big_n_max=7,
    chain_n_max=3,
    chain_big_ns=(3, 4, 5),
):
    checks = []
    for n in range(2, kn_n_max + 1):
        for big_n in range(1, kn_big_n_max + 1):
            lams = enumerate_delta(n, big_n)
            diagrams = [diagram_of_weight(lam, big_n) for lam in lams]
            ok = (
                all(weight_of_diagram(d) == lam for d, lam in zip(diagrams, lams))
                and len(set(diagrams)) == len(lams)
                and set(diagrams) == set(_all_cell_diagrams(n, big_n))
            )
            _check(checks, f"weight<->diagram n={n} N={big_n}", ok, f"{len(lams)} weights")
    for n in range(2, f_n_max + 1):
        for big_n in range(1, f_big_n_max + 1):
            diagrams = [diagram_of_weight(lam, big_n) for lam in enumerate_delta(n, big_n)]
            images = [f_map(d) for d in diagrams]
            ok = (
                len(set(images)) == len(images)
                and all(f_inverse(v) == d for d, v in zip(diagrams, images))
                and set(images) == set(_all_syd(n, big_n))
            )
            _check(checks, f"diagram<->partition n={n} N={big_n}", ok, f"{len(images)} diagrams")
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
                images = set()
                for t in tables:
                    if steps_from_diagram_chain(t.diagram_chain()) != t:
                        total_bad += 1
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
            "kn": [kn_n_max, kn_big_n_max],
            "f": [f_n_max, f_big_n_max],
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
