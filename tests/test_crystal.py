import tracemalloc
from functools import partial
from itertools import product

import pytest

from spincactus.celldiag import diagram_of_weight, enumerate_delta, enumerate_tables, table_from_steps
from spincactus.crystal import Component, SpinCrystal, census_json, closure, crystal_dot
from spincactus.errors import BudgetExceededError, ValidationError
from spincactus.suites import (
    predicted_tensor_weights,
    suite_crystal_axioms,
    tensor_e_reference,
    tensor_f_reference,
)
from spincactus.weights import Weight, omega_minus, omega_plus, spinor_weights

from test_celldiag import WORKED_STEPS


def masks(crystal, *sign_strings):
    out = []
    for s in sign_strings:
        m = 0
        for j, ch in enumerate(s):
            if ch == "+":
                m |= 1 << j
        out.append(m)
    return tuple(out)


def test_single_factor_rules():
    c = SpinCrystal(2)
    pp, pm, mp, mm = masks(c, "++", "+-", "-+", "--")
    assert c.spin_f(1, pm) == mp
    assert c.spin_f(1, pp) is None
    assert c.spin_f(2, pp) == mm
    assert c.spin_e(1, mp) == pm
    assert c.spin_e(2, mm) == pp
    with pytest.raises(ValidationError):
        c.spin_f(3, pp)


def _sign_rule(n, i, signs, lowering):
    """f_i (lowering) or e_i on a sign string, as written in the definition; None where it is zero."""
    j = i - 1 if i < n else n - 2  # the two positions index i reads
    pair = signs[j : j + 2]
    if i < n:
        source, target = ("+-", "-+") if lowering else ("-+", "+-")
    else:
        source, target = ("++", "--") if lowering else ("--", "++")
    return signs[:j] + target + signs[j + 2 :] if pair == source else None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_single_factor_moves_follow_the_sign_string_rule(n):
    c = SpinCrystal(n)
    strings = ["".join(signs) for signs in product("+-", repeat=n)]
    assert sorted(masks(c, *strings)) == list(c.elements())
    for signs in strings:
        (b,) = masks(c, signs)
        for i in range(1, n + 1):
            for move, lowering in ((c.spin_f, True), (c.spin_e, False)):
                image = _sign_rule(n, i, signs, lowering)
                assert move(i, b) == (None if image is None else masks(c, image)[0])


def test_weight_shift_by_simple_roots():
    for n in (2, 3, 4, 5):
        c = SpinCrystal(n)
        for b in c.elements():
            for i in range(1, n + 1):
                down = c.spin_f(i, b)
                if down is None:
                    continue
                delta = tuple(
                    x - y
                    for x, y in zip(
                        c.element_weight(b).coords2, c.element_weight(down).coords2
                    )
                )
                if i < n:
                    expected = tuple(
                        2 if j == i - 1 else -2 if j == i else 0 for j in range(n)
                    )
                else:
                    expected = tuple(2 if j >= n - 2 else 0 for j in range(n))
                assert delta == expected


def test_basic_crystal_character_and_tops():
    for n in (2, 3, 4):
        c = SpinCrystal(n)
        wts = sorted((c.element_weight(b).coords2 for b in c.elements()), reverse=True)
        assert wts == sorted((w.coords2 for w in spinor_weights(n)), reverse=True)
        tops = [b for b in c.elements() if c.is_highest_weight((b,))]
        assert {c.element_weight(b) for b in tops} == {omega_plus(n), omega_minus(n)}


def test_tensor_reduces_to_single_factor():
    c = SpinCrystal(3)
    for b in c.elements():
        for i in (1, 2, 3):
            single = c.spin_f(i, b)
            word = c.tensor_f(i, (b,))
            assert (single is None) == (word is None)
            if word is not None:
                assert word == (single,)


def test_highest_weight_examples():
    c = SpinCrystal(2)
    all_plus = (3, 3, 3)
    assert c.is_highest_weight(all_plus)
    assert c.word_weight(all_plus).coords2 == (3, 3)
    assert c.is_highest_weight((1, 3))  # hand-checked hw word of weight (1, 0)
    assert c.word_weight((1, 3)).coords2 == (2, 0)


def _repeated(op, i, w):
    count = 0
    w = op(i, w)
    while w is not None:
        count += 1
        w = op(i, w)
    return count


def test_matches_reference_recursion():
    # (4, 3): an even rank past the smallest, where f_n and f_{n-1} fork
    for n, big_n_max in ((2, 5), (3, 4), (4, 3)):
        c = SpinCrystal(n)
        for big_n in range(1, big_n_max + 1):
            for w in c.all_words(big_n):
                for i in range(1, n + 1):
                    assert c.tensor_f(i, w) == tensor_f_reference(c, i, w)
                    assert c.tensor_e(i, w) == tensor_e_reference(c, i, w)


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 4)])
def test_eps_phi_match_repeated_application(n, big_n_max):
    c = SpinCrystal(n)
    for big_n in range(1, big_n_max + 1):
        for w in c.all_words(big_n):
            for i in range(1, n + 1):
                assert c.eps(i, w) == _repeated(c.tensor_e, i, w)
                assert c.phi(i, w) == _repeated(c.tensor_f, i, w)


def test_extremal_paths_replay_to_the_word():
    for n in (2, 3):
        c = SpinCrystal(n)
        for w in c.all_words(3):
            for to_extreme, back in ((c.to_highest_weight, c.tensor_f),
                                     (c.to_lowest_weight, c.tensor_e)):
                path = []
                cur = to_extreme(w, path)
                assert cur == to_extreme(w)
                for i in reversed(path):
                    cur = back(i, cur)
                assert cur == w


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 4), (4, 3)])
def test_string_walk_records_the_single_move_path(n, big_n_max):
    # xi replays the path with theta, so the string walk must record the single moves' path
    c = SpinCrystal(n)
    for big_n in range(1, big_n_max + 1):
        for w in c.all_words(big_n):
            strings, moves = [], []
            assert c.to_highest_weight(w, strings) == c._walk(w, c.tensor_e, moves)
            assert strings == moves


def test_negative_tensor_power_is_refused():
    c = SpinCrystal(2)
    for scan in (c.components, c.hw_census, c.all_words):
        with pytest.raises(ValidationError, match="tensor power N must be at least 0, got -1"):
            scan(-1)
    assert list(c.all_words(0)) == [()]


def test_tensor_index_is_checked():
    c = SpinCrystal(2)
    for i in (0, 3, -1):
        for op in (c.tensor_e, c.tensor_f, c.eps, c.phi):
            with pytest.raises(ValidationError):
                op(i, (0, 3))


def test_axiom_suite_passes():
    report = suite_crystal_axioms(n_values=(2, 3), big_n_max=3)
    assert report["pass"], report


def test_components_small():
    c = SpinCrystal(2)
    comps = c.components(1)
    assert len(comps) == 2
    assert sorted(comp.size for comp in comps) == [2, 2]
    assert {comp.weight for comp in comps} == {omega_plus(2), omega_minus(2)}

    comps2 = c.components(2)
    assert sum(comp.size for comp in comps2) == 16
    table_total = sum(
        len(enumerate_tables(diagram_of_weight(lam, 2))) for lam in enumerate_delta(2, 2)
    )
    assert len(comps2) == table_total == 6


def test_census_matches_tables():
    for n in (2, 3):
        for big_n in range(1, 5):
            c = SpinCrystal(n)
            census = c.hw_census(big_n)
            for lam in enumerate_delta(n, big_n):
                expected = len(enumerate_tables(diagram_of_weight(lam, big_n)))
                assert census.get(lam, 0) == expected
            assert set(census) <= set(enumerate_delta(n, big_n))


def test_budget_guard():
    c = SpinCrystal(3)
    with pytest.raises(BudgetExceededError):
        c.components(8, budget_bits=20)
    with pytest.raises(ValidationError):
        c.components(2, budget_bits=30)


def test_word_table_round_trip_exhaustive():
    for n in (2, 3):
        c = SpinCrystal(n)
        for big_n in range(1, 5):
            tables = set()
            for w in c.highest_weight_words(big_n):
                t = c.word_to_table(w)
                assert c.table_to_word(t) == w
                tables.add(t)
            expected = {
                t
                for lam in enumerate_delta(n, big_n)
                for t in enumerate_tables(diagram_of_weight(lam, big_n))
            }
            assert tables == expected


def test_word_to_table_requires_hw():
    c = SpinCrystal(2)
    with pytest.raises(ValidationError):
        c.word_to_table((0, 0))


def test_worked_example_word():
    c = SpinCrystal(4)
    t = table_from_steps([Weight(s) for s in WORKED_STEPS])
    w = c.table_to_word(t)
    assert c.is_highest_weight(w)
    assert c.word_to_table(w) == t
    all_plus_table = table_from_steps([omega_plus(4)] * 7)
    assert c.table_to_word(all_plus_table) == ((1 << 4) - 1,) * 7


def test_decompose_component_tensor():
    c = SpinCrystal(2)
    top = (3,)  # weight (1/2, 1/2)
    got = [w.coords2 for w in c.decompose_component_tensor(top)]
    assert got == [(2, 2), (2, 0), (0, 0)]

    zero_top = (0, 3)  # hand-checked hw word of weight (0, 0)
    got0 = [w.coords2 for w in c.decompose_component_tensor(zero_top)]
    assert got0 == [(1, 1), (1, -1)]


def test_decompose_matches_prediction_everywhere():
    for n in (2, 3):
        c = SpinCrystal(n)
        for big_n in (1, 2, 3):
            for comp in c.components(big_n):
                actual = c.decompose_component_tensor(comp.hw_word)
                assert actual == predicted_tensor_weights(comp.weight)


@pytest.mark.parametrize("n, big_n_max", [(2, 4), (3, 4), (4, 3)])
def test_decompose_matches_every_extension_of_every_member(n, big_n_max):
    # brute force: every member times every element, kept when it is a top
    c = SpinCrystal(n)
    for big_n in range(1, big_n_max + 1):
        for hw in c.highest_weight_words(big_n):
            _, members = c.component_members(hw)
            expected = [c.word_weight(w + (b,)) for w in members for b in c.elements()
                        if c.is_highest_weight(w + (b,))]
            expected.sort(key=lambda wt: wt.coords2, reverse=True)
            assert c.decompose_component_tensor(hw) == expected, hw


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_top_is_its_own_highest_weight_word(n):
    # the oracle raises whole e_i-strings and never reads the eps count of the tops test
    c = SpinCrystal(n)
    for big_n in range(5):
        for w in c.all_words(big_n):
            assert c.is_highest_weight(w) == (c.to_highest_weight(w) == w), w


def test_morphism_rigidity():
    # two components with the same top weight admit exactly one aligned matching
    c = SpinCrystal(2)
    comps = [comp for comp in c.components(3) if comp.weight == Weight((1, 1))]
    assert len(comps) >= 2
    a, b = comps[0], comps[1]
    mapping = {a.hw_word: b.hw_word}
    queue = [a.hw_word]
    while queue:
        cur = queue.pop()
        for i in (1, 2):
            down = c.tensor_f(i, cur)
            image_down = c.tensor_f(i, mapping[cur])
            assert (down is None) == (image_down is None)
            if down is None:
                continue
            if down in mapping:
                assert mapping[down] == image_down
            else:
                mapping[down] = image_down
                queue.append(down)
    assert len(set(mapping.values())) == len(mapping) == a.size == b.size


def test_dot_and_census_exports():
    c = SpinCrystal(2)
    dot = crystal_dot(c, 1)
    assert dot.count("->") == 2  # two components, one lowering edge each
    assert '"++"' in dot and '"--"' in dot
    census = census_json(c, 2)
    assert {"lambda2": [2, 2], "count": 1} in census
    assert sum(item["count"] for item in census) == 6


def _reference_positions(c, move, i, w, eps_memo):
    """The factor positions that repeated reference moves of index i change, in order."""
    positions = []
    cur = w
    nxt = move(c, i, cur, eps_memo)
    while nxt is not None:
        (pos,) = [k for k in range(len(w)) if nxt[k] != cur[k]]
        positions.append(pos)
        cur, nxt = nxt, move(c, i, nxt, eps_memo)
    return positions


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 5), (4, 3)])
def test_signature_and_extremal_tests_match_reference_moves(n, big_n_max):
    c = SpinCrystal(n)
    eps_memo = {}  # one per crystal, as suite_crystal_axioms keeps it
    for big_n in range(1, big_n_max + 1):
        for w in c.all_words(big_n):
            top = bottom = True
            for i in range(1, n + 1):
                free_phi = _reference_positions(c, tensor_f_reference, i, w, eps_memo)
                free_eps = _reference_positions(c, tensor_e_reference, i, w, eps_memo)
                assert c._bracket(i, w) == (
                    len(free_phi), free_phi[0] if free_phi else None,
                    len(free_eps), free_eps[0] if free_eps else None,
                )
                top = top and not free_eps
                bottom = bottom and not free_phi
            assert c.is_highest_weight(w) == top
            assert c.is_lowest_weight(w) == bottom


def _components_by_visited_set(c, big_n):
    """Components in the scan order of a visited set over the product order: the order oracle."""
    comps = []
    visited = set()
    indices = range(1, c.n + 1)
    for w in c.all_words(big_n):
        if w in visited:
            continue
        hw = c.to_highest_weight(w)
        members = closure(hw, lambda cur: [c.tensor_f(i, cur) for i in indices], 24)
        assert sum(map(c.is_highest_weight, members)) == 1
        assert sum(map(c.is_lowest_weight, members)) == 1
        visited |= members
        comps.append(Component(hw, c.word_weight(hw), len(members)))
    assert len(visited) == (1 << c.n) ** big_n
    return comps


@pytest.mark.parametrize("n, big_n_max", [(2, 6), (3, 5), (4, 4)])
def test_components_match_visited_set_oracle(n, big_n_max):
    c = SpinCrystal(n)
    for big_n in range(1, big_n_max + 1):
        assert c.components(big_n) == _components_by_visited_set(c, big_n)


def test_components_hold_one_component_at_a_time():
    # 2^15 words; a visited set of them would take several MiB
    c = SpinCrystal(3)
    tracemalloc.start()
    try:
        comps = c.components(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(comp.size for comp in comps) == 1 << 15
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [2, 3])
def test_eps_phi_match_repeated_reference_moves(n):
    # the oracle moves by the two-factor recursion, so it shares no code with _bracket
    c = SpinCrystal(n)
    up, down = partial(tensor_e_reference, c), partial(tensor_f_reference, c)
    for big_n in range(1, 5):
        for w in c.all_words(big_n):
            for i in range(1, n + 1):
                assert c.eps(i, w) == _repeated(up, i, w)
                assert c.phi(i, w) == _repeated(down, i, w)


def _lowering_closure(c, hw):
    """The component of hw, stepped by tensor_f one index at a time."""
    return closure(hw, lambda cur: [c.tensor_f(i, cur) for i in range(1, c.n + 1)], 24)


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 4), (4, 3)])
def test_component_members_match_the_lowering_closure(n, big_n_max):
    c = SpinCrystal(n)
    for big_n in range(1, big_n_max + 1):
        for hw in c.highest_weight_words(big_n):
            expected = _lowering_closure(c, hw)
            assert c.component_members(hw) == (hw, expected)
            assert sum(map(c.is_highest_weight, expected)) == 1
            assert sum(map(c.is_lowest_weight, expected)) == 1
            # from any other member the same component comes back, with the same top
            assert c.component_members(c.to_lowest_weight(hw)) == (hw, expected)


def test_component_members_asserts_one_top_and_one_bottom():
    c = SpinCrystal(2)
    hw = c.to_highest_weight((0, 0))
    assert len(c.component_members(hw)[1]) > 1
    # no factor is an eps factor any more, so no bracket opens: every member is a top;
    # the fault goes into a fresh crystal, as the walked one keeps its half-word records
    c = SpinCrystal(2)
    c._code = (None,) + tuple(tuple(x & 2 for x in code) for code in c._code[1:])
    with pytest.raises(AssertionError, match="exactly one top and one bottom"):
        c.component_members(hw)


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 5), (4, 4)])
def test_highest_weight_words_are_the_brute_force_tops(n, big_n_max):
    # powers 0 and 1 are tested word by word; odd powers split into unequal halves,
    # even ones into equal halves
    c = SpinCrystal(n)
    for big_n in range(big_n_max + 1):
        expected = [w for w in c.all_words(big_n) if c.is_highest_weight(w)]
        assert c.highest_weight_words(big_n) == expected
        assert c.highest_weight_words(big_n) == expected  # read back from the stored scan


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 5), (4, 4)])
def test_two_block_records_match_the_bracket_pass_at_every_split(n, big_n_max):
    c = SpinCrystal(n)
    limit = 1 << 20
    indices = range(1, n + 1)
    for big_n in range(big_n_max + 1):
        for w in c.all_words(big_n):
            brackets = [c._bracket(i, w) for i in indices]
            moves = [c.tensor_f(i, w) for i in indices]
            rec = c._block(w, limit)
            assert rec == tuple(x for (phi, _, eps, _), f in zip(brackets, moves) for x in (eps, phi, f))
            top, bottom = c.is_highest_weight(w), c.is_lowest_weight(w)
            for h in range(big_n + 1):
                rec_u, rec_v = c._block(w[:h], limit), c._block(w[h:], limit)
                for k, (phi, _, eps, _) in enumerate(brackets):
                    eps_u, phi_u, eps_v, phi_v = rec_u[3 * k], rec_u[3 * k + 1], rec_v[3 * k], rec_v[3 * k + 1]
                    assert (eps, phi) == (eps_v + max(eps_u - phi_v, 0), phi_u + max(phi_v - eps_u, 0))
                successors, counts = c._lowering(h, limit)
                assert successors(w) == [m for m in moves if m is not None]
                assert counts == [top, bottom]


def test_the_record_store_stops_at_the_node_limit():
    c = SpinCrystal(2)
    tops = c.highest_weight_words(5)
    walked = [c.component_members(hw) for hw in tops]
    assert len(c._blocks) == 4**2 + 4**3  # every half-word of lengths 2 and 3; scans store none
    for bits in (4, 5, 6):  # the largest component at (2, 5) has 12 words
        capped = SpinCrystal(2)
        capped._tops[5] = tuple(tops)
        assert [capped.component_members(hw, bits) for hw in tops] == walked
        assert len(capped._blocks) == 1 << bits


def test_stored_tops_survive_mutation_of_a_result():
    c = SpinCrystal(3)
    first = c.highest_weight_words(3)
    expected = list(first)
    first.clear()
    first.append((0, 0, 0))
    assert c.highest_weight_words(3) == expected
    # the census and the components read the same stored scan
    assert sum(c.hw_census(3).values()) == len(expected)
    assert [comp.hw_word for comp in c.components(3)] == sorted(
        expected, key=lambda hw: min(c.component_members(hw)[1])
    )


def test_word_weight_sums_the_factor_weights():
    for n in (2, 3, 4):
        c = SpinCrystal(n)
        for w in c.all_words(2):
            expected = [sum(1 if (b >> j) & 1 else -1 for b in w) for j in range(n)]
            assert c.word_weight(w).coords2 == tuple(expected)


def test_eps_memo_gives_the_reference_answers_within_its_bound():
    n, big_n = 3, 3
    c = SpinCrystal(n)
    memo = {}
    for w in c.all_words(big_n):
        for i in range(1, n + 1):
            assert tensor_f_reference(c, i, w, memo) == tensor_f_reference(c, i, w)
            assert tensor_e_reference(c, i, w, memo) == tensor_e_reference(c, i, w)
    assert all(len(w) < big_n for _, w in memo)
    assert len(memo) <= n * sum(1 << (n * k) for k in range(big_n))
