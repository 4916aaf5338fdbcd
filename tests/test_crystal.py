import tracemalloc
from functools import partial

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
    for n, big_n_max in ((2, 5), (3, 4)):
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


def _reference_positions(c, move, i, w):
    """The factor positions that repeated reference moves of index i change, in order."""
    positions = []
    cur = w
    nxt = move(c, i, cur)
    while nxt is not None:
        (pos,) = [k for k in range(len(w)) if nxt[k] != cur[k]]
        positions.append(pos)
        cur, nxt = nxt, move(c, i, nxt)
    return positions


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 5), (4, 3)])
def test_signature_and_extremal_tests_match_reference_moves(n, big_n_max):
    c = SpinCrystal(n)
    for big_n in range(1, big_n_max + 1):
        for w in c.all_words(big_n):
            top = bottom = True
            for i in range(1, n + 1):
                free_phi = _reference_positions(c, tensor_f_reference, i, w)
                free_eps = _reference_positions(c, tensor_e_reference, i, w)
                assert c._signature(i, w) == (free_phi, free_eps)
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
    # the oracle moves by the two-factor recursion, so it shares no code with _signature
    c = SpinCrystal(n)
    up, down = partial(tensor_e_reference, c), partial(tensor_f_reference, c)
    for big_n in range(1, 5):
        for w in c.all_words(big_n):
            for i in range(1, n + 1):
                assert c.eps(i, w) == _repeated(up, i, w)
                assert c.phi(i, w) == _repeated(down, i, w)
