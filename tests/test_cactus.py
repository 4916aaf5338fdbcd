import pytest

from spincactus.cactus import (
    XiCache,
    act_on_table,
    apply_cactus_word,
    orbit,
    parse_cactus_word,
    word_to_permutation,
)
from spincactus.celldiag import diagram_of_weight, enumerate_delta, enumerate_tables
from spincactus.crystal import SpinCrystal
from spincactus.errors import ValidationError
from spincactus.suites import XiTableReference
from spincactus.weights import Weight, w0_image


def test_xi_on_basic_crystal():
    c = SpinCrystal(2)
    cache = XiCache(c)
    # the two-element components swap under the involution
    assert cache.xi_word((3,)) == (0,)
    assert cache.xi_word((0,)) == (3,)
    assert cache.xi_word((1,)) == (2,)
    assert cache.xi_word((2,)) == (1,)


def test_xi_involution_and_weight_rule():
    for n in (2, 3):
        c = SpinCrystal(n)
        cache = XiCache(c)
        for big_n in (1, 2, 3, 4):
            for w in c.all_words(big_n):
                image = cache.xi_word(w)
                assert cache.xi_word(image) == w
                assert c.word_weight(image) == w0_image(c.word_weight(w))


def test_xi_maps_top_to_bottom():
    c = SpinCrystal(3)
    cache = XiCache(c)
    for w in c.all_words(2):
        if c.is_highest_weight(w):
            assert cache.xi_word(w) == c.to_lowest_weight(w)


def test_commutor_fixes_multiplicity_free_component():
    # only one component of weight (1,1) lives in the square, so its top
    # word must return to itself
    c = SpinCrystal(2)
    cache = XiCache(c)
    top = (3, 3)
    assert cache.commutor(top, 1) == top


def test_commutor_involutive():
    for n in (2, 3):
        c = SpinCrystal(n)
        cache = XiCache(c)
        for w in c.all_words(2):
            assert cache.commutor(cache.commutor(w, 1), 1) == w


def test_commutor_is_crystal_morphism():
    c = SpinCrystal(2)
    cache = XiCache(c)
    for big_n, split in [(2, 1), (3, 1), (3, 2)]:
        for w in c.all_words(big_n):
            sw = cache.commutor(w, split)
            for i in (1, 2):
                down = c.tensor_f(i, w)
                image_down = c.tensor_f(i, sw)
                if down is None:
                    assert image_down is None
                else:
                    assert image_down == cache.commutor(down, split)


def test_commutor_morphism_sampled_rank_three():
    import random

    rng = random.Random(20240804)
    c = SpinCrystal(3)
    cache = XiCache(c)
    for _ in range(60):
        w = tuple(rng.randrange(8) for _ in range(2))
        sw = cache.commutor(w, 1)
        for i in (1, 2, 3):
            down = c.tensor_f(i, w)
            image_down = c.tensor_f(i, sw)
            if down is None:
                assert image_down is None
            else:
                assert image_down == cache.commutor(down, 1)


def test_coboundary_square():
    c = SpinCrystal(2)
    cache = XiCache(c)
    for w in c.all_words(3):
        path1 = cache.commutor(cache.sigma_pqr(w, 2, 3, 2), 1)
        path2 = cache.commutor(cache.sigma_pqr(w, 1, 2, 1), 2)
        assert path1 == path2
        assert path1 == cache.s_pq(w, 1, 3)


def test_sigma_disjoint_blocks_commute():
    c = SpinCrystal(2)
    cache = XiCache(c)
    for w in c.all_words(4):
        one = cache.sigma_pqr(cache.sigma_pqr(w, 1, 2, 1), 3, 4, 3)
        other = cache.sigma_pqr(cache.sigma_pqr(w, 3, 4, 3), 1, 2, 1)
        assert one == other
        assert c.word_weight(one) == c.word_weight(w)


def test_s_pq_identity_and_involution():
    c = SpinCrystal(2)
    cache = XiCache(c)
    for w in c.all_words(3):
        assert cache.s_pq(w, 2, 2) == w
    for big_n in (2, 3, 4):
        for w in c.all_words(big_n):
            for p in range(1, big_n + 1):
                for q in range(p + 1, big_n + 1):
                    assert cache.s_pq(cache.s_pq(w, p, q), p, q) == w


def test_nested_relation_on_words():
    c = SpinCrystal(2)
    cache = XiCache(c)
    big_n = 4
    pairs = [(p, q) for p in range(1, 5) for q in range(p + 1, 5)]
    for p, q in pairs:
        for k, l in pairs:
            if not (p <= k and l <= q):
                continue
            m, nn = p + q - l, p + q - k
            for w in c.all_words(big_n):
                lhs = cache.s_pq(cache.s_pq(w, k, l), p, q)
                rhs = cache.s_pq(cache.s_pq(w, p, q), m, nn)
                assert lhs == rhs


def test_parse_cactus_word():
    assert parse_cactus_word("s(1,3) s(2,4)") == [(1, 3), (2, 4)]
    assert parse_cactus_word("  ") == []
    with pytest.raises(ValidationError):
        parse_cactus_word("s(3,1)")
    with pytest.raises(ValidationError):
        parse_cactus_word("t(1,2)")


def test_act_on_table():
    c = SpinCrystal(2)
    cache = XiCache(c)
    lam = Weight((2, 0))
    tables = enumerate_tables(diagram_of_weight(lam, 2))
    for t in tables:
        assert act_on_table(cache, [], t) == t
        double = act_on_table(cache, [(1, 2), (1, 2)], t)
        assert double == t
    # a single-table shape is fixed by everything
    only = enumerate_tables(diagram_of_weight(Weight((2, 2)), 2))
    assert act_on_table(cache, [(1, 2)], only[0]) == only[0]


def test_generators_permute_each_table_set():
    c = SpinCrystal(2)
    cache = XiCache(c)
    big_n = 4
    gens = [(p, q) for p in range(1, 5) for q in range(p + 1, 5)]
    for lam in enumerate_delta(2, big_n):
        tables = enumerate_tables(diagram_of_weight(lam, big_n))
        for gen in gens:
            image = [act_on_table(cache, [gen], t) for t in tables]
            assert sorted(t.flat2() for t in image) == sorted(t.flat2() for t in tables)


def test_full_reversal_squared_is_identity_on_tables():
    for n in (2, 3):
        c = SpinCrystal(n)
        cache = XiCache(c)
        for big_n in (2, 3, 4):
            for lam in enumerate_delta(n, big_n):
                for t in enumerate_tables(diagram_of_weight(lam, big_n)):
                    once = act_on_table(cache, [(1, big_n)], t)
                    assert act_on_table(cache, [(1, big_n)], once) == t


def test_orbits_partition_table_set():
    c = SpinCrystal(2)
    cache = XiCache(c)
    big_n = 4
    gens = [(p, q) for p in range(1, 5) for q in range(p + 1, 5)]
    for lam in enumerate_delta(2, big_n):
        tables = enumerate_tables(diagram_of_weight(lam, big_n))
        seen = set()
        total = 0
        for t in tables:
            if t in seen:
                continue
            orb = orbit(cache, t, gens)
            assert not (seen & set(orb))
            seen |= set(orb)
            total += len(orb)
        assert total == len(tables)
        for t in tables:
            assert orbit(cache, t, []) == [t]


def test_word_to_permutation():
    assert word_to_permutation([(1, 2)], 2) == (2, 1)
    assert word_to_permutation([(1, 3)], 3) == (3, 2, 1)
    lhs = word_to_permutation([(1, 4), (2, 3), (1, 4)], 4)
    rhs = word_to_permutation([(2, 3)], 4)
    assert lhs == rhs


def test_apply_cactus_word_rightmost_first():
    c = SpinCrystal(2)
    cache = XiCache(c)
    for w in c.all_words(3):
        combo = apply_cactus_word(cache, [(1, 2), (2, 3)], w)
        stepwise = cache.s_pq(cache.s_pq(w, 2, 3), 1, 2)
        assert combo == stepwise


def test_worked_example_full_reversal():
    # the length-7 rank-4 table: xi walks one path per call and never builds
    # a component, so the reversal needs no budget
    from spincactus.celldiag import table_from_steps
    from test_celldiag import WORKED_STEPS

    t = table_from_steps([Weight(s) for s in WORKED_STEPS])
    cache = XiCache(SpinCrystal(4))
    moved = act_on_table(cache, [(1, 7)], t)
    assert moved.shape() == t.shape()
    assert act_on_table(cache, [(1, 7)], moved) == t


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 4)])
def test_path_xi_matches_table_reference(n, big_n_max):
    c = SpinCrystal(n)
    cache, reference = XiCache(c), XiTableReference(c)
    for big_n in range(1, big_n_max + 1):
        for w in c.all_words(big_n):
            assert cache.xi_word(w) == reference.xi_word(w)


@pytest.mark.parametrize("n, big_n_max", [(2, 5), (3, 4)])
def test_closed_form_s_pq_matches_recursion(n, big_n_max):
    c = SpinCrystal(n)
    cache, reference = XiCache(c), XiTableReference(c)
    for big_n in range(1, big_n_max + 1):
        for w in c.all_words(big_n):
            for p in range(1, big_n + 1):
                for q in range(p, big_n + 1):
                    assert cache.s_pq(w, p, q) == reference.s_pq(w, p, q)


@pytest.mark.parametrize("n", range(2, 8))
def test_xi_on_one_factor_is_a_bit_flip(n):
    # w0 on a spinor weight: every sign flips at even rank, all but the last at odd rank
    c = SpinCrystal(n)
    cache = XiCache(c)
    flip = (1 << (n if n % 2 == 0 else n - 1)) - 1
    assert c.flip == flip
    for b in c.elements():
        assert cache.xi_word((b,)) == (b ^ flip,)
        assert c.element_weight(b ^ flip) == w0_image(c.element_weight(b))


def test_bottom_word_memo_is_bounded_and_answer_neutral():
    c = SpinCrystal(3)
    memo, kept, reference = XiCache(c, 0), XiCache(c), XiTableReference(c)
    for big_n in range(1, 5):
        for w in c.all_words(big_n):
            expected = XiCache(c).xi_word(w)
            assert memo.xi_word(w) == kept.xi_word(w) == reference.xi_word(w) == expected
            assert len(memo._bottoms) <= 1
            for p in range(1, big_n + 1):
                for q in range(p, big_n + 1):
                    expected = XiCache(c).s_pq(w, p, q)
                    assert memo.s_pq(w, p, q) == reference.s_pq(w, p, q) == expected
    assert len(memo._bottoms) == 1
    # one bottom word per top of the components met, n=3 and N=1..4
    assert len(kept._bottoms) == sum(len(c.highest_weight_words(big_n)) for big_n in range(1, 5))
