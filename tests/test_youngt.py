from itertools import product

import pytest

from spincactus import youngt
from spincactus.celldiag import (
    diagram_of_weight,
    enumerate_delta,
    enumerate_tables,
    table_from_steps,
)
from spincactus.errors import ValidationError
from spincactus.suites import (
    _all_syd,
    j_inverse_reference,
    j_map_reference,
    y_inverse_reference,
    y_map_reference,
)
from spincactus.weights import OrthWeight, Weight
from spincactus.youngt import (
    GTPattern,
    SSYTable,
    ShortYoungDiagram,
    _associate_rows,
    _child_ranges,
    _enter_step,
    _growing_signs,
    _interlacing_children,
    _rows_from_columns,
    _step_memo,
    _strip,
    associated,
    branch_syd,
    count_sssyt,
    enumerate_gtp,
    enumerate_sssyt,
    f_inverse,
    f_map,
    interlaces,
    is_self_associated,
    j_inverse,
    j_map,
    shorter,
    syd_to_orthweight,
    y_inverse,
    y_map,
)

from test_celldiag import WORKED_STEPS


def syd(rows, big_n, n):
    return ShortYoungDiagram(tuple(rows), big_n, n)


def test_syd_invariants():
    with pytest.raises(ValidationError):
        syd((1, 2), 4, 4)  # not decreasing
    with pytest.raises(ValidationError):
        syd((5,), 4, 4)  # too wide
    with pytest.raises(ValidationError):
        syd((2, 2, 2), 4, 4)  # columns 3 + 3 > 4
    empty = syd((), 3, 2)
    assert empty.columns() == () and empty.size() == 0


def test_f_map_worked_examples():
    d = diagram_of_weight(Weight((3, 1, 1, -1)), 7)
    v = f_map(d)
    assert v.columns() == (4, 3, 3, 2)
    assert v.rows == (4, 4, 3, 1)

    d5 = diagram_of_weight(Weight((6, 4, 2, 2, -2)), 6)
    v5 = f_map(d5)
    assert v5.columns() == (2, 2, 2, 1)
    assert v5.rows == (4, 3)

    d4 = diagram_of_weight(Weight((2, 2, 2, 0)), 4)
    v4 = f_map(d4)
    assert v4.columns() == (2, 1, 1, 1)
    assert v4.rows == (4, 1)


def test_f_inverse_worked_examples():
    v = syd((4, 1), 4, 4)
    d = f_inverse(v)
    assert d.r == (3, 3, 3, 2) and d.l == (1, 1, 1, 2)
    assert f_map(d) == v

    assert f_inverse(syd((4, 3), 6, 5)) == diagram_of_weight(Weight((6, 4, 2, 2, -2)), 6)

    # empty diagram forces the all-right diagram
    empty = syd((), 4, 4)
    d0 = f_inverse(empty)
    assert d0.r == (4, 4, 4, 4) and d0.l == (0, 0, 0, 0)

    assert f_inverse(syd((4, 1, 1, 1, 1), 6, 4)) == diagram_of_weight(
        Weight((4, 4, 4, -4)), 6
    )


def test_associated_and_shorter():
    v = syd((4, 1), 4, 4)
    assert is_self_associated(v)
    assert associated(v) == v
    assert shorter(v) == v

    w = syd((2, 1), 3, 4)
    assert associated(w).rows == (2,)
    assert associated(associated(w)) == w
    assert shorter(w).rows == (2,)
    assert shorter(shorter(w)) == shorter(w)

    empty = syd((), 5, 3)
    assert associated(empty).rows == (1, 1, 1, 1, 1)

    assert shorter(syd((4, 3), 6, 5)).rows == (4, 3)


def test_self_associated_iff_half_column():
    for big_n in range(0, 7):
        for v in _all_syd(3, big_n):
            assert is_self_associated(v) == (2 * v.col(1) == big_n)
            assert associated(associated(v)) == v


def test_syd_to_orthweight():
    assert syd_to_orthweight(syd((4, 1), 4, 4), 4).coords2 == (8, 2)
    assert syd_to_orthweight(syd((4, 1), 4, 4), 4, -1).coords2 == (8, -2)
    assert syd_to_orthweight(syd((), 5, 4), 5).coords2 == (0, 0)
    assert syd_to_orthweight(syd((2,), 3, 4), 3).coords2 == (4,)
    with pytest.raises(ValidationError):
        syd_to_orthweight(syd((1, 1, 1), 4, 4), 4)  # first column too long
    with pytest.raises(ValidationError):
        syd_to_orthweight(syd((2,), 4, 4), 4, -1)  # not enough nonzero rows


# the branching chains of Molev (arXiv math/0211289) written out per rank k,
# for beta = (b1, b2, ...) at rank k and mu = (m1, m2, ...) at rank k - 1
BRANCHING_CHAINS = {
    4: lambda b, m: b[0] >= m[0] >= abs(b[1]),
    5: lambda b, m: b[0] >= m[0] >= b[1] >= abs(m[1]),
    6: lambda b, m: b[0] >= m[0] >= b[1] >= m[1] >= abs(b[2]),
    7: lambda b, m: b[0] >= m[0] >= b[1] >= m[1] >= b[2] >= abs(m[2]),
}


def test_branching_rule_matches_chains():
    # every row with doubled entries of one parity in -6..6, dominant or not;
    # the children of beta are the interlacing rows of the box, descending
    for k, chain in BRANCHING_CHAINS.items():
        for parity in (0, 1):
            box = range(-6 + parity, 7, 2)
            rows_below = list(product(box, repeat=(k - 1) // 2))
            weights_below = [OrthWeight(m, k - 1) for m in rows_below]
            for b in product(box, repeat=k // 2):
                beta = OrthWeight(b, k)
                for m, mu in zip(rows_below, weights_below):
                    assert interlaces(beta, mu) == chain(b, m), (b, m)
                below = sorted((m for m in rows_below if chain(b, m)), reverse=True)
                assert [c.coords2 for c in _interlacing_children(beta)] == below


def test_interlaces():
    assert interlaces(OrthWeight((8, -2), 4), OrthWeight((4,), 3))
    assert interlaces(OrthWeight((0, 0), 4), OrthWeight((0,), 3))
    assert interlaces(OrthWeight((8, 2), 5), OrthWeight((2, 2), 4))
    assert not interlaces(OrthWeight((8, 2), 5), OrthWeight((10, 0), 4))
    with pytest.raises(ValidationError):
        interlaces(OrthWeight((8, 2), 5), OrthWeight((2,), 3))


def test_strip_is_the_contains_and_pad_rule():
    # every pair of partitions of width <= 4 and length <= 5, against the rule as
    # horizontal_strip_over stated it: containment, then the zero-padded smaller rows
    # bounding the next row of the bigger one
    parts = [p for length in range(6) for p in product(range(4, 0, -1), repeat=length)
             if list(p) == sorted(p, reverse=True)]
    assert len(parts) == 126
    strips = 0
    for big in parts:
        for small in parts:
            contains = len(small) <= len(big) and all(s <= b for b, s in zip(big, small))
            padded = small + (0,) * (len(big) - len(small))
            want = contains and all(padded[i] >= big[i + 1] for i in range(len(big) - 1))
            assert _strip(big, small) is want, (big, small)
            strips += want
    assert 0 < strips < len(parts) ** 2


def test_branch_listed_eight():
    got = branch_syd(syd((4, 1), 4, 4))
    assert [v.rows for v in got] == [
        (4, 1),
        (4,),
        (3, 1),
        (3,),
        (2, 1),
        (2,),
        (1, 1),
        (1,),
    ]


def test_branch_five_term_example():
    got = {v.rows for v in branch_syd(syd((4, 1, 1, 1, 1), 6, 4))}
    assert got == {
        (4, 1, 1, 1),
        (3, 1, 1, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1),
        (1, 1, 1, 1, 1),
    }


def test_branch_empty():
    assert [v.rows for v in branch_syd(syd((), 3, 2))] == [()]


def test_branch_matches_weight_side():
    # the two branching routes commute: partitions below nu match the
    # member weights one step down shifted by sign vectors
    for n in (2, 3):
        for big_n in (2, 3, 4, 5):
            for lam in enumerate_delta(n, big_n):
                nu = f_map(diagram_of_weight(lam, big_n))
                via_partitions = sorted(v.rows for v in branch_syd(nu))
                via_weights = sorted(
                    f_map(diagram_of_weight(mu, big_n - 1)).rows
                    for mu in enumerate_delta(n, big_n - 1)
                    if all(
                        abs(a - b) == 1 for a, b in zip(lam.coords2, mu.coords2)
                    )
                )
                assert via_partitions == via_weights


@pytest.mark.parametrize(
    "record",
    [
        {"rows": [1], "N": 2.5, "n": 4.0},  # fractional height
        {"rows": [1], "N": True, "n": 4},  # a boolean is not a height
    ],
)
def test_syd_from_json_rejects_non_integer_dims(record):
    with pytest.raises(ValidationError):
        ShortYoungDiagram.from_json(record)


def test_syd_json_round_trip():
    v = syd((2, 1), 4, 3)
    assert ShortYoungDiagram.from_json(v.to_json()) == v


def test_sssyt_chain_validation():
    with pytest.raises(ValidationError, match="horizontal"):
        SSYTable((syd((), 1, 2), syd((1, 1), 2, 2)))
    one = enumerate_sssyt(syd((1,), 1, 3))
    assert len(one) == 1

    # vertical domino forces the middle step
    chains = enumerate_sssyt(syd((), 2, 2))
    assert len(chains) == 1
    assert [v.rows for v in chains[0].chain] == [(), ()]


def test_sssyt_counts_match_tables():
    for n in (2, 3):
        for big_n in range(1, 6):
            for lam in enumerate_delta(n, big_n):
                shape = diagram_of_weight(lam, big_n)
                nu = f_map(shape)
                n_tables = len(enumerate_tables(shape))
                assert n_tables == len(enumerate_sssyt(nu)) == count_sssyt(nu)


def test_y_map_worked_example():
    t = table_from_steps([Weight(s) for s in WORKED_STEPS])
    s = y_map(t)
    assert s.shape.rows == (4, 4, 3, 1)
    assert y_inverse(s) == t


def test_y_map_single_step():
    even = y_map(table_from_steps([Weight((1, 1))]))
    assert even.chain[0].rows == ()
    odd = y_map(table_from_steps([Weight((1, 1, 1))]))
    assert odd.chain[0].rows == (1,)


def test_y_map_bijective_small():
    for n in (2, 3):
        for big_n in range(1, 6):
            for lam in enumerate_delta(n, big_n):
                shape = diagram_of_weight(lam, big_n)
                tables = enumerate_tables(shape)
                images = {y_map(t) for t in tables}
                assert len(images) == len(tables)
                assert images == set(enumerate_sssyt(f_map(shape)))
                for t in tables:
                    assert y_inverse(y_map(t)) == t


@pytest.mark.parametrize("n,big_n", [(n, big_n) for n in (2, 3, 4) for big_n in range(1, 7)])
def test_maps_match_the_composed_references(n, big_n):
    # y_map and y_inverse read columns off the steps and j_map reads rows off the levels;
    # the references compose f_map, f_inverse, diagram chains and syd_to_orthweight. Level
    # k of a reference reads only the prefix sum at k (y_map), or the rows of levels k-1
    # and k (y_inverse, and the rank-k row of j_map; its z reads levels 1 and 2), so each
    # distinct level is computed once, as the last level of the reference on the first
    # prefix that holds it. The first table and chain of each shape are compared whole
    memo = {}

    def once(key, level):
        if key not in memo:
            memo[key] = level()
        return memo[key]

    for lam in enumerate_delta(n, big_n):
        shape = diagram_of_weight(lam, big_n)
        tables = enumerate_tables(shape)
        assert y_map(tables[0]) == y_map_reference(tables[0])
        for t in tables:
            total, levels = (0,) * n, []
            for k, mu in enumerate(t.steps, 1):
                total = tuple(a + c for a, c in zip(total, mu.coords2))
                levels.append(once((k, total), lambda: y_map_reference(t.prefix(k)).chain[-1]))
            assert y_map(t).chain == tuple(levels), t
        chains = enumerate_sssyt(f_map(shape))
        assert y_inverse(chains[0]) == y_inverse_reference(chains[0])
        if big_n >= 3:
            assert j_map(chains[0]) == j_map_reference(chains[0])
        for s in chains:
            rows = [v.rows for v in s.chain]

            def prefix(k):
                return SSYTable(s.chain[:k])

            steps = tuple(once(("y", k) + tuple(rows[max(k - 2, 0):k]),
                               lambda: y_inverse_reference(prefix(k)).steps[-1])
                          for k in range(1, big_n + 1))
            assert y_inverse(s).steps == steps, s
            if big_n >= 3:
                betas = tuple(once(("j", k, rows[k - 2], rows[k - 1]),
                                   lambda: j_map_reference(prefix(k)).betas[0])
                              for k in range(big_n, 2, -1))
                z = once(("z", rows[0], rows[1]), lambda: j_map_reference(prefix(3)).z)
                p = j_map(s)
                assert (p.betas, p.z) == (betas, z), s


def test_j_map_hand_example():
    chain = SSYTable(
        (syd((1,), 1, 4), syd((2,), 2, 4), syd((2, 1), 3, 4), syd((4, 1), 4, 4))
    )
    p = j_map(chain)
    assert [b.coords2 for b in p.betas] == [(8, -2), (4,)]
    assert p.z == -2


def test_j_map_all_empty_chain():
    chain = SSYTable(tuple(syd((), k, 2) for k in range(1, 5)))
    p = j_map(chain)
    assert [b.coords2 for b in p.betas] == [(0, 0), (0,)]
    assert p.z == 0


def test_j_map_single_cell_chain():
    chain = SSYTable(tuple(syd((1,), k, 4) for k in range(1, 5)))
    p = j_map(chain)
    assert [b.coords2 for b in p.betas] == [(2, 0), (2,)]
    assert p.z == -1


def test_j_map_requires_three_levels():
    with pytest.raises(ValidationError):
        j_map(SSYTable((syd((), 1, 2), syd((), 2, 2))))


def test_j_round_trip_exhaustive():
    # every chain comes back from its pattern; a shape and its associate share
    # their patterns (the top row records the shorter one), and every pattern
    # of any other shape at the same (n, N) is rejected
    for n in (2, 3):
        for big_n in (3, 4, 5):
            shapes = [f_map(diagram_of_weight(lam, big_n)) for lam in enumerate_delta(n, big_n)]
            patterns = {nu: enumerate_gtp(nu) for nu in shapes}
            for nu in shapes:
                chains = enumerate_sssyt(nu)
                assert len(chains) == len(patterns[nu])
                images = set()
                for s in chains:
                    p = j_map(s)
                    images.add(p)
                    assert j_inverse(p, nu) == s
                assert images == set(patterns[nu])
                for other in shapes:
                    if shorter(other) == shorter(nu):
                        assert patterns[other] == patterns[nu]
                        continue
                    for p in patterns[other]:
                        with pytest.raises(ValidationError):
                            j_inverse(p, nu)


def test_enumerators_generate_in_descending_order():
    for n in (2, 3, 4):
        for big_n in range(1, 7):
            for lam in enumerate_delta(n, big_n):
                nu = f_map(diagram_of_weight(lam, big_n))
                branched = [v.rows for v in branch_syd(nu)]
                assert branched == sorted(branched, reverse=True)
                chains = [tuple(v.rows for v in s.chain) for s in enumerate_sssyt(nu)]
                assert chains == sorted(chains, reverse=True)
                if big_n >= 3:
                    keys = [
                        (tuple(b.coords2 for b in p.betas), p.z) for p in enumerate_gtp(nu)
                    ]
                    assert keys == sorted(keys, reverse=True)


def test_enumerate_gtp_counts():
    assert len(enumerate_gtp(syd((), 4, 2))) == 1
    nu = syd((4, 1), 4, 4)
    assert len(enumerate_gtp(nu)) == len(enumerate_sssyt(nu))


def test_gtp_validation():
    with pytest.raises(ValidationError):
        GTPattern((OrthWeight((2, 0), 4), OrthWeight((4,), 3)), 0)  # no interlacing
    with pytest.raises(ValidationError):
        GTPattern((OrthWeight((2, 0), 4), OrthWeight((2,), 3)), 4)  # z too large
    p = GTPattern((OrthWeight((8, -2), 4), OrthWeight((4,), 3)), -2)
    assert GTPattern.from_json(p.to_json()) == p


def _outcome(inverse, p, v):
    try:
        return inverse(p, v)
    except ValidationError as exc:
        return str(exc)


def _all_patterns(tops):
    """Every valid pattern under the given top rows: each coordinate of a lower row steps
    by 1 through its interlacing bounds, so rows of either parity occur."""
    stacks = [(top,) for top in tops]
    for _ in range(tops[0].k - 3):
        stacks = [chain + (OrthWeight(row, chain[-1].k - 1),) for chain in stacks
                  for row in product(*(range(hi, lo - 1, -1)
                                       for lo, hi in _child_ranges(chain[-1])))]
    return [GTPattern(chain, z) for chain in stacks
            for z in range(chain[-1].coords2[0] // 2, -(chain[-1].coords2[0] // 2) - 1, -1)]


@pytest.mark.parametrize("big_n", [3, 4, 5, 6])
def test_j_inverse_matches_the_reference_on_every_pair(big_n):
    # patterns: the images of every shape of width n <= 4, and at N <= 5 every valid
    # pattern under their top rows; shapes: every shape of width n <= 4. Both forms refuse
    # a shape its top row cannot encode (neither |beta_N|/2 nor its associate) before they
    # read another row, so such pairs are compared once per top row; all others in full
    shapes = [v for n in (2, 3, 4) for v in _all_syd(n, big_n)]
    patterns = dict.fromkeys(p for v in shapes for p in enumerate_gtp(v))
    if big_n <= 5:
        tops = list(dict.fromkeys(p.betas[0] for p in patterns))
        patterns.update(dict.fromkeys(_all_patterns(tops)))
    by_top = {}
    for p in patterns:
        by_top.setdefault(p.betas[0].coords2, []).append(p)
    outcomes = []
    for top, group in by_top.items():
        readings = set()
        if not any(c % 2 for c in top):
            encoded = syd([abs(c) // 2 for c in top if c], big_n, 4)
            readings = {encoded.rows, associated(encoded).rows}
        for v in shapes:
            for p in group if v.rows in readings else group[:1]:
                got = _outcome(j_inverse, p, v)
                assert got == _outcome(j_inverse_reference, p, v), (p, v)
                outcomes.append(got if isinstance(got, str) else "found")
    assert outcomes.count("found") == sum(len(enumerate_gtp(v)) for v in shapes)
    if big_n in (4, 5):  # patterns outside the image pass the top row and fail below it
        assert "pattern is not in the image of the chain bijection" in outcomes


def test_j_inverse_rejects_foreign_pattern():
    nu = syd((4, 1), 4, 4)
    with pytest.raises(ValidationError):
        j_inverse(GTPattern((OrthWeight((2, 0), 4), OrthWeight((2,), 3)), 0), nu)


def test_round_trips_sampled_large():
    # spot checks beyond the exhaustive ranges
    import random

    from spincactus.celldiag import steps_from_diagram_chain

    rng = random.Random(20240805)
    for n, big_n in [(3, 6), (4, 5), (4, 6)]:
        lams = enumerate_delta(n, big_n)
        for lam in rng.sample(lams, min(4, len(lams))):
            shape = diagram_of_weight(lam, big_n)
            tables = enumerate_tables(shape)
            nu = f_map(shape)
            assert len(tables) == count_sssyt(nu)
            for t in rng.sample(tables, min(5, len(tables))):
                assert steps_from_diagram_chain(t.diagram_chain()) == t
                s = y_map(t)
                assert y_inverse(s) == t
                p = j_map(s)
                assert j_inverse(p, nu) == s


@pytest.mark.parametrize("n", range(2, 9))
def test_step_memo_grows_exactly_the_mask(monkeypatch, n):
    # bit i of a mask is step coordinate i; the step it names has the growing sign there
    # and the opposite sign elsewhere, and its grown coordinates give the mask back
    monkeypatch.setattr(youngt, "_STEP_MEMO", {})
    signs = _growing_signs(n)
    for mask in range(1 << n):
        step, grown = _enter_step(n, mask)
        steps, grown_of = _step_memo(n)
        assert steps[mask] is step and grown_of[step.coords2] == grown
        assert {abs(c) for c in step.coords2} == {1}
        assert {i for i, c in enumerate(step.coords2) if c == signs[i]} == set(grown)
        assert list(grown) == sorted(grown) and sum(1 << i for i in grown) == mask
    assert len(steps) == len(grown_of) == 1 << n


def test_step_memo_holds_at_most_the_rank_steps(monkeypatch):
    monkeypatch.setattr(youngt, "_STEP_MEMO", {})
    for n, big_n in ((3, 6), (4, 5)):
        for lam in enumerate_delta(n, big_n):
            for t in enumerate_tables(diagram_of_weight(lam, big_n)):
                assert y_inverse(y_map(t)) == t
    assert sorted(youngt._STEP_MEMO) == [3, 4]
    for n, (steps, grown_of) in youngt._STEP_MEMO.items():
        assert 0 < len(steps) <= 1 << n and 0 < len(grown_of) <= 1 << n
        assert {step.coords2 for step in steps.values()} == set(grown_of)


def test_associate_rows_slice_matches_the_definition():
    for big_n in range(10):
        for n in range(2, 6):
            for v in _all_syd(n, big_n):
                rows = v.rows
                wide = tuple(x for x in rows if x > 1)
                filtered = wide + (1,) * (big_n - len(rows) - len(wide))
                # the first column becomes big_n minus itself, the others stay
                cols = (big_n - len(rows),) + v.columns()[1:]
                assert _associate_rows(rows, big_n) == filtered == associated(v).rows
                assert filtered == _rows_from_columns(cols), v
