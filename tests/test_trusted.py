"""Records the package builds for itself skip re-validation (`weights.trusted`); records
from outside are validated. These tests hold both halves: every trusted record equals
its rebuild through the validating constructors, the rules that replaced a
try/except give the lists the try/except gave, and the validating sites still
validate, with the same messages."""

import dataclasses
import re
from itertools import product

import pytest

from spincactus.cactus import XiCache, word_to_permutation
from spincactus.celldiag import (
    CellDiagram,
    CellTable,
    diagram_of_weight,
    enumerate_delta,
    enumerate_tables,
    steps_from_diagram_chain,
)
from spincactus.clifford import ExteriorAlgebra
from spincactus.crystal import SpinCrystal
from spincactus.errors import ValidationError
from spincactus.weights import OrthWeight, Weight, spinor_weights, trusted
from spincactus.youngt import (
    GTPattern,
    SSYTable,
    ShortYoungDiagram,
    _associate_rows,
    _reading,
    associated,
    branch_syd,
    enumerate_gtp,
    enumerate_sssyt,
    f_inverse,
    f_map,
    interlaces,
    j_inverse,
    j_map,
    shorter,
    syd_to_orthweight,
    y_inverse,
    y_map,
)

RECORDS = (Weight, OrthWeight, CellDiagram, CellTable, ShortYoungDiagram, SSYTable, GTPattern)


def rebuild(x):
    """x rebuilt bottom up through the validating constructors."""
    if dataclasses.is_dataclass(x):
        return type(x)(*(rebuild(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, tuple):
        return tuple(rebuild(y) for y in x)
    return x


def assert_valid(record):
    assert rebuild(record) == record, record


def all_syd(n, big_n):
    """Every member of SYD(big_n, n), listed from the definition."""
    out = []
    for first_col in range(big_n + 1):
        for rows in product(range(n, 0, -1), repeat=first_col):
            if list(rows) == sorted(rows, reverse=True):
                if first_col + sum(1 for x in rows if x > 1) <= big_n:
                    out.append(ShortYoungDiagram(rows, big_n, n))
    return out


def test_trusted_skips_post_init_and_keeps_the_record_frozen():
    w = trusted(Weight, (1, -1))
    assert w == Weight((1, -1)) and hash(w) == hash(Weight((1, -1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.coords2 = (1, 1)
    assert trusted(Weight, (1,)).coords2 == (1,)  # no rank check: the caller vouches


def test_trusted_refuses_a_wrong_number_of_fields():
    # one builder per class: each unpacks exactly its fields and keeps the record frozen
    s = y_map(WORKED)
    examples = (WORKED.steps[0], OrthWeight((4, 2), 5), WORKED.shape(), WORKED, s.shape, s,
                j_map(s))
    assert tuple(map(type, examples)) == RECORDS
    for record in examples:
        cls, fields = type(record), dataclasses.fields(record)
        values = [getattr(record, f.name) for f in fields]
        with pytest.raises(ValueError):
            trusted(cls, *values[:-1])  # one value too few
        with pytest.raises(ValueError):
            trusted(cls, *values, values[-1])  # one value too many
        built = trusted(cls, *values)
        assert type(built) is cls and built == record and hash(built) == hash(record)
        assert rebuild(built) == built and hash(rebuild(built)) == hash(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, fields[0].name, values[0])


# -- every trusted record equals its validated rebuild ---------------------------


@pytest.mark.parametrize("n,big_n", [(n, big_n) for n in (2, 3, 4) for big_n in range(1, 6)])
def test_trusted_records_equal_their_validated_rebuild(n, big_n):
    for lam in enumerate_delta(n, big_n):
        shape = diagram_of_weight(lam, big_n)
        tables = enumerate_tables(shape)
        for t in tables:
            assert_valid(t)
            assert_valid(t.weight())
        nu = f_map(shape)
        chains = enumerate_sssyt(nu)
        assert len(chains) == len(tables)
        for s in chains:
            assert_valid(s)
            for v in s.chain:
                assert_valid(associated(v))
                assert_valid(f_inverse(v))
                if v.N >= 1:
                    for rho in branch_syd(v):
                        assert_valid(rho)
        assert f_inverse(nu) == shape
        if big_n >= 3:
            patterns = enumerate_gtp(nu)
            assert len(patterns) == len(tables)
            for p in patterns:
                assert_valid(p)
                back = j_inverse(p, nu)
                assert_valid(back)
                assert back in chains


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trusted_syd_helpers_equal_their_validated_rebuild(n):
    for big_n in range(0, 7):
        for v in all_syd(n, big_n):
            assert_valid(associated(v))
            assert_valid(shorter(v))
            if big_n >= 1:
                assert_valid(f_inverse(v))
            for k in range(max(1, 2 * len(v.rows)), big_n + 2):
                assert_valid(syd_to_orthweight(v, k))
            if big_n % 2 == 0 and 2 * len(v.rows) == big_n and big_n:
                assert_valid(syd_to_orthweight(v, big_n, -1))


# -- the rules that replaced a try/except, against the parent's try/except -----------


def oracle_branch_syd(v):
    if v.N < 1:
        raise ValidationError("cannot branch below height 0")
    rows = v.rows
    out = []
    for cand in product(*(range(hi, lo - 1, -1) for hi, lo in zip(rows, rows[1:] + (0,)))):
        try:
            out.append(ShortYoungDiagram(tuple(x for x in cand if x > 0), v.N - 1, v.n))
        except ValidationError:
            pass
    return out


def oracle_associated(v):
    cols = [sum(1 for x in v.rows if x >= j) for j in range(1, v.n + 1)]
    cols[0] = v.N - cols[0]
    rows = tuple(r for r in (sum(1 for c in cols if c >= i) for i in range(1, v.N + 1)) if r)
    return ShortYoungDiagram(rows, v.N, v.n)


def oracle_candidates(p, k):
    if k >= 3:
        coords2 = p.betas[p.top_rank - k].coords2
        if any(c % 2 for c in coords2):
            return []
        return [tuple(abs(c) // 2 for c in coords2 if c)]
    if k == 2:
        return [(abs(p.z),)] if p.z else [(), (1, 1)]
    return [(1,)] if p.z < 0 else [(), (1,)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_branch_syd_lists_what_the_try_except_listed(n):
    for big_n in range(1, 8):
        for v in all_syd(n, big_n):
            assert branch_syd(v) == oracle_branch_syd(v), v
    with pytest.raises(ValidationError, match="^cannot branch below height 0$"):
        branch_syd(ShortYoungDiagram((), 0, n))


def _patterns():
    """Patterns of every shape with n <= 3, N <= 6 and n = 4, N <= 5, and a few with
    odd coordinates."""
    for n, big_n in [(n, big_n) for n in (2, 3) for big_n in (3, 4, 5, 6)] + [(4, 3), (4, 4), (4, 5)]:
        for v in all_syd(n, big_n):
            yield from enumerate_gtp(v)
    for betas2, z in (([[1, 1], [1]], 0), ([[1, -1], [1]], 0), ([[3, 1], [3, 1], [1]], 0)):
        yield GTPattern.from_json({"betas2": betas2, "z": z})


def test_readings_are_the_candidates_and_their_associate():
    # a level's readings depend on beta_k alone at k >= 3 and on z below: one pattern per
    # input. The try/except listed the candidates; the other reading is the associate of the
    # first at every level (at k = 1 that of (1,) is (), a reading no rule picks)
    levels = {}
    for p in _patterns():
        for k in range(p.top_rank, 0, -1):
            levels.setdefault((k, p.betas[p.top_rank - k] if k >= 3 else p.z), p)
    odd = 0
    for (k, _), p in levels.items():
        candidates = oracle_candidates(p, k)
        want = None
        if candidates:
            rows = candidates[0]
            want = (rows, oracle_associated(ShortYoungDiagram(rows, k, max((2,) + rows[:1]))).rows)
            if k < 3:
                assert want[1] in candidates or candidates == [(1,)], (p, k)
        rows = _reading(p, k)
        assert (None if rows is None else (rows, _associate_rows(rows, k))) == want, (p, k)
        odd += want is None
    assert odd  # some levels have an odd coordinate and no reading


# -- the sites that still validate ---------------------------------------------------


@pytest.fixture
def validations(monkeypatch):
    """Counts __post_init__ runs per record class."""
    counts = dict.fromkeys((cls.__name__ for cls in RECORDS), 0)
    for cls in RECORDS:
        original = cls.__post_init__

        def counting(self, original=original, name=cls.__name__):
            counts[name] += 1
            return original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)

    def reset():
        for name in counts:
            counts[name] = 0
        return counts

    return reset


WORKED = CellTable.from_json({"steps2": [[1, 1, 1], [1, -1, -1], [1, 1, -1], [-1, 1, 1]]})


def test_boundary_sites_still_validate(validations):
    shape = WORKED.shape()
    nu = f_map(shape)
    s = y_map(WORKED)
    p = j_map(s)

    counts = validations()
    diagram_of_weight(WORKED.weight(), WORKED.length)
    assert counts["CellDiagram"] == 1

    counts = validations()
    f_map(shape)
    assert counts["ShortYoungDiagram"] == 1

    counts = validations()
    y_map(WORKED)
    assert counts["SSYTable"] == 1 and counts["ShortYoungDiagram"] == WORKED.length

    counts = validations()
    j_map(s)
    assert counts["GTPattern"] == 1

    counts = validations()
    steps_from_diagram_chain(WORKED.diagram_chain())
    assert counts["CellTable"] == 1

    counts = validations()
    y_inverse(s)
    assert counts["CellTable"] == 1

    counts = validations()
    j_inverse(p, nu)
    assert counts["GTPattern"] == 1  # the final j_map guard

    for cls, record in ((Weight, WORKED.steps[0]), (CellDiagram, shape), (CellTable, WORKED),
                        (ShortYoungDiagram, nu), (SSYTable, s), (GTPattern, p)):
        counts = validations()
        assert cls.from_json(record.to_json()) == record
        assert counts[cls.__name__] == 1, cls


def test_enumerators_and_inverse_maps_do_not_revalidate(validations):
    shape = WORKED.shape()
    nu = f_map(shape)
    p = j_map(y_map(WORKED))
    counts = validations()
    enumerate_tables(shape)
    enumerate_sssyt(nu)
    enumerate_gtp(nu)
    f_inverse(nu)
    associated(nu)
    # only Weights: enumerate_tables builds its pool of 2^n spinor steps
    assert {name for name, c in counts.items() if c} == {"Weight"}, counts
    j_inverse(p, nu)
    assert counts["SSYTable"] == counts["ShortYoungDiagram"] == 0, counts


def test_enumerate_sssyt_branches_each_distinct_diagram_once(monkeypatch):
    import spincactus.youngt as youngt

    calls, original = [], youngt.branch_syd

    def counting(v):
        calls.append((v.N, v.rows))
        return original(v)

    monkeypatch.setattr(youngt, "branch_syd", counting)
    for v in (ShortYoungDiagram((2, 2, 1), 6, 3), ShortYoungDiagram((3, 1), 7, 4)):
        calls.clear()
        chains = enumerate_sssyt(v)
        assert len(chains) > len(calls)
        assert sorted(calls) == sorted({(x.N, x.rows) for c in chains for x in c.chain if x.N > 1})


def test_bijection_maps_read_steps_and_rows_without_prefix_diagrams(validations):
    s = y_map(WORKED)
    counts = validations()
    y_map(WORKED)
    assert (counts["SSYTable"], counts["ShortYoungDiagram"]) == (1, WORKED.length), counts
    assert counts["CellDiagram"] == counts["Weight"] == 0, counts

    counts = validations()
    y_inverse(s)
    # the CellTable check covers every step, so the steps are built through trusted
    assert counts["CellTable"] == 1 and counts["CellDiagram"] == counts["Weight"] == 0, counts

    counts = validations()
    j_map(s)
    assert counts["GTPattern"] == 1 and counts["ShortYoungDiagram"] == 0, counts


INVALID = [
    (lambda: ShortYoungDiagram.from_json({"rows": [2, 3], "N": 4, "n": 4}),
     "rows must be weakly decreasing"),
    (lambda: ShortYoungDiagram.from_json({"rows": [2, 2, 1], "N": 3, "n": 4}),
     "first two columns sum to 5 > 3"),
    (lambda: ShortYoungDiagram.from_json({"rows": [3], "N": 3, "n": 2}),
     "at most 2 columns allowed, got 3"),
    (lambda: ShortYoungDiagram.from_json({"rows": [2, 0], "N": 3, "n": 2}),
     "row lengths must be positive (drop trailing zeros)"),
    (lambda: SSYTable.from_json({"chain": [[1], [2], [3]], "n": 2}),
     "at most 2 columns allowed, got 3"),
    (lambda: SSYTable.from_json({"chain": [[], [1], [1, 1], [2, 2]], "n": 2}),
     "entry 4 does not grow from entry 3 by a horizontal strip"),
    (lambda: GTPattern.from_json({"betas2": [[2, 2], [4]], "z": 0}),
     "rows at ranks 4, 3 do not interlace"),
    (lambda: GTPattern.from_json({"betas2": [[2, 2], [2]], "z": 2}),
     "the rank-3 row must dominate |z|"),
    (lambda: GTPattern.from_json({"betas2": [[2, 4], [2]], "z": 0}),
     "(2, 4) is not dominant for o_4"),
    (lambda: CellTable.from_json({"steps2": [[-1, 1]]}),
     "first step must be one of the two dominant spinor weights, got (-1/2, 1/2)"),
    (lambda: CellTable.from_json({"steps2": [[1, 1], [-1, 1]]}),
     "prefix sum at position 2 is not dominant"),
    (lambda: CellTable.from_json({"steps2": [[1, 1], [3, 1]]}),
     "step 2 is not a spinor weight: (3/2, 1/2)"),
    (lambda: CellDiagram.from_json({"l": [1, 0], "r": [0, 1]}),
     "r - l must be dominant: r weakly decreasing, r_{n-1} >= l_n"),
    (lambda: Weight.from_json([1]), "rank must be at least 2, got 1"),
    (lambda: diagram_of_weight(Weight((3, 1)), 1),
     "coordinate 3/2 of (3/2, 1/2) is outside [-1/2, 1/2]"),
    (lambda: diagram_of_weight(Weight((1, 3)), 3), "(1/2, 3/2) is not dominant"),
    (lambda: diagram_of_weight(Weight((1, 1)), 2),
     "coordinate 1/2 of (1/2, 1/2) has the wrong parity for length 2"),
    (lambda: f_inverse(ShortYoungDiagram((), 0, 2)), "tensor power must be positive, got 0"),
    (lambda: enumerate_sssyt(ShortYoungDiagram((), 0, 2)),
     "chain entry 1 has ambient height 0, expected 1"),
    (lambda: syd_to_orthweight(ShortYoungDiagram((), 0, 2), 0),
     "ambient rank must be positive, got 0"),
    (lambda: syd_to_orthweight(ShortYoungDiagram((1, 1), 4, 2), 3),
     "first column 2 exceeds 3/2; pass the shorter diagram"),
    (lambda: syd_to_orthweight(ShortYoungDiagram((1,), 4, 2), 4, -1),
     "sign -1 needs even ambient rank and exactly k/2 nonzero rows"),
    (lambda: syd_to_orthweight(ShortYoungDiagram((1,), 4, 2), 4, 2), "sign must be +1 or -1"),
    (lambda: steps_from_diagram_chain([CellDiagram((1, 1), (1, 1))]),
     "chain entry 1 has length 2, expected 1"),
    (lambda: j_map(SSYTable.from_json({"chain": [[], [1]], "n": 2})),
     "patterns are only defined for chains of length >= 3"),
    (lambda: j_inverse(GTPattern.from_json({"betas2": [[2], [2]], "z": 1}),
                       ShortYoungDiagram((1,), 5, 2)),
     "o_4 weights have 2 coordinates, got 1"),
    # each rule checked in one pass over the record's tuples: the entry named is the
    # first offending one, and a bad step wins over a bad prefix sum before it. Explicit
    # ids keep the ids of the cases above when a message repeats
    pytest.param(lambda: Weight.from_json([1, 1.5]), "expected an integer, got 1.5",
                 id="float-in-Weight"),
    pytest.param(lambda: Weight((1.5, True)), "expected an integer, got 1.5",
                 id="first-of-two-non-ints-in-Weight"),
    pytest.param(lambda: Weight((True,)), "expected an integer, got True", id="bool-in-Weight"),
    pytest.param(lambda: OrthWeight((2, 2.0), 4), "expected an integer, got 2.0",
                 id="float-in-OrthWeight"),
    pytest.param(lambda: OrthWeight((False,), 3), "expected an integer, got False",
                 id="bool-in-OrthWeight"),
    pytest.param(lambda: ShortYoungDiagram.from_json({"rows": [2, 1.0], "N": 4, "n": 4}),
                 "expected an integer, got 1.0", id="float-in-ShortYoungDiagram"),
    pytest.param(lambda: ShortYoungDiagram((True,), -1, 2), "expected an integer, got True",
                 id="bool-in-ShortYoungDiagram-before-its-height"),
    pytest.param(lambda: CellTable.from_json({"steps2": [[1, 1], [1, 1, 1]]}),
                 "all steps must share one rank", id="CellTable-step-of-another-rank"),
    pytest.param(lambda: CellTable.from_json({"steps2": [[1, 1], [-1, 1], [1, 1, 1]]}),
                 "all steps must share one rank", id="CellTable-bad-rank-after-bad-prefix"),
    pytest.param(lambda: CellTable.from_json({"steps2": [[-1, 1], [3, 1]]}),
                 "step 2 is not a spinor weight: (3/2, 1/2)",
                 id="CellTable-bad-step-after-bad-first-step"),
    pytest.param(lambda: CellTable.from_json(
                     {"steps2": [[1, 1], [1, -1], [-1, 1], [-1, 1], [-1, -1]]}),
                 "prefix sum at position 4 is not dominant",
                 id="CellTable-first-of-two-bad-prefixes"),
    pytest.param(lambda: SSYTable.from_json({"chain": [[1], [], [1]], "n": 2}),
                 "entry 2 does not grow from entry 1 by a horizontal strip",
                 id="SSYTable-strip-at-first-level"),
    pytest.param(lambda: SSYTable.from_json({"chain": [[], [1], [1], [1, 1, 1]], "n": 2}),
                 "entry 4 does not grow from entry 3 by a horizontal strip",
                 id="SSYTable-strip-at-last-level"),
    # j_inverse on patterns only the package could build: level N-1 fails its strip, and
    # level 2, the last that can (level 1 always fits under level 2's reading)
    pytest.param(lambda: j_inverse(
                     trusted(GTPattern, (OrthWeight((4, 0), 4), OrthWeight((6,), 3)), 0),
                     ShortYoungDiagram((2,), 4, 2)),
                 "pattern is not in the image of the chain bijection",
                 id="j_inverse-strip-at-first-level"),
    pytest.param(lambda: j_inverse(trusted(GTPattern, (OrthWeight((2,), 3),), 2),
                                   ShortYoungDiagram((1,), 3, 2)),
                 "pattern is not in the image of the chain bijection",
                 id="j_inverse-strip-at-last-level"),
    pytest.param(lambda: GTPattern.from_json({"betas2": [[4, 2], [6, 0], [2]], "z": 0}),
                 "rows at ranks 5, 4 do not interlace", id="interlacing-odd-upper-bound"),
    pytest.param(lambda: GTPattern.from_json({"betas2": [[4, 2], [0, 0], [0]], "z": 0}),
                 "rows at ranks 5, 4 do not interlace", id="interlacing-odd-lower-bound"),
    pytest.param(lambda: GTPattern.from_json({"betas2": [[4, 2], [4, -4], [4]], "z": 0}),
                 "rows at ranks 5, 4 do not interlace", id="interlacing-odd-fork"),
    pytest.param(lambda: GTPattern.from_json({"betas2": [[2, -2], [0]], "z": 0}),
                 "rows at ranks 4, 3 do not interlace", id="interlacing-even-fork"),
    pytest.param(lambda: GTPattern.from_json({"betas2": [[4, 2], [2, 4], [2]], "z": 0}),
                 "(2, 4) is not dominant for o_4", id="GTPattern-non-dominant-rank-4-row"),
    pytest.param(lambda: GTPattern.from_json({"betas2": [[2, 2], [-2]], "z": 0}),
                 "(-2,) is not dominant for o_3", id="GTPattern-non-dominant-rank-3-row"),
    # raises that only a library caller reaches
    pytest.param(lambda: XiCache(SpinCrystal(2)).commutor((0, 1), 2),
                 "split must be in 1..1, got 2", id="commutor-split-past-the-word"),
    pytest.param(lambda: XiCache(SpinCrystal(2)).sigma_pqr((0, 1, 2), 1, 3, 3),
                 "need 1 <= p <= r < q <= 3, got (1, 3, 3)", id="sigma_pqr-split-at-q"),
    pytest.param(lambda: XiCache(SpinCrystal(2)).s_pq((0, 1), 2, 3),
                 "need 1 <= p <= q <= 2, got (2, 3)", id="s_pq-past-the-word"),
    pytest.param(lambda: word_to_permutation([(1, 4)], 3), "generator s(1,4) exceeds degree 3",
                 id="word_to_permutation-past-the-degree"),
    pytest.param(lambda: CellDiagram((1,), (0,)), "diagram needs rows l, r of equal length >= 2",
                 id="CellDiagram-one-row"),
    pytest.param(lambda: enumerate_delta(2, 0), "length must be positive, got 0",
                 id="enumerate_delta-length-0"),
    pytest.param(lambda: steps_from_diagram_chain([]), "empty chain",
                 id="steps_from_diagram_chain-empty"),
    pytest.param(lambda: Weight((1, 1)) + Weight((1, 1, 1)),
                 "cannot add weights of different ranks", id="Weight-add-two-ranks"),
    pytest.param(lambda: OrthWeight((), 0), "ambient rank must be positive, got 0",
                 id="OrthWeight-rank-0"),
    pytest.param(lambda: spinor_weights(1), "rank must be at least 2, got 1",
                 id="spinor_weights-rank-1"),
    pytest.param(lambda: ExteriorAlgebra(1, 2), "need n >= 2, got 1", id="ExteriorAlgebra-n-1"),
    pytest.param(lambda: ExteriorAlgebra(2, 0), "need N >= 1, got 0", id="ExteriorAlgebra-N-0"),
    pytest.param(lambda: ExteriorAlgebra(2, 2).index(3, 1), "basis pair (3, 1) out of range",
                 id="ExteriorAlgebra-index-past-N"),
    pytest.param(lambda: ExteriorAlgebra(2, 2).xi_lambda(Weight((1, 1, 1))),
                 "weight rank does not match n", id="xi_lambda-rank"),
    pytest.param(lambda: SpinCrystal(2).table_to_word(WORKED),
                 "table height does not match crystal rank", id="table_to_word-height"),
    pytest.param(lambda: SpinCrystal(2).decompose_component_tensor((0,)),
                 "word is not highest weight", id="decompose_component_tensor-not-a-top"),
    pytest.param(lambda: ShortYoungDiagram((), 3, 1),
                 "need ambient height >= 0 and width bound >= 2", id="ShortYoungDiagram-n-1"),
    pytest.param(lambda: SSYTable(()), "a table has at least one diagram", id="SSYTable-empty"),
    pytest.param(lambda: SSYTable((ShortYoungDiagram((), 2, 2),)),
                 "chain entry 1 has ambient height 2, expected 1", id="SSYTable-height"),
    pytest.param(lambda: SSYTable((ShortYoungDiagram((), 1, 2), ShortYoungDiagram((), 2, 3))),
                 "all chain entries must share one width bound", id="SSYTable-two-widths"),
    pytest.param(lambda: GTPattern((OrthWeight((2,), 2),), 0),
                 "patterns start at rank 3 or higher", id="GTPattern-rank-2-top"),
    pytest.param(lambda: GTPattern((OrthWeight((2, 2), 4), OrthWeight((2, 2), 4)), 0),
                 "rows must descend through consecutive ranks", id="GTPattern-repeated-rank"),
    pytest.param(lambda: GTPattern((OrthWeight((2, 2), 4),), 0),
                 "the last row must have rank 3", id="GTPattern-ends-above-rank-3"),
    # records with two faults: the message is the one the rules' order names first
    pytest.param(lambda: CellTable.from_json({"steps2": [[1, 1], [-1, 1], [3, 1]]}),
                 "step 3 is not a spinor weight: (3/2, 1/2)",
                 id="CellTable-bad-step-after-bad-prefix"),
    pytest.param(lambda: ShortYoungDiagram.from_json({"rows": [2, 0, 1], "N": 6, "n": 2}),
                 "row lengths must be positive (drop trailing zeros)",
                 id="ShortYoungDiagram-zero-row-that-breaks-decrease"),
    pytest.param(lambda: ShortYoungDiagram.from_json({"rows": [3, 3, 3], "N": 3, "n": 2}),
                 "at most 2 columns allowed, got 3", id="ShortYoungDiagram-wide-and-not-short"),
    pytest.param(lambda: SSYTable((ShortYoungDiagram((1,), 1, 2), ShortYoungDiagram((), 2, 2),
                                   ShortYoungDiagram((), 4, 2))),
                 "chain entry 3 has ambient height 4, expected 3",
                 id="SSYTable-height-after-bad-strip"),
    pytest.param(lambda: GTPattern.from_json({"betas2": [[2, 2], [4, 2], [-2]], "z": 0}),
                 "(-2,) is not dominant for o_3",
                 id="GTPattern-non-dominant-row-below-bad-interlacing"),
    pytest.param(lambda: GTPattern((OrthWeight((2, 2), 4),), 0.5),
                 "expected an integer, got 0.5", id="GTPattern-float-z-before-its-ranks"),
]


@pytest.mark.parametrize("build,message", INVALID)
def test_invalid_records_raise_the_same_messages(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_interlaces_from_rank_2_has_no_row_to_check():
    # the rank-1 row below a rank-2 row has no coordinates, so any rank-2 row interlaces it
    assert all(interlaces(OrthWeight((c,), 2), OrthWeight((), 1)) for c in (-4, 0, 2))


# -- record layout: slotted, frozen, and round-tripping through pickle and copy ------


def layout_examples():
    """One record of every record class, each built by its constructor and by trusted."""
    s = y_map(WORKED)
    records = [WORKED.steps[0], OrthWeight((4, 2), 5), WORKED.shape(), WORKED, s.shape, s,
               j_map(s), SpinCrystal(2).components(2)[0],
               ExteriorAlgebra(2, 2).oe_operator(("gl", 1, 1))]
    for record in records:
        cls = type(record)
        values = [getattr(record, f.name) for f in dataclasses.fields(record)]
        yield pytest.param(cls(*values), id=f"{cls.__name__}-constructed")
        yield pytest.param(trusted(cls, *values), id=f"{cls.__name__}-trusted")


def test_layout_examples_cover_every_frozen_dataclass():
    import spincactus

    frozen = {cls for module in vars(spincactus).values() if isinstance(module, type(spincactus))
              for cls in vars(module).values()
              if isinstance(cls, type) and cls.__module__ == module.__name__
              and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen}
    assert {type(p.values[0]) for p in layout_examples()} == frozen


@pytest.mark.parametrize("record", layout_examples())
def test_records_are_slotted_frozen_and_round_trip(record):
    import copy
    import pickle

    assert not hasattr(record, "__dict__")
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
