import pytest

from spincactus.celldiag import (
    CellDiagram,
    CellTable,
    contains,
    diagram_of_weight,
    enumerate_delta,
    enumerate_tables,
    steps_from_diagram_chain,
    table_from_steps,
    weight_of_diagram,
)
from spincactus.errors import ValidationError
from spincactus.suites import enumerate_tables_reference
from spincactus.weights import Weight, omega_minus, omega_plus, spinor_weights, is_dominant_d

WORKED_WEIGHT = Weight((3, 1, 1, -1))

# the seven steps of the worked length-7 table, as doubled coordinates
WORKED_STEPS = [
    (1, 1, 1, -1),
    (1, 1, 1, 1),
    (1, -1, -1, -1),
    (1, 1, 1, 1),
    (1, -1, -1, -1),
    (-1, 1, 1, -1),
    (-1, -1, -1, 1),
]


def test_diagram_of_weight_worked_example():
    d = diagram_of_weight(WORKED_WEIGHT, 7)
    assert d.r == (5, 4, 4, 3)
    assert d.l == (2, 3, 3, 4)


def test_diagram_of_weight_zero():
    d = diagram_of_weight(Weight((0, 0)), 2)
    assert d.r == (1, 1) and d.l == (1, 1)


def test_diagram_of_weight_arithmetic():
    # r_i = N/2 + w_i with N = 6
    d = diagram_of_weight(Weight((6, 4, 2, 2, -2)), 6)
    assert d.r == (6, 5, 4, 4, 2)
    assert d.l == (0, 1, 2, 2, 4)


def test_diagram_of_weight_rejects_non_member():
    with pytest.raises(ValidationError, match="parity"):
        diagram_of_weight(Weight((2, 0)), 3)
    with pytest.raises(ValidationError, match="outside"):
        diagram_of_weight(Weight((10, 0)), 3)
    with pytest.raises(ValidationError, match="dominant"):
        diagram_of_weight(Weight((1, 3)), 3)


def test_weight_of_diagram_examples():
    assert weight_of_diagram(CellDiagram((2, 3, 3, 4), (5, 4, 4, 3))) == WORKED_WEIGHT
    assert weight_of_diagram(CellDiagram((2, 2), (2, 2))) == Weight((0, 0))
    assert weight_of_diagram(
        CellDiagram((0, 1, 2, 2, 4), (6, 5, 4, 4, 2))
    ) == Weight((6, 4, 2, 2, -2))


def test_diagram_invariants_enforced():
    with pytest.raises(ValidationError):
        CellDiagram((0, 0), (1, 2))  # r not decreasing
    with pytest.raises(ValidationError):
        CellDiagram((3, 3), (1, 1))  # r_{n-1} < l_n
    with pytest.raises(ValidationError):
        CellDiagram((0, 1), (1, 1))  # unequal totals


def test_enumerate_delta_small():
    assert [w.coords2 for w in enumerate_delta(2, 1)] == [(1, 1), (1, -1)]
    # oracle: brute-force filter over the coordinate grid
    expected = sorted(
        (
            (a, b)
            for a in (-2, 0, 2)
            for b in (-2, 0, 2)
            if a >= b and a >= -b
        ),
        reverse=True,
    )
    assert [w.coords2 for w in enumerate_delta(2, 2)] == expected
    assert expected == [(2, 2), (2, 0), (2, -2), (0, 0)]
    assert WORKED_WEIGHT in enumerate_delta(4, 7)


def test_enumerate_delta_matches_filter():
    from itertools import product

    for n, big_n in [(2, 3), (3, 2), (3, 4)]:
        coords = range(-big_n, big_n + 1, 2) if big_n % 2 == 0 else range(
            -big_n, big_n + 1, 2
        )
        brute = {
            c
            for c in product(coords, repeat=n)
            if is_dominant_d(Weight(c))
        }
        listed = [w.coords2 for w in enumerate_delta(n, big_n)]
        assert set(listed) == brute
        assert listed == sorted(listed, reverse=True)
        assert len(listed) == len(set(listed))


def test_contains():
    big = CellDiagram((2, 3, 3, 4), (5, 4, 4, 3))
    small = CellDiagram((1, 2, 2, 3), (4, 3, 3, 2))
    assert contains(big, small)
    assert contains(big, big)
    assert not contains(small, big)
    # a shorter diagram can never contain a longer one
    assert not contains(CellDiagram((0, 0), (1, 1)), CellDiagram((0, 0), (2, 2)))
    with pytest.raises(ValidationError):
        contains(big, CellDiagram((0, 0), (1, 1)))


def test_worked_table_is_valid():
    t = table_from_steps([Weight(s) for s in WORKED_STEPS])
    assert t.shape().r == (5, 4, 4, 3)
    assert t.shape().l == (2, 3, 3, 4)
    chain = t.diagram_chain()
    assert [d.length for d in chain] == list(range(1, 8))
    for a, b in zip(chain[1:], chain):
        assert contains(a, b)


def test_single_step_table():
    t = table_from_steps([omega_plus(3)])
    assert t.shape().r == (1, 1, 1)
    assert t.shape().l == (0, 0, 0)


def test_two_minus_steps_valid():
    t = table_from_steps([omega_minus(2), omega_minus(2)])
    assert t.weight() == Weight((2, -2))


def test_table_rejections():
    with pytest.raises(ValidationError, match="first step"):
        table_from_steps([Weight((-1, 1))])
    with pytest.raises(ValidationError, match="position 2"):
        table_from_steps([omega_plus(2), Weight((-1, 1))])


def test_steps_from_diagram_chain_round_trip():
    t = table_from_steps([Weight(s) for s in WORKED_STEPS])
    assert steps_from_diagram_chain(t.diagram_chain()) == t
    single = steps_from_diagram_chain([CellDiagram((0, 0), (1, 1))])
    assert single.steps == (omega_plus(2),)
    with pytest.raises(ValidationError, match="length"):
        steps_from_diagram_chain([CellDiagram((1, 1), (1, 1))])


def test_round_trip_exhaustive_small():
    for n in (2,):
        for big_n in range(1, 6):
            for lam in enumerate_delta(n, big_n):
                for t in enumerate_tables(diagram_of_weight(lam, big_n)):
                    assert steps_from_diagram_chain(t.diagram_chain()) == t
                    for k in range(1, t.length + 1):
                        t.prefix(k)  # every prefix validates


def test_enumerate_tables_counts():
    only = enumerate_tables(CellDiagram((0, 0), (1, 1)))
    assert len(only) == 1 and only[0].steps == (omega_plus(2),)

    # oracle: brute force over all step words of length 2
    lam = Weight((2, 0))
    brute = []
    for a in spinor_weights(2):
        for b in spinor_weights(2):
            if a not in (omega_plus(2), omega_minus(2)):
                continue
            if not is_dominant_d(a + b) or (a + b) != lam:
                continue
            brute.append((a, b))
    listed = enumerate_tables(diagram_of_weight(lam, 2))
    key = lambda steps: tuple(mu.coords2 for mu in steps)
    assert sorted((t.steps for t in listed), key=key) == sorted(brute, key=key)
    assert len(listed) == 2


def test_enumerate_tables_against_brute_force():
    # oracle: filter all step words by the prefix conditions
    from itertools import product

    for big_n in (3, 4):
        pool = spinor_weights(2)
        by_weight = {}
        for steps in product(pool, repeat=big_n):
            if steps[0] not in (omega_plus(2), omega_minus(2)):
                continue
            total = Weight((0, 0))
            ok = True
            for mu in steps:
                total = total + mu
                if not is_dominant_d(total):
                    ok = False
                    break
            if ok:
                by_weight.setdefault(total, []).append(steps)
        for lam, expected in by_weight.items():
            listed = enumerate_tables(diagram_of_weight(lam, big_n))
            assert len(listed) == len(expected)
    # frozen value from this oracle at N=3, lambda2=(1,1)
    assert len(enumerate_tables(diagram_of_weight(Weight((1, 1)), 3))) == 5


def test_enumerate_tables_order_is_descending():
    for n in (2, 3, 4):
        for big_n in range(1, 7):
            for lam in enumerate_delta(n, big_n):
                flats = [t.flat2() for t in enumerate_tables(diagram_of_weight(lam, big_n))]
                assert flats == sorted(flats, reverse=True)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_tables_matches_the_reference_in_order(n):
    # the memoized walk lists what the plain search lists, in the same order
    for big_n in range(1, 7):
        for lam in enumerate_delta(n, big_n):
            shape = diagram_of_weight(lam, big_n)
            assert enumerate_tables(shape) == enumerate_tables_reference(shape), shape


def test_table_json_round_trip():
    t = table_from_steps([Weight(s) for s in WORKED_STEPS])
    assert CellTable.from_json(t.to_json()) == t
