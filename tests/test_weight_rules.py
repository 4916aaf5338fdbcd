"""Each weight rule is stated once in `weights`; these tests hold the callers to the
rules as they were written out before, copied here as oracles that share no code
with the package's own predicates."""

import importlib.util
from itertools import product
from pathlib import Path

import pytest

import spincactus
from spincactus import weights
from spincactus.celldiag import (
    CellDiagram,
    CellTable,
    diagram_of_weight,
    enumerate_delta,
    enumerate_tables,
    steps_from_diagram_chain,
)
from spincactus.crystal import SpinCrystal
from spincactus.errors import ValidationError
from spincactus.weights import (
    OrthWeight,
    Weight,
    delta_membership,
    delta_violation,
    is_dominant2,
    is_dominant_d,
    is_spinor2,
)

# -- oracles: the rules as each caller stated them on its own ----------------------


def oracle_dominant_d(c):
    return all(c[i] >= c[i + 1] for i in range(len(c) - 2)) and c[-2] >= abs(c[-1])


def oracle_orth_dominant(c, k):
    if not c:
        return True
    if not all(c[i] >= c[i + 1] for i in range(len(c) - 1)):
        return False
    if k % 2 == 0:
        return len(c) < 2 or c[-2] >= abs(c[-1])
    return c[-1] >= 0


def oracle_delta_reason(c, big_n):
    w = Weight(c)
    if not oracle_dominant_d(c):
        return f"{w} is not dominant"
    for x in c:
        if not -big_n <= x <= big_n:
            return f"coordinate {x}/2 of {w} is outside [-{big_n}/2, {big_n}/2]"
        if (x + big_n) % 2:
            return f"coordinate {x}/2 of {w} has the wrong parity for length {big_n}"
    return None


def oracle_diagram_ok(l, r):
    n = len(r)
    if n < 2 or len(l) != n or any(x < 0 for x in l + r):
        return False
    big_n = l[0] + r[0]
    if big_n < 1 or any(li + ri != big_n for li, ri in zip(l, r)):
        return False
    if any(r[i] < r[i + 1] for i in range(n - 1)):
        return False
    return r[n - 2] >= l[n - 1]


def oracle_prefix_sums(steps):
    sums, total = [], [0] * len(steps[0])
    for mu in steps:
        total = [a + b for a, b in zip(total, mu)]
        sums.append(tuple(total))
    return sums


def oracle_table_reason(steps):
    n = len(steps[0])
    for k, mu in enumerate(steps, 1):
        if len(mu) != n:
            return "all steps must share one rank"
        if not all(c in (1, -1) for c in mu):
            return f"step {k} is not a spinor weight: {Weight(mu)}"
    if steps[0] not in ((1,) * n, (1,) * (n - 1) + (-1,)):
        return f"first step must be one of the two dominant spinor weights, got {Weight(steps[0])}"
    for k, total in enumerate(oracle_prefix_sums(steps), 1):
        if not oracle_dominant_d(total):
            return f"prefix sum at position {k} is not dominant"
    return None


def oracle_nested(big, small):
    return all(a >= b for a, b in zip(big.l, small.l)) and all(a >= b for a, b in zip(big.r, small.r))


def reason(call):
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


# -- dominance -----------------------------------------------------------------------


def test_dominance_predicate_equals_the_written_out_rules():
    for length in range(1, 5):
        for c in product(range(-4, 5), repeat=length):
            if length >= 2:
                assert is_dominant2(c) is oracle_dominant_d(c), c
                assert is_dominant_d(Weight(c)) is oracle_dominant_d(c), c
            for k in (2 * length, 2 * length + 1):
                assert OrthWeight(c, k).is_dominant() is oracle_orth_dominant(c, k), (c, k)
    assert OrthWeight((), 1).is_dominant() is oracle_orth_dominant((), 1)


# -- Delta-membership ----------------------------------------------------------------


def test_diagram_of_weight_refuses_exactly_the_non_members_with_the_same_reason():
    for n in range(2, 5):
        for c in product(range(-5, 6), repeat=n):
            w = Weight(c)
            for big_n in range(1, 6):
                expected = oracle_delta_reason(c, big_n)
                assert delta_violation(w, big_n) == expected, (c, big_n)
                assert delta_membership(w, big_n) is (expected is None)
                got = reason(lambda: diagram_of_weight(w, big_n))
                assert got == expected, (c, big_n)
                if expected is None:
                    d = diagram_of_weight(w, big_n)
                    assert d.r == tuple((big_n + x) // 2 for x in c)


def test_delta_violation_refuses_a_tensor_power_below_one():
    for big_n in (0, -2):
        with pytest.raises(ValidationError, match=f"tensor power must be positive, got {big_n}"):
            delta_violation(Weight((1, 1)), big_n)
        with pytest.raises(ValidationError, match="tensor power must be positive"):
            diagram_of_weight(Weight((1, 1)), big_n)


# -- regular cell diagrams -----------------------------------------------------------


def test_cell_diagram_accepts_exactly_the_regular_pairs_in_a_box():
    accepted = 0
    for n in (2, 3):
        for rows in product(range(-1, 4), repeat=2 * n):
            l, r = rows[:n], rows[n:]
            ok = reason(lambda: CellDiagram(l, r)) is None
            assert ok is oracle_diagram_ok(l, r), (l, r)
            accepted += ok
    assert accepted > 0
    msg = reason(lambda: CellDiagram((1, 0), (1, 2)))  # r increasing
    assert msg == reason(lambda: CellDiagram((3, 3), (1, 1))) and "dominant" in msg  # r_1 < l_2


# -- regular cell tables -------------------------------------------------------------


def step_sequences(n, values, max_len):
    words = list(product(values, repeat=n))
    for length in range(1, max_len + 1):
        yield from product(words, repeat=length)


@pytest.mark.parametrize("n, values, max_len", [(2, (1, -1), 5), (3, (1, -1), 5), (2, (3, 1, -1), 3)])
def test_cell_table_accepts_exactly_the_written_out_tables(n, values, max_len):
    accepted = 0
    for steps in step_sequences(n, values, max_len):
        expected = oracle_table_reason(steps)
        got = reason(lambda: CellTable(tuple(Weight(mu) for mu in steps)))
        assert got == expected, steps
        if expected is None:
            accepted += 1
            t = CellTable(tuple(Weight(mu) for mu in steps))
            sums = oracle_prefix_sums(steps)
            assert t.weight() == Weight(sums[-1])
            assert t.diagram_chain() == [diagram_of_weight(Weight(s), k) for k, s in enumerate(sums, 1)]
            assert steps_from_diagram_chain(t.diagram_chain()) == t
    assert accepted > 0


def test_cell_table_refuses_mixed_ranks():
    assert reason(lambda: CellTable((Weight((1, 1)), Weight((1, 1, 1))))) == "all steps must share one rank"


def count_weights(monkeypatch):
    built = []
    init = Weight.__post_init__

    def record(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Weight, "__post_init__", record)
    return built


def test_table_validation_and_enumeration_build_no_weight_per_prefix(monkeypatch):
    shapes = [(n, big_n, lam) for n in (2, 3) for big_n in (4, 5) for lam in enumerate_delta(n, big_n)]
    tables = {(n, big_n, lam): enumerate_tables(diagram_of_weight(lam, big_n)) for n, big_n, lam in shapes}
    built = count_weights(monkeypatch)
    for (n, big_n, lam), expected in tables.items():
        shape = diagram_of_weight(lam, big_n)
        del built[:]
        assert enumerate_tables(shape) == expected
        # the 2^n steps it hands out and the shape's weight, however many tables
        assert len(built) <= (1 << n) + 1
        for t in expected:
            del built[:]
            CellTable(t.steps)
            assert built == []


# -- chains of diagrams --------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_steps_from_diagram_chain_refuses_exactly_the_non_nested_chains(n):
    by_length = {k: [diagram_of_weight(w, k) for w in enumerate_delta(n, k)] for k in (1, 2, 3)}
    refused = 0
    for chain in product(by_length[1], by_length[2], by_length[3]):
        nested = oracle_nested(chain[1], chain[0]) and oracle_nested(chain[2], chain[1])
        got = reason(lambda: steps_from_diagram_chain(chain))
        assert (got is None) is nested, chain
        refused += not nested
    assert refused > 0


def test_steps_from_diagram_chain_refuses_a_non_nested_pair_and_mixed_heights():
    first = CellDiagram((0, 1), (1, 0))  # omega_-
    with pytest.raises(ValidationError):
        steps_from_diagram_chain([first, CellDiagram((0, 0), (2, 2))])
    with pytest.raises(ValidationError, match="diagrams must have equal heights"):
        steps_from_diagram_chain([first, CellDiagram((0, 0, 0), (2, 2, 2))])
    with pytest.raises(ValidationError, match="expected 2"):
        steps_from_diagram_chain([first, first])


# -- the spinor step -----------------------------------------------------------------


def test_spinor_step_test_matches_the_crystal_elements():
    for n in (2, 3):
        spin = SpinCrystal(n)
        for c in product(range(-3, 4), repeat=n):
            spinor = all(x in (1, -1) for x in c)
            assert is_spinor2(c) is spinor
            got = reason(lambda: spin.element_of_weight(Weight(c)))
            assert (got is None) is spinor, c
            if spinor:
                assert spin.element_weight(spin.element_of_weight(Weight(c))) == Weight(c)
        assert reason(lambda: spin.element_of_weight(Weight((1,) * (n + 1)))) is not None


# -- the benchmark's traced names ----------------------------------------------------


def load_bench_spans():
    for module in ("cactus", "celldiag", "cli", "clifford", "crystal", "suites", "weights", "youngt"):
        importlib.import_module(f"spincactus.{module}")
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer_spans", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_every_traced_name_resolves_on_the_package():
    # resolved as bench/tracer.py does: the module on the package, then the attribute path
    spans = load_bench_spans()
    assert spans
    for key, module, path, _ in spans:
        owner = getattr(spincactus, module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        assert callable(getattr(owner, parts[-1], None)), key


def test_weights_rules_are_the_ones_the_other_modules_call():
    from spincactus import celldiag, crystal

    assert celldiag.is_dominant2 is weights.is_dominant2
    assert celldiag.is_spinor2 is crystal.is_spinor2 is weights.is_spinor2
    assert celldiag.delta_violation is weights.delta_violation
