"""The node budget: one check of budget_bits and one bounded closure for every scan."""

import hashlib
import json
import signal
import time

import answers
import pytest

from spincactus import crystal as crystal_module
from spincactus import youngt
from spincactus.cactus import XiCache, orbit, parse_cactus_word
from spincactus.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from spincactus.celldiag import CellTable, diagram_of_weight, enumerate_delta, enumerate_tables
from spincactus.clifford import ExteriorAlgebra
from spincactus.crystal import (DEFAULT_BUDGET_BITS, SpinCrystal, census_json, closure,
                                crystal_dot, node_limit)
from spincactus.errors import BudgetExceededError, ValidationError
from spincactus.suites import (XiTableReference, _all_syd, _raising_count, suite_bijections,
                               suite_cactus_relations, suite_census, suite_commutor,
                               suite_crystal_axioms, suite_thm2, suite_thm51_signs, suite_thm52)
from spincactus.weights import Weight

CRYSTAL = SpinCrystal(2)
TABLE = enumerate_tables(diagram_of_weight(enumerate_delta(3, 4)[1], 4))[0]
GENS = parse_cactus_word("s(1,2) s(2,3) s(3,4)")

# every budgeted entry point, as a call taking budget_bits; a crystal's scans read the
# budget it was built with
ENTRY_POINTS = {
    "SpinCrystal": lambda bits: SpinCrystal(2, bits),
    "orbit": lambda bits: orbit(XiCache(SpinCrystal(3), bits), TABLE, GENS),
    "XiTableReference": lambda bits: XiTableReference(CRYSTAL, bits).xi_word((0, 0)),
    "XiCache": lambda bits: XiCache(CRYSTAL, bits),
    "suite_crystal_axioms": lambda bits: suite_crystal_axioms((2,), 1, bits),
    "suite_thm52": lambda bits: suite_thm52((2,), 1, budget_bits=bits),
    "suite_thm51_signs": lambda bits: suite_thm51_signs((2,), budget_bits=bits),
    "suite_bijections": lambda bits: suite_bijections(2, (3,), budget_bits=bits),
}


@pytest.mark.parametrize("bits", [-1, 25, 2.5, True])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_budget_bits_are_validation_errors(entry, bits):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[entry](bits)


def test_node_limit():
    assert [node_limit(b) for b in (0, 1, 10, 24)] == [1, 2, 1 << 10, 1 << 24]
    for bits in (-1, 25):
        with pytest.raises(ValidationError, match=f"budget_bits must be in 0..24, got {bits}"):
            node_limit(bits)
    for bits in (2.5, True, "3"):
        with pytest.raises(ValidationError, match="expected an integer"):
            node_limit(bits)


@pytest.mark.parametrize("cache", [XiCache, XiTableReference])
def test_a_cache_reads_its_crystals_budget(cache):
    small = SpinCrystal(3, 5)
    assert (cache(small).budget_bits, cache(small)._limit) == (5, 32)
    assert cache(small, 7).budget_bits == 7  # a budget given still wins
    assert cache(SpinCrystal(3)).budget_bits == DEFAULT_BUDGET_BITS
    six = CellTable.from_json({"steps2": [[1, 1], [1, 1], [1, -1], [1, -1]]})  # orbit of 6
    assert len(orbit(cache(SpinCrystal(2, 3)), six, GENS)) == 6
    with pytest.raises(BudgetExceededError):  # orbit's closure reads the crystal's budget
        orbit(cache(SpinCrystal(2, 2)), six, GENS)


def smallest_bits(m):
    """The smallest budget_bits whose limit 2^bits holds m nodes."""
    return (m - 1).bit_length()


def assert_tight(scan, m):
    """scan(bits) passes at the smallest fitting budget and is refused one bit lower."""
    bits = smallest_bits(m)
    assert len(scan(bits)) == m
    if bits > 0:
        with pytest.raises(BudgetExceededError) as info:
            scan(bits - 1)
        assert (info.value.needed_bits, info.value.budget_bits) == (bits, bits - 1)


def test_closure_limit_is_tight_on_components():
    # the members, on a crystal of that budget, and the reference xi table, which holds
    # one image per member
    sizes = set()
    for n, big_n in ((2, 3), (3, 2)):
        crystal = SpinCrystal(n)
        for comp in crystal.components(big_n):
            sizes.add(comp.size)

            def members(bits):
                return SpinCrystal(n, bits).component_members(comp.hw_word)[1]

            if smallest_bits(comp.size) >= n:
                assert_tight(members, comp.size)
            else:  # below its rank the crystal itself is refused
                with pytest.raises(BudgetExceededError) as info:
                    members(smallest_bits(comp.size))
                assert info.value.needed_bits == n
            assert_tight(lambda bits: XiTableReference(crystal, bits)._build(comp.hw_word),
                         comp.size)
    assert sizes == {1, 2, 4, 6, 10, 15}


# every scan of a rank-2 crystal, with the bits it needs: a power-N scan charges n*N
# bits, a component's walk the bits that hold its members
CRYSTAL_SCANS = {
    "component_members": (lambda c: c.component_members((1, 2, 3)), 3),
    "components": (lambda c: c.components(2), 4),
    "highest_weight_words": (lambda c: c.highest_weight_words(2), 4),
    "hw_census": (lambda c: c.hw_census(2), 4),
    "decompose_component_tensor": (lambda c: c.decompose_component_tensor((3, 3)), 6),
    "crystal_dot": (lambda c: crystal_dot(c, 2), 4),
    "census_json": (lambda c: census_json(c, 2), 4),
}


@pytest.mark.parametrize("scan", sorted(CRYSTAL_SCANS))
def test_every_scan_reads_the_crystal_budget(scan):
    run, needed = CRYSTAL_SCANS[scan]
    run(SpinCrystal(2, needed))
    with pytest.raises(BudgetExceededError) as info:
        run(SpinCrystal(2, needed - 1))
    assert (info.value.needed_bits, info.value.budget_bits) == (needed, needed - 1)


@pytest.mark.parametrize("suite", [
    lambda bits: suite_crystal_axioms((2, 3), 2, bits),
    lambda bits: suite_census((2, 3), 2, bits),
    lambda bits: suite_commutor((2, 3), 2, bits),
    lambda bits: suite_cactus_relations(3, 3, bits),
    lambda bits: suite_thm2((2, 3), 2, bits),
], ids=["crystal_axioms", "census", "commutor", "cactus_relations", "thm2"])
def test_every_suite_builds_its_crystals_with_its_budget(monkeypatch, suite):
    built = []
    init = SpinCrystal.__init__

    def record(self, n, budget_bits=DEFAULT_BUDGET_BITS):
        built.append((n, budget_bits))
        init(self, n, budget_bits)

    monkeypatch.setattr(SpinCrystal, "__init__", record)
    assert suite(11)["pass"]
    assert built and {bits for _, bits in built} == {11}


def refuse_tables(n, i):
    raise AssertionError("crystal tables built past the budget")


def test_a_crystal_charges_its_rank_before_building_its_tables(monkeypatch):
    monkeypatch.setattr(crystal_module, "_spin_pair", refuse_tables)
    with pytest.raises(BudgetExceededError) as info:
        SpinCrystal(5, 4)
    assert (info.value.needed_bits, info.value.budget_bits) == (5, 4)
    # the rank is checked first: a rank below 2 is invalid, not too big
    with pytest.raises(ValidationError, match="rank must be at least 2, got 1"):
        SpinCrystal(1, 30)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_rank_charge_is_tight(monkeypatch, n):
    assert SpinCrystal(n, n).budget_bits == n
    monkeypatch.setattr(crystal_module, "_spin_pair", refuse_tables)
    with pytest.raises(BudgetExceededError) as info:
        SpinCrystal(n, n - 1)
    assert (info.value.needed_bits, info.value.budget_bits) == (n, n - 1)


def test_closure_limit_is_tight_on_orbits():
    cache = XiCache(SpinCrystal(3))
    gens = parse_cactus_word("s(1,2) s(1,3)")
    sizes = set()
    for lam in enumerate_delta(3, 3):
        for t in enumerate_tables(diagram_of_weight(lam, 3)):
            size = len(orbit(cache, t, gens))
            sizes.add(size)
            assert_tight(lambda bits: orbit(XiCache(cache.crystal, bits), t, gens), size)
    assert sizes == {1, 2, 3, 6}


def test_closure_walk_order_and_missing_edges():
    # depth first from the last pushed node; None marks a missing edge
    graph = {0: [1, None, 2], 1: [3], 2: [3, 4], 3: [], 4: [0]}
    visited = []

    def successors(node):
        visited.append(node)
        return graph[node]

    assert closure(0, successors, 3) == {0, 1, 2, 3, 4}
    assert visited == [0, 2, 4, 3, 1]
    with pytest.raises(BudgetExceededError):
        closure(0, successors, 2)


@pytest.mark.parametrize("n, big_n, needed", [(2, 4, 9), (3, 4, 10), (3, 5, 13)])
def test_cactus_relations_charges_generators_times_tables(n, big_n, needed):
    # 360, 960 and 8,000 generator actions; refused before the first one
    with pytest.raises(BudgetExceededError) as info:
        suite_cactus_relations(n, big_n, needed - 1)
    assert (info.value.needed_bits, info.value.budget_bits) == (needed, needed - 1)


@pytest.mark.parametrize("n_values, big_n, needed", [((2,), 6, 12), ((2, 3), 4, 12), ((3,), 2, 6)])
def test_crystal_axioms_charges_its_largest_scan(n_values, big_n, needed):
    # the largest rank times N bits; refused before the first word
    with pytest.raises(BudgetExceededError) as info:
        suite_crystal_axioms(n_values, big_n, needed - 1)
    assert (info.value.needed_bits, info.value.budget_bits) == (needed, needed - 1)
    assert suite_crystal_axioms(n_values, min(big_n, 2), needed)["pass"]


def one_step(height):
    return json.dumps({"steps2": [[1] * height]})


# commands whose crystal's rank (the table height, or --n) exceeds the budget
PAST_THE_BUDGET = [
    ["act", "--word", "", "--budget-bits", "4", "--payload", one_step(16)],
    ["act", "--word", "", "--payload", one_step(21)],
    ["export", "component", "--budget-bits", "4", "--payload", one_step(16)],
    ["export", "orbit", "--budget-bits", "4", "--payload", one_step(16)],
    ["export", "crystal-graph", "--n", "16", "--N", "1", "--budget-bits", "4"],
]


@pytest.mark.parametrize("argv", PAST_THE_BUDGET)
def test_cli_charges_the_crystal_rank_before_building_it(capsys, monkeypatch, argv):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    monkeypatch.setattr(crystal_module, "_spin_pair", refuse_tables)
    assert main(argv) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("error: scan needs about 2^")


@pytest.mark.parametrize("argv, code, built_with", [
    (["act", "--word", "s(1,2)", "--budget-bits", "3", "--payload", '{"steps2": [[1, 1, 1], [1, -1, -1]]}'],
     EXIT_OK, (3, 3)),
    (["export", "orbit", "--budget-bits", "2", "--payload", '{"steps2": [[1, 1], [1, -1]]}'], EXIT_OK,
     (2, 2)),
    (["export", "component", "--budget-bits", "3", "--payload", '{"steps2": [[1, 1, 1], [1, -1, -1]]}'],
     EXIT_OK, (3, 3)),
    (["export", "crystal-graph", "--n", "2", "--N", "2", "--budget-bits", "4"], EXIT_OK, (2, 4)),
    # the rank-3 crystal fits in 11 bits; its 12-bit scan of the fourth power does not
    (["export", "crystal-graph", "--n", "3", "--N", "4", "--budget-bits", "11"], EXIT_BUDGET, (3, 11)),
    # a rank below 2 is refused as invalid, not as too big
    (["export", "crystal-graph", "--n", "1", "--N", "30"], EXIT_USAGE, (1, DEFAULT_BUDGET_BITS)),
])
def test_cli_builds_the_crystal_within_the_budget(capsys, monkeypatch, argv, code, built_with):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    built = []
    init = SpinCrystal.__init__

    def record(self, n, budget_bits=DEFAULT_BUDGET_BITS):
        built.append((n, budget_bits))
        init(self, n, budget_bits)

    monkeypatch.setattr(SpinCrystal, "__init__", record)
    assert main(argv) == code
    assert built == [built_with]
    capsys.readouterr()


@pytest.mark.parametrize(
    "scan",
    [
        lambda c: c.highest_weight_words(4),
        lambda c: c.hw_census(4),
        lambda c: c.components(4),
    ],
)
def test_stored_tops_are_charged_on_every_call(scan):
    crystal = SpinCrystal(2, 8)
    crystal.highest_weight_words(4)  # 8 bits of words, now stored
    scan(crystal)
    capped = SpinCrystal(2, 7)
    capped._tops.update(crystal._tops)  # the same tops, stored on a smaller budget
    with pytest.raises(BudgetExceededError) as info:
        scan(capped)
    assert (info.value.needed_bits, info.value.budget_bits) == (8, 7)


# the corpus's enumerations, every one bounded: weights, diagrams, and tables, chains and
# patterns of one shape
ENUMERATIONS = [argv for argv in answers.COMMANDS if argv[0] == "enumerate"]


@pytest.mark.parametrize("argv", ENUMERATIONS, ids=answers.key)
def test_enumerations_print_the_recorded_answer_within_the_budget(capsys, argv):
    recorded = json.loads(answers.CORPUS.read_text())[answers.key(argv)]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    bits = smallest_bits(json.loads(capsys.readouterr().out)["count"])
    for extra in ([], ["--budget-bits", str(bits)]):
        assert answers.answer(argv + extra) == (recorded["exit"], recorded["sha256"])
    if bits > 0:
        empty = hashlib.sha256(b"").hexdigest()
        assert answers.answer(argv + ["--budget-bits", str(bits - 1)]) == (EXIT_BUDGET, empty)


@pytest.mark.parametrize("argv, bits", [
    (["enumerate", "delta", "--n", "2", "--N", "100000"], 32),  # 50,001^2 weights
    (["enumerate", "diagrams", "--n", "4", "--N", "400"], 28),  # 138,743,801 diagrams
    (["enumerate", "tables", "--lambda", "1,1,1", "--N", "13"], 25),  # 18,076,916 tables
    (["enumerate", "tables", "--lambda", "1,1,1,1,1,1,1", "--N", "25"], 99),
    (["enumerate", "sssyt", "--nu", "3,3,2,1", "--N", "12", "--n", "4"], 21),  # 1,281,280
    (["enumerate", "gtp", "--nu", "4,4,3,1", "--N", "11", "--n", "4"], 24),
])
def test_enumerations_past_the_budget_exit_3_before_listing(capsys, monkeypatch, argv, bits):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    assert main(argv) == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {BudgetExceededError(bits, 20)}\n"


def test_a_pattern_height_below_3_is_refused_before_the_budget(capsys):
    argv = ["enumerate", "gtp", "--nu", "1", "--N", "2", "--n", "2", "--budget-bits", "0"]
    assert main(argv) == EXIT_USAGE  # its two chains would need 1 bit
    assert capsys.readouterr().err == "error: patterns are only defined for ambient height >= 3\n"


@pytest.mark.parametrize("kind", ["delta", "diagrams"])
def test_weight_enumerations_read_the_budget_flag_and_env(capsys, monkeypatch, kind):
    argv = ["enumerate", kind, "--n", "2", "--N", "3"]  # 6 weights: 3 bits
    assert main(argv + ["--budget-bits", "2"]) == EXIT_BUDGET
    assert main(argv + ["--budget-bits", "3"]) == EXIT_OK
    monkeypatch.setenv("CACTUS_BUDGET_BITS", "2")
    assert main(argv) == EXIT_BUDGET
    assert main(argv + ["--budget-bits", "3"]) == EXIT_OK
    monkeypatch.setenv("CACTUS_BUDGET_BITS", "x")
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count(f"error: {BudgetExceededError(3, 2)}\n") == 2
    assert err.endswith("error: CACTUS_BUDGET_BITS must be an integer, got 'x'\n")


@pytest.mark.parametrize("kind", ["delta", "diagrams"])
def test_weights_of_a_large_height_list_in_bounded_time(capsys, kind):
    # two weights; a walk that recursed once per coordinate ended in a RecursionError
    start = time.perf_counter()
    assert main(["enumerate", kind, "--n", "1200", "--N", "1"]) == EXIT_OK
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_a_long_table_in_bounded_time(capsys):
    # one table of 900 steps; a walk that recursed once per step ended in a RecursionError
    start = time.perf_counter()
    assert main(["enumerate", "tables", "--lambda", "900,900", "--N", "900"]) == EXIT_OK
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_enumerate_tables_charges_its_rank(capsys, monkeypatch):
    # one table, but each state tries the 2^n spinor steps
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    argv = ["enumerate", "tables", "--lambda", "1,1,1,1,1", "--N", "1"]
    assert main(argv + ["--budget-bits", "5"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert main(argv + ["--budget-bits", "4"]) == EXIT_BUDGET
    assert capsys.readouterr() == ("", f"error: {BudgetExceededError(5, 4)}\n")
    start = time.perf_counter()
    assert main(["enumerate", "tables", "--lambda", ",".join(["1"] * 25), "--N", "1"]) == EXIT_BUDGET
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {BudgetExceededError(25, 20)}\n"


def test_the_enumeration_charge_is_the_hook_formula(monkeypatch):
    # every short Young diagram of widths 2..5 and heights 1..6, counted without the
    # branching walk, then listed with it
    def refuse(v):
        raise AssertionError("count_sssyt walked the branching")

    diagrams = [v for n in range(2, 6) for big_n in range(1, 7) for v in _all_syd(n, big_n)]
    with monkeypatch.context() as patch:
        patch.setattr(youngt, "branch_syd", refuse)
        counts = [youngt.count_sssyt(v) for v in diagrams]
    assert len(diagrams) == 413
    assert counts == [len(youngt.enumerate_sssyt(v)) for v in diagrams]
    # the bits charged for the tables of weight 0
    for lam2, big_n, bits in (((0, 0), 50, 87), ((0, 0), 100, 184), ((0, 0, 0), 100, 265)):
        nu = youngt.f_map(diagram_of_weight(Weight(lam2), big_n))
        assert (youngt.count_sssyt(nu) - 1).bit_length() == bits


@pytest.mark.parametrize("argv, bits", [
    (["tables", "--lambda", "0,0", "--N", "1500"], 2972),
    (["tables", "--lambda", "0,0,0", "--N", "100"], 265),
    # the same shapes under f_map, as chains and as patterns
    (["sssyt", "--nu", ",".join(["2"] * 750), "--N", "1500", "--n", "2"], 2972),
    (["gtp", "--nu", ",".join(["3"] * 50), "--N", "100", "--n", "3"], 265),
], ids=["tables-0,0-1500", "tables-0,0,0-100", "sssyt-2^750-1500", "gtp-3^50-100"])
def test_a_large_enumeration_is_refused_in_bounded_time(capsys, monkeypatch, argv, bits):
    # a charge that walked the branching took minutes at (0,0), N = 1500
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)

    def timeout(signum, frame):
        raise TimeoutError("the enumeration charge took more than 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        assert main(["enumerate"] + argv) == EXIT_BUDGET
        assert time.perf_counter() - start < 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr() == ("", f"error: {BudgetExceededError(bits, 20)}\n")


@pytest.mark.parametrize("suite, needed", [
    # 2 weights at N = 1 and 4 at N = 2, each checked by the 2 column raising operators
    (lambda bits: suite_thm52((2,), 2, budget_bits=bits), 4),
    # then 6, 2, 5 and 8 weights at (2, 3), (3, 1), (3, 2), (3, 3) times 3, 6, 6, 7: 128
    (lambda bits: suite_thm52((2, 3), 3, budget_bits=bits), 7),
    # 4, 9, 2 and 6 weights at N = 2, 4, 1, 3, times n = 2 columns each: 42 nodes
    (lambda bits: suite_thm51_signs((2,), budget_bits=bits), 6),
    (lambda bits: suite_thm51_signs((2, 3), budget_bits=bits), 8),
    # the tables at n = 2, N = 3 times their 6 steps
    (lambda bits: suite_bijections(2, (3,), budget_bits=bits), 7),
    (lambda bits: suite_bijections(3, (3, 4), budget_bits=bits), 12),
], ids=["thm52-2-2", "thm52-23-3", "thm51-2", "thm51-23", "bijections-2-3", "bijections-3-34"])
def test_top_vector_and_bijection_suites_charge_up_front(suite, needed):
    assert suite(needed)["pass"]
    with pytest.raises(BudgetExceededError) as info:
        suite(needed - 1)
    assert (info.value.needed_bits, info.value.budget_bits) == (needed, needed - 1)


@pytest.mark.parametrize("argv", [
    ["thm52", "--n", "2094", "--N", "4"],
    ["thm52", "--n", "1000", "--N", "1"],
    ["thm52", "--N", "2000"],
    ["thm51-signs", "--n", "1393"],
    ["bijections", "--n", "2391", "--N", "4"],
    ["bijections", "--n", "1000", "--N", "3"],
    ["bijections", "--N", "2000"],
    ["cactus-relations", "--n", "2", "--N", "2000", "--budget-bits", "12"],
])
def test_a_large_suite_is_refused_in_bounded_time(capsys, monkeypatch, argv):
    # each ran for minutes: the first three suites had no charge, and cactus-relations
    # listed a million weights before its charge
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)

    def timeout(signum, frame):
        raise TimeoutError("the suite's charge took more than 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        start = time.perf_counter()
        assert main(["verify"] + argv) == EXIT_BUDGET
        assert time.perf_counter() - start < 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err.startswith("error: scan needs about 2^")


@pytest.mark.parametrize("n, big_n", [(n, big_n) for n in range(2, 6) for big_n in range(1, 8)])
def test_the_raising_count_is_the_operators_check_singular_applies(n, big_n):
    alg = ExteriorAlgebra(n, big_n)
    assert _raising_count(n, big_n) == len(alg.column_raising) + len(alg.row_raising)


@pytest.mark.parametrize("suite", [
    lambda: suite_thm52((2,), 0, budget_bits=0),
    lambda: suite_thm52((), 3, budget_bits=0),
    lambda: suite_thm51_signs((), budget_bits=0),
], ids=["thm52-no-N", "thm52-no-n", "thm51-no-n"])
def test_a_top_vector_suite_with_no_top_vectors_charges_nothing(suite):
    assert suite()["pass"]
