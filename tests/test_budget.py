"""The node budget: one check of budget_bits and one bounded closure for every scan."""

import hashlib
import json

import answers
import pytest

from spincactus.cactus import XiCache, orbit, parse_cactus_word
from spincactus.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from spincactus.celldiag import diagram_of_weight, enumerate_delta, enumerate_tables
from spincactus.crystal import SpinCrystal, closure, crystal_dot, node_limit
from spincactus.errors import BudgetExceededError, ValidationError
from spincactus.suites import XiTableReference, suite_cactus_relations, suite_crystal_axioms

CRYSTAL = SpinCrystal(2)
TOP = CRYSTAL.to_highest_weight((0, 0))
TABLE = enumerate_tables(diagram_of_weight(enumerate_delta(3, 4)[1], 4))[0]
GENS = parse_cactus_word("s(1,2) s(2,3) s(3,4)")

# every budgeted entry point, as a call taking budget_bits
ENTRY_POINTS = {
    "component_members": lambda bits: CRYSTAL.component_members((0, 0), bits),
    "components": lambda bits: CRYSTAL.components(2, bits),
    "highest_weight_words": lambda bits: CRYSTAL.highest_weight_words(2, bits),
    "decompose_component_tensor": lambda bits: CRYSTAL.decompose_component_tensor(TOP, bits),
    "crystal_dot": lambda bits: crystal_dot(CRYSTAL, 2, bits),
    "crystal_dot_words": lambda bits: crystal_dot(CRYSTAL, 2, bits, words=[(0, 0)]),
    "orbit": lambda bits: orbit(XiCache(SpinCrystal(3), bits), TABLE, GENS),
    "XiTableReference": lambda bits: XiTableReference(CRYSTAL, bits).xi_word((0, 0)),
    "XiCache": lambda bits: XiCache(CRYSTAL, bits),
    "suite_crystal_axioms": lambda bits: suite_crystal_axioms((2,), 1, bits),
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
    # the members, and the reference xi table, which holds one image per member
    sizes = set()
    for n, big_n in ((2, 3), (3, 2)):
        crystal = SpinCrystal(n)
        for comp in crystal.components(big_n):
            sizes.add(comp.size)
            assert_tight(lambda bits: crystal.component_members(comp.hw_word, bits)[1], comp.size)
            assert_tight(lambda bits: XiTableReference(crystal, bits)._build(comp.hw_word),
                         comp.size)
    assert sizes == {1, 2, 4, 6, 10, 15}


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


# commands whose crystal's rank (height bits, or n*N for the whole graph) exceeds the budget
PAST_THE_BUDGET = [
    ["act", "--word", "", "--budget-bits", "4", "--payload", one_step(16)],
    ["act", "--word", "", "--payload", one_step(21)],
    ["export", "component", "--budget-bits", "4", "--payload", one_step(16)],
    ["export", "orbit", "--budget-bits", "4", "--payload", one_step(16)],
    ["export", "crystal-graph", "--n", "16", "--N", "1", "--budget-bits", "4"],
    ["export", "crystal-graph", "--n", "3", "--N", "4", "--budget-bits", "11"],
]


@pytest.mark.parametrize("argv", PAST_THE_BUDGET)
def test_cli_charges_the_crystal_rank_before_building_it(capsys, monkeypatch, argv):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    built = []

    def refuse(self, n):
        built.append(n)
        raise AssertionError("crystal built past the budget")

    monkeypatch.setattr(SpinCrystal, "__init__", refuse)
    assert main(argv) == EXIT_BUDGET
    assert built == []
    assert capsys.readouterr().err.startswith("error: scan needs about 2^")


@pytest.mark.parametrize("argv, code, rank", [
    (["act", "--word", "s(1,2)", "--budget-bits", "3", "--payload", '{"steps2": [[1, 1, 1], [1, -1, -1]]}'],
     EXIT_OK, 3),
    (["export", "orbit", "--budget-bits", "2", "--payload", '{"steps2": [[1, 1], [1, -1]]}'], EXIT_OK, 2),
    (["export", "crystal-graph", "--n", "2", "--N", "2", "--budget-bits", "4"], EXIT_OK, 2),
    # a rank below 2 is refused as invalid, not as too big
    (["export", "crystal-graph", "--n", "1", "--N", "30"], EXIT_USAGE, 1),
])
def test_cli_builds_the_crystal_within_the_budget(capsys, monkeypatch, argv, code, rank):
    built = []
    init = SpinCrystal.__init__

    def record(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(SpinCrystal, "__init__", record)
    assert main(argv) == code
    assert built == [rank]
    capsys.readouterr()


@pytest.mark.parametrize(
    "scan",
    [
        lambda c, bits: c.highest_weight_words(4, bits),
        lambda c, bits: c.hw_census(4, bits),
        lambda c, bits: c.components(4, bits),
    ],
)
def test_stored_tops_are_charged_on_every_call(scan):
    crystal = SpinCrystal(2)
    crystal.highest_weight_words(4, 20)  # 8 bits of words, now stored
    scan(crystal, 8)
    with pytest.raises(BudgetExceededError) as info:
        scan(crystal, 7)
    assert (info.value.needed_bits, info.value.budget_bits) == (8, 7)


# the corpus's bounded enumerations: tables, chains and patterns of one shape
ENUMERATIONS = [argv for argv in answers.COMMANDS
                if argv[:2] in (["enumerate", kind] for kind in ("tables", "sssyt", "gtp"))]


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
def test_weight_enumerations_do_not_read_the_budget(capsys, kind):
    assert main(["enumerate", kind, "--n", "2", "--N", "3", "--budget-bits", "5"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --budget-bits is not read by enumerate {kind}\n"
