import argparse
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import types

import answers
import pytest

from spincactus import cli, suites, youngt
from spincactus.celldiag import CellTable
from spincactus.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, VERIFY_OPTIONS, build_parser
from spincactus.cli import OPTIONS, READS, main
from spincactus.crystal import DEFAULT_BUDGET_BITS
from spincactus.errors import BudgetExceededError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_delta(capsys):
    code, out, _ = run(capsys, "enumerate", "delta", "--n", "4", "--N", "7")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "cactus-crystal/1"
    assert [3, 1, 1, -1] in payload["records"]
    assert payload["count"] == len(payload["records"])


def test_enumerate_tables_trailer_matches_chain_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "tables", "--lambda", "2,2,2,0", "--N", "4", "--n", "4"
    )
    assert code == EXIT_OK
    tables = json.loads(out)
    code, out, _ = run(capsys, "enumerate", "sssyt", "--nu", "4,1", "--N", "4", "--n", "4")
    assert code == EXIT_OK
    chains = json.loads(out)
    assert tables["count"] == chains["count"] > 0


def test_enumerate_gtp_nonempty(capsys):
    code, out, _ = run(capsys, "enumerate", "gtp", "--nu", "4,1", "--N", "4", "--n", "4")
    assert code == EXIT_OK
    assert json.loads(out)["count"] > 0


def test_enumerate_rejects_bad_weight(capsys):
    code, _, err = run(capsys, "enumerate", "tables", "--lambda", "1,0", "--N", "4", "--n", "2")
    assert code == EXIT_USAGE
    assert "parity" in err


def test_enumerate_rejects_non_integer_weight(capsys):
    code, _, err = run(capsys, "enumerate", "tables", "--lambda", "1,x", "--N", "3")
    assert code == EXIT_USAGE
    assert "expected comma-separated integers" in err


def test_table_format_trailer(capsys):
    code, out, _ = run(
        capsys, "enumerate", "delta", "--n", "2", "--N", "2", "--format", "table"
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[-1] == "count: 4"


def test_convert_round_trip(capsys):
    table_payload = json.dumps(
        {"steps2": [[1, 1, 1, -1], [1, 1, 1, 1], [1, -1, -1, -1], [1, 1, 1, 1],
                    [1, -1, -1, -1], [-1, 1, 1, -1], [-1, -1, -1, 1]]}
    )
    code, out, _ = run(
        capsys, "convert", "table", "sssyt", "--payload", table_payload, "--check"
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["round_trip_ok"] is True
    assert record["record"]["chain"][-1] == [4, 4, 3, 1]

    code, out, _ = run(
        capsys, "convert", "table", "gtp", "--payload", table_payload,
        "--nu", "4,4,3,1", "--N", "7", "--n", "4", "--check",
    )
    assert code == EXIT_OK
    assert json.loads(out)["round_trip_ok"] is True


def test_convert_rejects_garbage(capsys):
    code, _, err = run(capsys, "convert", "table", "gtp", "--payload", "{nope")
    assert code == EXIT_USAGE
    assert "error" in err


def test_act_identity_and_involution(capsys):
    payload = json.dumps({"steps2": [[1, 1], [1, -1]]})
    code, out, _ = run(capsys, "act", "--word", "", "--payload", payload)
    assert code == EXIT_OK
    assert json.loads(out)["record"]["steps2"] == [[1, 1], [1, -1]]

    code, out, _ = run(capsys, "act", "--word", "s(1,2) s(1,2)", "--payload", payload)
    assert code == EXIT_OK
    body = json.loads(out)
    assert body["record"]["steps2"] == [[1, 1], [1, -1]]
    assert body["shape"] == "unchanged"


def test_act_as_gtp(capsys):
    payload = json.dumps({"steps2": [[1, 1], [1, -1], [1, 1]]})
    code, out, _ = run(capsys, "act", "--word", "s(1,3)", "--payload", payload, "--as", "gtp")
    assert code == EXIT_OK
    assert "betas2" in json.loads(out)["record"]


def test_act_bad_word(capsys):
    payload = json.dumps({"steps2": [[1, 1], [1, -1]]})
    code, _, err = run(capsys, "act", "--word", "s(2,1)", "--payload", payload)
    assert code == EXIT_USAGE


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "thm51-signs")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pass"] is True and report["suite"] == "thm51-signs"


# suite -> (an oracle it reads through suites, a wrong stand-in made from the real one,
# small sizes, the first check that the wrong oracle fails)
WRONG_ORACLES = {
    "crystal-axioms": ("tensor_f_reference", lambda real: lambda *args: None,
                       ["--n", "2", "--N", "2"], "axioms n=2 N=1"),
    "census": ("enumerate_tables", lambda real: lambda shape: [],
               ["--n", "2", "--N", "2"], "per-weight counts n=2 N=1"),
    "commutor": ("w0_image", lambda real: lambda wt: wt,
                 ["--n", "2", "--N", "2"], "xi involution and weight rule n=2 N=1"),
    "cactus-relations": ("word_to_permutation", lambda real: lambda gens, big_n: tuple(gens),
                         ["--n", "2", "--N", "3"], "nested relation holds"),
    "thm2": ("predicted_tensor_weights", lambda real: lambda lam: [],
             ["--n", "2", "--N", "2"], "tensor decomposition n=2 N=1"),
    "thm52": ("kappa", lambda real: lambda lam, big_n: None,
              ["--n", "2", "--N", "2"], "top vectors n=2 N=1"),
    "thm51-signs": ("f_map",  # a partition one box larger flips every negation sign
                    lambda real: lambda d: types.SimpleNamespace(size=lambda: real(d).size() + 1),
                    ["--n", "2"], "negation sign n=2 N=1 lambda2=[1, 1]"),
    "bijections": ("count_sssyt", lambda real: lambda nu: -1,
                   ["--n", "2", "--N", "3"], "table<->chain<->pattern n=2 N=3"),
}


@pytest.mark.parametrize("kind", sorted(suites.SUITES))
def test_verify_exits_1_when_an_oracle_disagrees(capsys, monkeypatch, kind):
    name, wrong, sizes, first_failed = WRONG_ORACLES[kind]
    monkeypatch.setattr(suites, name, wrong(getattr(suites, name)))
    code, out, _ = run(capsys, "verify", kind, *sizes)
    report = json.loads(out)
    assert code == EXIT_FAIL
    assert report["pass"] is False
    assert [c["name"] for c in report["checks"] if not c["pass"]][0] == first_failed


# two words of weight (0,-2) at n=2, N=2 whose xi images are not each other
SWAPPED_WORDS = {(0, 1): (1, 0), (1, 0): (0, 1)}


def _xi_swapping_two_words(real):
    """An XiCache whose xi swaps the images of two words of one weight: the w0 weight rule
    still holds, the involution does not."""
    class Swapped(real):
        def xi_word(self, w):
            return super().xi_word(SWAPPED_WORDS.get(w, w))
    return Swapped


def _weight_wrong_on_an_f_neighbour(real):
    """A crystal whose word_weight of (0, 2) = f_1(0, 1) is that of (0, 1)."""
    class Wrong(real):
        def word_weight(self, w):
            return super().word_weight((0, 1) if w == (0, 2) else w)
    return Wrong


def _act_breaking_one_involution(real):
    """s(1,2) composed with the swap of two tables x, y of one shape, where s(1,2) moves x
    and y is neither x nor its image: still a bijection, no longer an involution."""
    cache = suites.XiCache(suites.SpinCrystal(2))
    for lam in suites.enumerate_delta(2, 3):
        tables = suites.enumerate_tables(suites.diagram_of_weight(lam, 3))
        moved = [t for t in tables if real(cache, [(1, 2)], t) != t]
        if moved and len(tables) > 2:
            x = moved[0]
            y = next(t for t in tables if t not in (x, real(cache, [(1, 2)], x)))
            break
    swap = {x: y, y: x}
    return lambda cache, gens, t: real(cache, gens, swap.get(t, t) if gens == [(1, 2)] else t)


def _act_s34_as_s23(real):
    """s(3,4) acting as s(2,3), an involution that does not commute with s(1,2)."""
    return lambda cache, gens, t: real(cache, [(2, 3)] if gens == [(3, 4)] else gens, t)


# fault -> (suite, the suites attribute replaced, its stand-in from the real one, sizes,
# the first check that must fail, and its detail): one planted fault per check that reads
# a per-word or per-table answer computed once
PLANTED_FAULTS = {
    # the two swapped words, and the two words whose images they are
    "xi-involution": ("commutor", "XiCache", _xi_swapping_two_words, ["--n", "2", "--N", "2"],
                      "xi involution and weight rule n=2 N=2", "4 violations"),
    # one pairing at (0, 2); the weight shifts into (0, 2) from (0, 1) and (3, 2), and out
    # of it by e_1 and e_2
    "weight-shift": ("crystal-axioms", "SpinCrystal", _weight_wrong_on_an_f_neighbour,
                     ["--n", "2", "--N", "2"], "axioms n=2 N=2", "5 violations"),
    "generator-involution": ("cactus-relations", "act_on_table", _act_breaking_one_involution,
                             ["--n", "2", "--N", "3"], "generators are involutions", ""),
    "disjoint-commute": ("cactus-relations", "act_on_table", _act_s34_as_s23,
                         ["--n", "2", "--N", "4"], "disjoint generators commute", ""),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_verify_exits_1_on_a_planted_fault(capsys, monkeypatch, fault):
    kind, name, plant, sizes, first_failed, detail = PLANTED_FAULTS[fault]
    monkeypatch.setattr(suites, name, plant(getattr(suites, name)))
    code, out, _ = run(capsys, "verify", kind, *sizes)
    report = json.loads(out)
    assert code == EXIT_FAIL
    assert report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]][0]
    assert (failed["name"], failed["detail"]) == (first_failed, detail)


def test_the_swapped_xi_keeps_the_weight_rule():
    crystal = suites.SpinCrystal(2)
    cache = _xi_swapping_two_words(suites.XiCache)(crystal)
    for w in crystal.all_words(2):
        image = cache.xi_word(w)
        assert crystal.word_weight(image) == suites.w0_image(crystal.word_weight(w))
    assert any(cache.xi_word(cache.xi_word(w)) != w for w in SWAPPED_WORDS)


def test_verify_budget_exit(capsys):
    code, _, err = run(
        capsys, "verify", "census", "--budget-bits", "10"
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


@pytest.mark.parametrize(
    "dims, bits, expected",
    [
        # the largest scan at the defaults is (Lambda C^3)^{(x)4}, 2^12 words
        ((), 0, EXIT_BUDGET),
        ((), 11, EXIT_BUDGET),
        # at n=2, N=2 the three-factor coboundary check, 2^6 words, is the largest
        (("--n", "2", "--N", "2"), 5, EXIT_BUDGET),
        (("--n", "2", "--N", "2"), 6, EXIT_OK),
    ],
)
def test_verify_commutor_budget_exit(capsys, dims, bits, expected):
    code, out, err = run(capsys, "verify", "commutor", *dims, "--budget-bits", str(bits))
    assert code == expected
    if expected == EXIT_BUDGET:
        assert out == "" and "budget" in err


@pytest.mark.parametrize(
    "dims, bits, expected",
    [
        # the largest scan at the defaults is (Lambda C^3)^{(x)4}, 2^12 words
        ((), 11, EXIT_BUDGET),
        ((), 12, EXIT_OK),
        (("--n", "2", "--N", "6"), 4, EXIT_BUDGET),
        (("--n", "2", "--N", "2"), 4, EXIT_OK),
    ],
)
def test_verify_crystal_axioms_budget_exit(capsys, dims, bits, expected):
    code, out, err = run(capsys, "verify", "crystal-axioms", *dims, "--budget-bits", str(bits))
    assert code == expected
    if expected == EXIT_BUDGET:
        assert out == "" and "budget" in err


@pytest.mark.parametrize(
    "dims, bits, expected",
    [
        # one action per (generator, table): 6 x 60 = 360 at n=2, N=4, 6 x 160 = 960 at n=3
        (("--n", "2", "--N", "4"), 8, EXIT_BUDGET),
        (("--n", "2", "--N", "4"), 9, EXIT_OK),
        (("--n", "3", "--N", "4"), 9, EXIT_BUDGET),
        (("--n", "3", "--N", "4"), 10, EXIT_OK),
    ],
)
def test_verify_cactus_relations_budget_exit(capsys, dims, bits, expected):
    code, out, err = run(
        capsys, "verify", "cactus-relations", *dims, "--budget-bits", str(bits)
    )
    assert code == expected
    if expected == EXIT_BUDGET:
        assert out == "" and "budget" in err


def test_export_crystal_graph_dot(capsys):
    code, out, _ = run(
        capsys, "export", "crystal-graph", "--n", "2", "--N", "1", "--format", "dot"
    )
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert out.count("->") == 2


def test_export_component(capsys):
    payload = json.dumps({"steps2": [[1, 1], [1, 1]]})
    code, out, _ = run(
        capsys, "export", "component", "--n", "2", "--N", "2",
        "--payload", payload, "--format", "dot",
    )
    assert code == EXIT_OK
    assert out.startswith("digraph")


def test_export_orbit(capsys):
    payload = json.dumps({"steps2": [[1, 1], [1, -1]]})
    code, out, _ = run(
        capsys, "export", "orbit", "--n", "2", "--N", "2",
        "--payload", payload, "--word", "s(1,2)",
    )
    assert code == EXIT_OK
    assert "orbit" in json.loads(out)


EXPORTS = [
    ["export", "orbit", "--word", "s(1,2)", "--payload", '{"steps2": [[1, 1], [1, -1]]}'],
    ["export", "crystal-graph", "--n", "2", "--N", "2", "--format", "dot"],
]


@pytest.mark.parametrize("argv", EXPORTS)
def test_export_out_writes_what_stdout_shows(capsys, tmp_path, argv):
    code, shown, _ = run(capsys, *argv)
    assert code == EXIT_OK
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (EXIT_OK, "", "")
    # the file holds the text without print's final newline
    assert target.read_text() + "\n" == shown


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_export_out_unwritable_is_a_usage_error(capsys, tmp_path, where):
    target = tmp_path / "no" / "such" / "o.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, *EXPORTS[0], "--out", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    assert main(["enumerate", "nonsense"]) == EXIT_USAGE


def test_worked_table_count_matches_chain_count(capsys):
    from spincactus.youngt import ShortYoungDiagram, count_sssyt

    code, out, _ = run(
        capsys, "enumerate", "tables", "--lambda", "3,1,1,-1", "--N", "7", "--n", "4"
    )
    assert code == EXIT_OK
    assert json.loads(out)["count"] == count_sssyt(ShortYoungDiagram((4, 4, 3, 1), 7, 4))


def test_determinism(capsys):
    first = run(capsys, "enumerate", "tables", "--lambda", "1,1", "--N", "3", "--n", "2")
    second = run(capsys, "enumerate", "tables", "--lambda", "1,1", "--N", "3", "--n", "2")
    assert first == second


def test_missing_dims_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "delta")
    assert code == EXIT_USAGE and "required" in err
    code, _, err = run(capsys, "enumerate", "tables", "--lambda", "1,1")
    assert code == EXIT_USAGE


def test_export_infers_dims_from_payload(capsys):
    payload = json.dumps({"steps2": [[1, 1], [1, -1]]})
    code, out, _ = run(capsys, "export", "component", "--payload", payload, "--format", "dot")
    assert code == EXIT_OK and out.startswith("digraph")


def test_convert_gtp_to_table(capsys):
    pattern = json.dumps({"betas2": [[8, -2], [4]], "z": -2})
    code, out, _ = run(
        capsys, "convert", "gtp", "table", "--payload", pattern,
        "--nu", "4,1", "--N", "4", "--n", "4",
    )
    assert code == EXIT_OK
    steps = json.loads(out)["record"]["steps2"]
    assert len(steps) == 4 and steps[0] in ([1, 1, 1, 1], [1, 1, 1, -1])


def test_act_as_sssyt(capsys):
    payload = json.dumps({"steps2": [[1, 1], [1, -1], [1, 1]]})
    code, out, _ = run(capsys, "act", "--word", "s(2,3)", "--payload", payload, "--as", "sssyt")
    assert code == EXIT_OK
    assert "chain" in json.loads(out)["record"]


def test_nu_with_interior_zero_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "sssyt", "--nu", "4,0,1", "--N", "6", "--n", "4")
    assert code == EXIT_USAGE


def test_every_verify_suite_passes_small(capsys):
    from spincactus.cli import VERIFY_OPTIONS
    from spincactus.suites import SUITES

    assert set(VERIFY_OPTIONS) == set(SUITES)
    for name in sorted(SUITES):
        dims = ("--N", "3") if "N" in VERIFY_OPTIONS[name] else ()
        code, out, _ = run(capsys, "verify", name, "--n", "2", *dims)
        assert code == EXIT_OK, name
        report = json.loads(out)
        assert report["pass"] is True and report["schema"] == "cactus-crystal/1"


WORKED_TABLE = json.dumps(
    {"steps2": [[1, 1, 1, -1], [1, 1, 1, 1], [1, -1, -1, -1], [1, 1, 1, 1],
                [1, -1, -1, -1], [-1, 1, 1, -1], [-1, -1, -1, 1]]}
)


def test_act_needs_no_budget(capsys):
    # xi walks one path instead of building a component, so even a tiny
    # budget lets the full reversal of the worked table through
    code, out, _ = run(
        capsys, "act", "--word", "s(1,7)", "--budget-bits", "4", "--payload", WORKED_TABLE
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["record"]["steps2"]) == 7


# nested past the JSON decoder's recursion limit; the stdin of every case below
DEEP_PAYLOAD = "[" * 2000

MALFORMED = [
    ["act", "--word", "s(1,2)", "--payload", "{}"],
    ["act", "--word", "s(1,2)", "--payload", "[1]"],
    ["act", "--word", "s(1,2)", "--payload", '{"steps2": 5}'],
    ["act", "--word", "s(1,2)", "--payload", '{"steps2": [[1, "a"]]}'],
    ["act", "--word", "", "--payload", '{"steps2": [[Infinity, 1]]}'],
    ["convert", "sssyt", "table", "--n", "2", "--payload", "[]"],
    ["convert", "gtp", "table", "--nu", "4,1", "--N", "4", "--n", "4",
     "--payload", '{"betas2": 3, "z": 1}'],
    ["convert", "gtp", "table", "--nu", "4,1",
     "--payload", '{"betas2": [[8, -2], [4]], "z": -2}'],
    ["verify", "census", "--N", "2", "--budget-bits", "-1"],
    ["verify", "census", "--N", "2", "--budget-bits", "25"],
    # numbers in records must be integers, not floats, booleans or strings
    ["act", "--word", "", "--payload", '{"steps2": [[1.5, 1]]}'],
    ["act", "--word", "", "--payload", '{"steps2": [[1, 1], [true, -1]]}'],
    ["convert", "gtp", "table", "--N", "4", "--n", "4", "--nu", "4,1",
     "--payload", '{"betas2": [[8, -2], [4]], "z": -2.7}'],
    ["convert", "sssyt", "table", "--n", "4",
     "--payload", '{"chain": [[1.9], [2], [2, 1], [4, 1]]}'],
    ["convert", "sssyt", "table",
     "--payload", '{"chain": [[1], [2], [2, 1], [4, 1]], "n": 4.0}'],
    # a tensor power below 1 would verify nothing
    ["verify", "census", "--N", "0"],
    ["verify", "census", "--N", "-3"],
    ["verify", "thm2", "--N", "-1"],
    ["verify", "bijections", "--N", "0"],
    ["verify", "crystal-axioms", "--N", "0"],
    ["verify", "commutor", "--N", "0"],
    ["verify", "cactus-relations", "--N", "0"],
    ["verify", "thm52", "--N", "0"],
    # a format the command cannot write
    ["export", "component", "--format", "json", "--payload", '{"steps2": [[1, 1], [1, -1]]}'],
    ["export", "component", "--format", "table", "--payload", '{"steps2": [[1, 1], [1, -1]]}'],
    ["export", "orbit", "--format", "dot", "--payload", '{"steps2": [[1, 1], [1, -1]]}'],
    ["export", "orbit", "--format", "table", "--payload", '{"steps2": [[1, 1], [1, -1]]}'],
    ["export", "crystal-graph", "--n", "2", "--N", "2", "--format", "table"],
    ["verify", "census", "--N", "2", "--format", "table"],
    ["verify", "thm52", "--format", "dot"],
    ["enumerate", "delta", "--n", "2", "--N", "2", "--format", "dot"],
    ["convert", "table", "sssyt", "--format", "dot", "--payload", '{"steps2": [[1, 1]]}'],
    ["act", "--word", "s(1,2)", "--format", "dot", "--payload", '{"steps2": [[1, 1], [1, -1]]}'],
    # an option the suite does not read
    ["verify", "thm51-signs", "--N", "7"],
    ["verify", "thm2", "--seed", "5"],
    ["verify", "commutor", "--seed", "5"],
    ["verify", "crystal-axioms", "--seed", "5"],
    # --seed is read by the thm52 suite alone
    ["verify", "bijections", "--seed", "5"],
    ["verify", "cactus-relations", "--seed", "5"],
    ["verify", "census", "--seed", "5"],
    ["verify", "commutor", "--seed", "5"],
    ["verify", "crystal-axioms", "--seed", "5"],
    ["verify", "thm2", "--seed", "5"],
    ["verify", "thm51-signs", "--seed", "5"],
    # a chain bound below 2 would check no table<->chain<->pattern round trip
    ["verify", "bijections", "--n", "1"],
    ["verify", "bijections", "--n", "0"],
    # round trips start at length 3; a smaller --N is not raised to 3
    ["verify", "bijections", "--N", "2"],
    ["verify", "bijections", "--N", "1"],
    # a tensor power below 1 has no crystal graph; -1 used to end in a traceback
    ["export", "crystal-graph", "--n", "2", "--N", "-1"],
    ["export", "crystal-graph", "--n", "2", "--N", "0"],
    # a chain of a height-0 shape would have no entry at height 1
    ["enumerate", "sssyt", "--nu", "0", "--N", "0", "--n", "2"],
    # DEEP_PAYLOAD, by --payload or on stdin, used to end in a traceback
    ["act", "--word", "s(1,2)", "--payload", DEEP_PAYLOAD],
    ["convert", "table", "sssyt", "--payload", DEEP_PAYLOAD],
    ["export", "component", "--payload", DEEP_PAYLOAD],
    ["export", "orbit", "--payload", DEEP_PAYLOAD],
    ["act", "--word", "s(1,2)"],
    ["convert", "table", "sssyt"],
    ["export", "component"],
    ["export", "orbit"],
    # N=1 has no generator s(p, q), so the suite would check nothing
    ["verify", "cactus-relations", "--N", "1"],
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_PAYLOAD))
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize("raw", ["abc", "-1", "25"])
def test_malformed_budget_env_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("CACTUS_BUDGET_BITS", raw)
    code, _, err = run(capsys, "verify", "census", "--N", "2")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


TWO_BY_TWO = '{"steps2": [[1, 1], [1, -1]]}'
THREE_BY_TWO = '{"steps2": [[1, 1], [1, -1], [1, 1]]}'
CHAIN = '{"chain": [[1], [2], [2, 1], [4, 1]], "n": 4}'

# (argv, the flag the command refuses): options a command does not declare, options a
# suite does not read, and dimensions that contradict the weight or the payload table
REFUSED = [
    (["act", "--word", "", "--payload", TWO_BY_TWO, "--n", "2"], "--n"),
    (["act", "--word", "", "--payload", TWO_BY_TWO, "--N", "2"], "--N"),
    (["act", "--word", "", "--payload", TWO_BY_TWO, "--seed", "3"], "--seed"),
    (["enumerate", "delta", "--n", "2", "--N", "2", "--payload", "{}"], "--payload"),
    (["enumerate", "delta", "--n", "2", "--N", "2", "--seed", "1"], "--seed"),
    (["convert", "table", "sssyt", "--payload", TWO_BY_TWO, "--nu", "1"], "--nu"),
    (["convert", "table", "sssyt", "--payload", TWO_BY_TWO, "--seed", "1"], "--seed"),
    (["export", "orbit", "--payload", TWO_BY_TWO, "--seed", "1"], "--seed"),
    *[(argv, "--seed") for argv in MALFORMED if "--seed" in argv],
    (["export", "component", "--n", "7", "--N", "9", "--payload", TWO_BY_TWO], "--n"),
    (["export", "orbit", "--N", "3", "--payload", TWO_BY_TWO], "--N"),
    (["enumerate", "tables", "--lambda", "1,1", "--N", "3", "--n", "5"], "--n"),
    # options a kind does not read: only some kinds of a command read them
    (["enumerate", "delta", "--n", "2", "--N", "3", "--lambda", "1,1"], "--lambda"),
    (["enumerate", "delta", "--n", "2", "--N", "3", "--nu", "4,1"], "--nu"),
    (["enumerate", "diagrams", "--n", "2", "--N", "3", "--lambda", "1,1"], "--lambda"),
    (["enumerate", "diagrams", "--n", "2", "--N", "3", "--nu", "4,1"], "--nu"),
    (["enumerate", "tables", "--lambda", "1,1", "--N", "3", "--nu", "9,9"], "--nu"),
    (["enumerate", "sssyt", "--nu", "4,1", "--N", "4", "--n", "4", "--lambda", "1,1"],
     "--lambda"),
    (["enumerate", "gtp", "--nu", "4,1", "--N", "4", "--n", "4", "--lambda", "1,1"], "--lambda"),
    (["convert", "table", "gtp", "--payload", THREE_BY_TWO, "--nu", "3"], "--nu"),
    (["convert", "table", "gtp", "--payload", THREE_BY_TWO, "--n", "7"], "--n"),
    (["convert", "table", "gtp", "--payload", THREE_BY_TWO, "--N", "8"], "--N"),
    (["convert", "table", "sssyt", "--payload", TWO_BY_TWO, "--nu", "4,1"], "--nu"),
    (["convert", "table", "sssyt", "--payload", TWO_BY_TWO, "--n", "9"], "--n"),
    (["convert", "table", "sssyt", "--payload", TWO_BY_TWO, "--check", "--N", "9"], "--N"),
    (["convert", "sssyt", "table", "--payload", CHAIN, "--N", "4"], "--N"),
    (["convert", "sssyt", "table", "--payload", CHAIN, "--nu", "4,1"], "--nu"),
    (["export", "crystal-graph", "--n", "2", "--N", "2", "--payload", "{}"], "--payload"),
    (["export", "crystal-graph", "--n", "2", "--N", "2", "--word", "garbage"], "--word"),
    (["export", "component", "--payload", TWO_BY_TWO, "--word", "s(1,2)"], "--word"),
    # an explicit --n must be the payload chain's n
    (["convert", "sssyt", "table", "--n", "9", "--payload", CHAIN], "--n"),
    (["convert", "table", "sssyt", "--check", "--n", "9", "--payload", THREE_BY_TWO], "--n"),
]


@pytest.mark.parametrize("argv, flag", REFUSED)
def test_refused_option_exits_2_naming_it(capsys, monkeypatch, argv, flag):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and flag in err


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_declares_only_the_options_it_reads():
    declared = {
        name: sorted(flag for action in sub._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))
        for name, sub in _subparsers(build_parser()).items()
    }
    assert declared == {
        "enumerate": ["--N", "--budget-bits", "--format", "--lambda", "--n", "--nu"],
        "convert": ["--N", "--budget-bits", "--check", "--format", "--n", "--nu", "--payload"],
        "act": ["--as", "--budget-bits", "--format", "--payload", "--word"],
        "verify": ["--N", "--budget-bits", "--format", "--n", "--seed"],
        "export": ["--N", "--budget-bits", "--format", "--n", "--out", "--payload", "--word"],
    }


def test_verify_options_name_suite_parameters():
    assert set(VERIFY_OPTIONS) == set(suites.SUITES)
    for name, reads in VERIFY_OPTIONS.items():
        params = inspect.signature(suites.SUITES[name]).parameters
        assert all(param in params for param, _ in reads.values()), name
    assert [name for name, reads in VERIFY_OPTIONS.items() if "seed" in reads] == ["thm52"]


def test_verify_without_options_keeps_the_suite_defaults(capsys, monkeypatch):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    calls = {}
    for name in suites.SUITES:
        def record(_name=name, **kwargs):
            calls[_name] = kwargs
            return {"pass": True}
        monkeypatch.setitem(suites.SUITES, name, record)
    for name in suites.SUITES:
        assert run(capsys, "verify", name)[0] == EXIT_OK
    assert calls == {
        name: {"budget_bits": DEFAULT_BUDGET_BITS} if "budget_bits" in VERIFY_OPTIONS[name] else {}
        for name in suites.SUITES
    }


PATTERN = '{"betas2": [[8, -2], [4]], "z": -2}'

# a valid argv for each row that requires an option: its positionals, then flag -> value
REQUIRING = {
    ("enumerate", "delta"): (["enumerate", "delta"], {"--n": "2", "--N": "3"}),
    ("enumerate", "diagrams"): (["enumerate", "diagrams"], {"--n": "2", "--N": "3"}),
    ("enumerate", "tables"): (["enumerate", "tables"], {"--lambda": "1,1", "--N": "3"}),
    ("enumerate", "sssyt"): (["enumerate", "sssyt"], {"--nu": "4,1", "--N": "4", "--n": "4"}),
    ("enumerate", "gtp"): (["enumerate", "gtp"], {"--nu": "4,1", "--N": "4", "--n": "4"}),
    ("convert", "gtp"): (["convert", "gtp", "table", "--payload", PATTERN],
                         {"--nu": "4,1", "--N": "4", "--n": "4"}),
    ("act", ""): (["act", "--payload", TWO_BY_TWO], {"--word": "s(1,2)"}),
    ("export", "crystal-graph"): (["export", "crystal-graph"], {"--n": "2", "--N": "2"}),
}


def test_every_row_with_a_required_option_has_a_case():
    rows = {(command, kind) for command, kinds in READS.items()
            for kind, (_, required, _) in kinds.items() if required}
    assert rows == set(REQUIRING)


@pytest.mark.parametrize("row", sorted(REQUIRING), ids=lambda row: "-".join(filter(None, row)))
def test_missing_required_option_exits_2_naming_it(capsys, monkeypatch, row):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    command, kind = row
    head, options = REQUIRING[row]
    assert run(capsys, *head, *(x for item in options.items() for x in item))[0] == EXIT_OK
    for option in READS[command][kind][1]:
        flag = OPTIONS[option][0]
        rest = [x for item in options.items() if item[0] != flag for x in item]
        code, out, err = run(capsys, *head, *rest)
        assert code == EXIT_USAGE and out == ""
        assert f"{flag} is required for {command} {kind}".rstrip() in err


def test_convert_check_reads_the_target_row(capsys):
    head = ["convert", "table", "gtp", "--payload", WORKED_TABLE]
    code, out, err = run(capsys, *head, "--check")
    assert code == EXIT_USAGE and out == ""
    assert "--nu is required for convert gtp" in err
    dims = ["--nu", "4,4,3,1", "--N", "7", "--n", "4"]
    code, _, err = run(capsys, *head, *dims)
    assert code == EXIT_USAGE and "--nu is not read by convert table" in err
    code, out, _ = run(capsys, *head, *dims, "--check")
    assert code == EXIT_OK and json.loads(out)["round_trip_ok"] is True


def test_convert_check_exits_1_when_the_round_trip_fails(capsys, monkeypatch):
    # j_inverse answers with the next chain of the shape, so the pattern read back differs
    from spincactus import youngt

    j_inverse = youngt.j_inverse

    def next_chain(p, v):
        chains = youngt.enumerate_sssyt(v)
        return chains[(chains.index(j_inverse(p, v)) + 1) % len(chains)]

    monkeypatch.setattr(youngt, "j_inverse", next_chain)
    code, out, err = run(capsys, "convert", "table", "gtp", "--payload", WORKED_TABLE,
                         "--nu", "4,4,3,1", "--N", "7", "--n", "4", "--check")
    assert code == EXIT_FAIL and err == ""
    assert json.loads(out)["round_trip_ok"] is False


# usage errors raised below the CLI, each with its message
DEEP_USAGE_ERRORS = [
    (["act", "--word", "s(1,2) x s(2,3)", "--payload", THREE_BY_TWO],
     "cannot parse cactus word near: ' x s(2,3)'"),
    (["act", "--word", "s(1,9)", "--payload", THREE_BY_TWO],
     "generator s(1,9) exceeds word length 3"),
    (["convert", "sssyt", "table", "--payload", '{"chain": [[1], [1, 1]]}'],
     "width bound n is required to read a chain"),
    (["convert", "gtp", "table", "--nu", "1", "--N", "3", "--n", "2",
      "--payload", '{"betas2": [], "z": 0}'],
     "a pattern has at least the rank-3 row"),
    (["convert", "gtp", "table", "--nu", "1", "--N", "4", "--n", "2",
      "--payload", '{"betas2": [[2]], "z": 0}'],
     "pattern top rank 3 does not match shape height 4"),
    (["enumerate", "delta", "--n", "1", "--N", "3"], "height must be at least 2, got 1"),
    (["enumerate", "gtp", "--nu", "1", "--N", "2", "--n", "2"],
     "patterns are only defined for ambient height >= 3"),
    (["convert", "table", "table", "--payload", '{"steps2": []}'],
     "a table has at least one step"),
]


@pytest.mark.parametrize("argv, message", DEEP_USAGE_ERRORS)
def test_deep_usage_errors_exit_2_with_their_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_each_command_declares_the_union_of_its_rows():
    commands = _subparsers(build_parser())
    assert list(commands) == list(READS)
    for name, sub in commands.items():
        rows = READS[name]
        flags = {flag for action in sub._actions for flag in action.option_strings}
        reads = {OPTIONS[option][0] for options, _, _ in rows.values() for option in options}
        assert flags - {"-h", "--help"} == reads | {"--format"}, name
        positionals = [action for action in sub._actions if not action.option_strings]
        assert all(list(action.choices) == list(rows) for action in positionals), name
        assert [action.dest for action in positionals[:1]] == (["kind"] if positionals else [])
    assert list(READS["act"]) == [""]


def _declared(sub):
    return [(type(a), a.option_strings, a.dest, a.choices, a.help, a.default, a.type, a.nargs,
             a.required) for a in sub._actions]


@pytest.mark.parametrize("command", list(READS))
def test_a_named_command_declares_its_own_options_alone(command):
    full, named = build_parser(), build_parser(command)
    assert named.format_usage() == full.format_usage()
    named_subs = _subparsers(named)
    assert list(named_subs) == [command]
    sub, full_sub = named_subs[command], _subparsers(full)[command]
    assert sub._defaults == full_sub._defaults
    assert _declared(sub) == _declared(full_sub)
    assert sub.format_usage() == full_sub.format_usage()


def _full_parser_exit(capsys, argv):
    """The exit code, stdout and stderr of the parser declaring every command on argv."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["--help"], ["-h", "act"], ["--he", "act"]]
                         + [[command, "--help"] for command in READS])
def test_help_is_the_full_parsers(capsys, argv):
    code, out, err = _full_parser_exit(capsys, argv)
    assert (code, err) == (0, "") and out.startswith("usage: spincactus")
    assert run(capsys, *argv) == (EXIT_OK, out, "")


WORD = ("--word", "s(1,2)")
PARSE_ERRORS = [
    [],  # no command
    ["bogus"],
    ["--n", "3", "act"],
    ["enumerate"],  # no kind
    ["export", "--n", "2"],
    ["convert", "table"],  # no target
    ["enumerate", "bogus"],
    ["act", *WORD, "--lambda", "1"],  # options the command does not declare
    ["verify", "census", "--n", "2", "--out", "f"],
    ["convert", "table", "gtp", "--check", "--lambda", "1"],
    ["act", *WORD, "stray"],  # tokens the command leaves go back to the top level
    ["act", *WORD, "--", "x"],
    ["--foo", "act", *WORD],  # an option before the command
    ["act", *WORD, "--as", "bogus"],  # a bad choice
    ["enumerate", "delta", "--n", "x"],
    ["export", "orbit", "--word"],
]


@pytest.mark.parametrize("argv", PARSE_ERRORS)
def test_parse_errors_are_the_full_parsers(capsys, argv):
    code, out, err = _full_parser_exit(capsys, argv)
    assert code == EXIT_USAGE and err.startswith("usage: spincactus")
    assert run(capsys, *argv) == (EXIT_USAGE, out, err)


@pytest.mark.parametrize("argv, command", [
    (["act", *WORD, "--payload", '{"steps2": [[1, 1]]}'], "act"),
    (["verify", "census", "--n", "2"], "verify"),
    # any argv that does not start with a command gets the full parser
    (["-h", "export"], None),
    (["--n", "3", "act"], None),
    (["bogus", "act"], None),
    ([], None),
])
def test_main_builds_the_options_of_the_named_command(capsys, monkeypatch, argv, command):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda name=None: built.append(name) or real(name))
    run(capsys, *argv)
    assert built == [command]


@pytest.mark.parametrize("argv", [argv for argv in answers.COMMANDS if argv[0] != "demo"]
                         + [["act", "--wor", "s(1,2)"], ["convert", "table", "gtp", "--ch"]],
                         ids=answers.key)
def test_a_named_parser_parses_as_the_full_parser(argv):
    assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))


def test_main_reads_the_process_arguments(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["spincactus", "act", "--help"])
    assert main() == EXIT_OK
    assert capsys.readouterr().out == _subparsers(build_parser())["act"].format_help()


@pytest.mark.parametrize("big_n", ["2", "1"])
def test_bijections_refuses_lengths_below_three(capsys, big_n):
    code, out, err = run(capsys, "verify", "bijections", "--N", big_n)
    assert code == EXIT_USAGE and out == ""
    assert "--N must be at least 3" in err


def test_bijections_reads_lengths_from_three(capsys, monkeypatch):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    seen = []
    monkeypatch.setitem(suites.SUITES, "bijections",
                        lambda **kwargs: seen.append(kwargs) or {"pass": True})
    assert run(capsys, "verify", "bijections", "--N", "3")[0] == EXIT_OK
    assert run(capsys, "verify", "bijections", "--N", "5")[0] == EXIT_OK
    budget = {"budget_bits": DEFAULT_BUDGET_BITS}
    assert seen == [{"chain_big_ns": (3,), **budget}, {"chain_big_ns": (3, 4, 5), **budget}]


@pytest.mark.parametrize("suite", ["thm52", "thm51-signs", "bijections"])
def test_top_vector_and_bijection_suites_read_the_budget(capsys, monkeypatch, suite):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    code, out, err = run(capsys, "verify", suite, "--budget-bits", "0")
    assert (code, out) == (EXIT_BUDGET, "") and err.startswith("error: scan needs about 2^")
    assert run(capsys, "verify", suite, "--budget-bits", "16")[0] == EXIT_OK


# a length-5 table: its pattern holds 5 * 5 // 4 - 1 = 5 entries, past 2^2 nodes
FIVE_STEPS = '{"steps2": [[1, 1], [1, -1], [1, 1], [1, -1], [1, 1]]}'


@pytest.mark.parametrize("bits, status", [("2", EXIT_BUDGET), ("3", EXIT_OK)])
def test_convert_charges_a_pattern_against_its_budget(capsys, monkeypatch, bits, status):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    argv = ["convert", "table", "gtp", "--payload", FIVE_STEPS]
    assert run(capsys, *argv, "--budget-bits", bits)[0] == status
    monkeypatch.setenv("CACTUS_BUDGET_BITS", bits)
    assert run(capsys, *argv)[0] == status


# the worked table as each kind's record, and the options a gtp record needs
WORKED = youngt.y_map(CellTable.from_json(json.loads(WORKED_TABLE)))
RECORDS = {"table": WORKED_TABLE, "sssyt": json.dumps(WORKED.to_json()),
           "gtp": json.dumps(youngt.j_map(WORKED).to_json())}
GTP_DIMS = ["--nu", "4,4,3,1", "--N", "7", "--n", "4"]


def _row_argv(command, kind):
    """A valid argv for one READS row; a convert row converts to its own kind."""
    if (command, kind) in REQUIRING:
        head, options = REQUIRING[command, kind]
        return head + [x for item in options.items() for x in item]
    if command == "convert":
        return ["convert", kind, kind, "--payload", RECORDS[kind]] + GTP_DIMS * (kind == "gtp")
    if command == "export":
        return ["export", kind, "--payload", TWO_BY_TWO]
    return [command, kind]


EVERY_BUDGETED_ARGV = [_row_argv(command, kind) for command, kinds in READS.items()
                       for kind in kinds] + [
    ["convert", kind, target, "--payload", RECORDS[kind], "--check"]
    + GTP_DIMS * ("gtp" in (kind, target))
    for kind in READS["convert"] for target in READS["convert"]]


def _argv_id(argv):
    return "-".join([x for x in argv[:3] if not x.startswith(("-", "{"))]
                    + ["check"] * ("--check" in argv))


@pytest.mark.parametrize("argv", EVERY_BUDGETED_ARGV, ids=_argv_id)
def test_every_command_refuses_an_unusable_budget(capsys, monkeypatch, argv):
    # the budget is resolved before any command runs, whether or not the command charges it
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    for name in suites.SUITES:
        monkeypatch.setitem(suites.SUITES, name, lambda **kwargs: {"pass": True})
    assert run(capsys, *argv, "--budget-bits", "20")[0] == EXIT_OK
    for bits in ("-1", "25"):
        assert run(capsys, *argv, "--budget-bits", bits) == (
            EXIT_USAGE, "", f"error: budget_bits must be in 0..24, got {bits}\n")
    monkeypatch.setenv("CACTUS_BUDGET_BITS", "abc")
    assert run(capsys, *argv) == (
        EXIT_USAGE, "", "error: CACTUS_BUDGET_BITS must be an integer, got 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["export", "crystal-graph", "--n", "2", "--N", "10000000000"],
    ["export", "crystal-graph", "--n", "10000000000", "--N", "1"],
    ["verify", "crystal-axioms", "--N", "10000000000"],
    ["verify", "commutor", "--N", "10000000000"],
    ["verify", "cactus-relations", "--n", "10000000000"],
])
def test_an_absurd_power_or_rank_is_refused_at_once(capsys, monkeypatch, argv):
    # a word count of n*N bits would be gigabytes: the charge stops at 2^65536 words
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
    start = time.perf_counter()
    assert run(capsys, *argv) == (EXIT_BUDGET, "", f"error: {BudgetExceededError(65536, 20)}\n")
    assert time.perf_counter() - start < 1


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, status", [
    (["verify", "thm51-signs"], EXIT_OK),
    (["verify", "census", "--budget-bits", "0"], EXIT_BUDGET),
    (["act", "--word", "s(1,2)", "--payload", '{"steps2": [[1.5, 1]]}'], EXIT_USAGE),
])
def test_module_entry_point_exit_status(argv, status):
    """`python -m spincactus.cli` in its own process returns main's status as the exit status."""
    env = {key: value for key, value in os.environ.items() if key != "CACTUS_BUDGET_BITS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-m", "spincactus.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == status, done.stderr


@pytest.mark.parametrize("argv", [["verify", suite, "--n", "100000000"] for suite in (
    "census", "crystal-axioms", "commutor", "thm2", "thm52", "thm51-signs")]
    + [["verify", "bijections", "--N", "100000000"]], ids=lambda argv: argv[1])
def test_a_huge_span_of_ranks_is_refused_before_it_is_listed(argv):
    # the tuple of 10^8 ranks alone is past a 1 GiB address space: listed before the
    # charge, it ended in a MemoryError traceback with exit 1
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {key: value for key, value in os.environ.items() if key != "CACTUS_BUDGET_BITS"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "spincactus.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (EXIT_BUDGET, "")
    assert done.stderr.startswith("error: scan needs about 2^"), done.stderr
