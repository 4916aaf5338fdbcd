import argparse
import inspect
import json

import pytest

from spincactus import suites
from spincactus.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, VERIFY_OPTIONS, build_parser, main
from spincactus.cli import OPTIONS, READS
from spincactus.crystal import DEFAULT_BUDGET_BITS


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
        # N=1 has no generators and no work
        (("--n", "2", "--N", "1"), 0, EXIT_OK),
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
    ["verify", "thm51-signs", "--budget-bits", "0"],
    ["verify", "thm52", "--budget-bits", "0"],
    ["verify", "bijections", "--budget-bits", "0"],
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
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
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
    (["enumerate", "delta", "--n", "2", "--N", "2", "--budget-bits", "3"], "--budget-bits"),
    (["enumerate", "delta", "--n", "2", "--N", "2", "--seed", "1"], "--seed"),
    (["convert", "table", "sssyt", "--payload", TWO_BY_TWO, "--budget-bits", "3"],
     "--budget-bits"),
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


def test_each_command_declares_only_the_options_it_reads():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: sorted(flag for action in sub._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert declared == {
        "enumerate": ["--N", "--format", "--lambda", "--n", "--nu"],
        "convert": ["--N", "--check", "--format", "--n", "--nu", "--payload"],
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


def test_each_command_declares_the_union_of_its_rows():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(READS)
    for name, sub in commands.choices.items():
        rows = READS[name]
        flags = {flag for action in sub._actions for flag in action.option_strings}
        reads = {OPTIONS[option][0] for options, _, _ in rows.values() for option in options}
        assert flags - {"-h", "--help"} == reads | {"--format"}, name
        positionals = [action for action in sub._actions if not action.option_strings]
        assert all(list(action.choices) == list(rows) for action in positionals), name
        assert [action.dest for action in positionals[:1]] == (["kind"] if positionals else [])
    assert list(READS["act"]) == [""]
