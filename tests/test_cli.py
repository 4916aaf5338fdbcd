import json

import pytest

from spincactus.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main


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
    from spincactus.suites import SUITES

    for name in sorted(SUITES):
        code, out, _ = run(capsys, "verify", name, "--n", "2", "--N", "3")
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
