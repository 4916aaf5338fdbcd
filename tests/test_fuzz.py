"""Exit-code fuzz: seeded random argv and mutated payloads through cli.main.

Every call must return one of the four exit codes (0 ok, 1 verification failure,
2 usage, 3 budget) and none may raise. Sizes stay small so each call is quick:
ranks and tensor powers in -1..4, --budget-bits at most 12. Every call gets its
payload from --payload or from a patched stdin, so none waits on the terminal.
"""

import io
import json
import random

from spincactus import celldiag, youngt
from spincactus.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, OPTIONS, READS, main
from spincactus.weights import Weight

CALLS = 400
EXITS = (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET)
VERIFY_SUITES = ("crystal-axioms", "census", "commutor", "cactus-relations", "thm2",
                 "thm51-signs")


def _valid_records():
    """Valid table, chain and pattern records at small sizes, with the --nu/--N/--n of each."""
    out = []
    for lam2, big_n in (((2, 2), 4), ((3, 1), 3), ((2, 2, 0), 4), ((3, 1, 1, 1), 3)):
        shape = celldiag.diagram_of_weight(Weight(lam2), big_n)
        for t in celldiag.enumerate_tables(shape)[:3]:
            chain = youngt.y_map(t)
            nu = ",".join(map(str, chain.shape.rows)) or "0"
            dims = {"--nu": nu, "--N": str(big_n), "--n": str(t.height)}
            out += [("table", t.to_json(), dims), ("sssyt", chain.to_json(), dims),
                    ("gtp", youngt.j_map(chain).to_json(), dims)]
    return out


JUNK = (-3, -1, 0, 1, 2, 3, 7, 1.5, True, None, "1", 10**30, [], {})


def _mutate(rng, data):
    """One random edit somewhere in a JSON value: a leaf, a list or a dict key."""
    roll = rng.random()
    if isinstance(data, dict) and data:
        key = rng.choice(sorted(data))
        if roll < 0.15:
            return {k: v for k, v in data.items() if k != key}
        if roll < 0.25:
            return {**data, "extra": rng.choice(JUNK)}
        return {**data, key: _mutate(rng, data[key])}
    if isinstance(data, list) and data:
        k = rng.randrange(len(data))
        if roll < 0.15:
            return data[:k] + data[k + 1:]
        if roll < 0.3:
            return data + [data[k]]
        if roll < 0.35:
            return [data]
        return data[:k] + [_mutate(rng, data[k])] + data[k + 1:]
    if roll < 0.5 and isinstance(data, int) and not isinstance(data, bool):
        return data + rng.choice((-2, -1, 1, 2))
    return rng.choice(JUNK)


def _payload_text(rng, data):
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        data = _mutate(rng, data)
    text = json.dumps(data)
    roll = rng.random()
    if roll < 0.05:
        return text[: rng.randrange(len(text) + 1)]  # cut short: not JSON
    if roll < 0.08:
        return "[" * 5000 + "]" * 5000  # nests deeper than the parser's recursion limit
    return text


def _word(rng, big_n):
    """A cactus word of up to three generators, each valid for length big_n nine times in ten."""
    gens = []
    for _ in range(rng.randrange(4)):
        if rng.random() < 0.9:
            p = rng.randint(1, big_n - 1)
            q = rng.randint(p + 1, big_n)
        else:
            p, q = rng.randint(0, big_n + 1), rng.randint(0, big_n + 2)
        gens.append(f"s({p},{q})")
    text = " ".join(gens)
    return text if rng.random() > 0.05 else text + " s(x"


def _small(rng):
    return str(rng.choice((-1, 0, 1, 2, 3, 4)))


def _argv(rng, records, tmp_path):
    """Random argv: a command and kind, mostly the options its row reads, now and then one
    it does not or a stray token; and the stdin text."""
    command = rng.choice(sorted(READS))
    kind, data, dims = rng.choice(records)
    while command in ("act", "export") and kind != "table" and rng.random() < 0.9:
        kind, data, dims = rng.choice(records)  # these read table payloads
    if command == "convert":
        kinds = [kind, rng.choice(sorted(READS[command]))]
    elif command == "verify":
        kinds = [rng.choice(VERIFY_SUITES)]
    else:
        kinds = [rng.choice(sorted(READS[command]))]
    argv = [command] + [k for k in kinds if k]
    values = {
        "n": _small(rng), "N": _small(rng), "nu": dims["--nu"],
        "lam": rng.choice(("2,2", "3,1", "2,2,0", "1,0", "1,x", "3,1,1,1")),
        "word": _word(rng, int(dims["--N"])),
        "budget_bits": str(rng.randint(-1, 12)),
        "as_kind": rng.choice(("table", "sssyt", "gtp", "table", "sssyt", "gtp", "other")),
        "seed": str(rng.randint(0, 3)),
        "out": str(tmp_path / rng.choice(("out.txt", "missing/out.txt"))),
        "payload": None,
    }
    if command != "verify" and rng.random() < 0.7:  # the record's own dimensions
        values.update(n=dims["--n"], N=dims["--N"])
    reads = {option for k in kinds for option in READS[command][k][0]}
    required = {option for k in kinds for option in READS[command][k][1]}
    chosen = [option for option in sorted(reads)
              if rng.random() < (0.95 if option in required else 0.6)]
    if rng.random() < 0.1:
        chosen.append(rng.choice(sorted(set(OPTIONS) - reads)))
    for option in chosen:
        flag = OPTIONS[option][0]
        if option == "check":
            argv.append(flag)
        elif option != "payload":
            argv += [flag, values[option]]
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(READS[command][kinds[0]][2] + ("dot", "xml"))]
    if rng.random() < 0.03:
        argv.append(rng.choice(("--bogus", "extra", "--n")))
    text = _payload_text(rng, data)
    if "payload" in reads and rng.random() < 0.5 or rng.random() < 0.03:
        argv += ["--payload", text]
        text = ""
    return argv, text


def test_random_cli_calls_return_an_exit_code(capsys, monkeypatch, tmp_path):
    rng = random.Random(20)
    records = _valid_records()
    seen = set()
    for _ in range(CALLS):
        argv, stdin = _argv(rng, records, tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        env = rng.choice((None, None, "6", "x", "30"))
        if env is None:
            monkeypatch.delenv("CACTUS_BUDGET_BITS", raising=False)
        else:
            monkeypatch.setenv("CACTUS_BUDGET_BITS", env)
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - the contract is that nothing escapes
            raise AssertionError(f"{argv!r} (stdin {stdin[:80]!r}) raised {exc!r}") from exc
        capsys.readouterr()
        assert code in EXITS, argv
        seen.add(code)
    assert {EXIT_OK, EXIT_USAGE, EXIT_BUDGET} <= seen
