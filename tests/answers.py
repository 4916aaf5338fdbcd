"""The answer corpus: the exit code and the sha256 of stdout of a fixed list of commands.

    python tests/answers.py           # replay; exit 0 iff every answer matches answers.json
    python tests/answers.py --write   # record the current answers in answers.json

Stdlib only, so it runs where pytest is not installed. Each CLI command runs in-process
through ``spincactus.cli.main``, with an empty stdin and ``CACTUS_BUDGET_BITS`` unset; each
demo runs as ``__main__`` through runpy. A change that moves an answer on purpose rewrites
the corpus with ``--write`` and names every changed row.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import runpy
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = pathlib.Path(__file__).resolve().parent / "answers.json"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from spincactus.cli import main  # noqa: E402

# the README's worked table (n = 4, N = 7, shape 4,4,3,1) as each of the three records
TABLE = ('{"steps2": [[1, 1, 1, -1], [1, 1, 1, 1], [1, -1, -1, -1], [1, 1, 1, 1], '
         '[1, -1, -1, -1], [-1, 1, 1, -1], [-1, -1, -1, 1]]}')
CHAIN = '{"chain": [[1], [1], [3, 1], [3, 1], [3, 3, 1], [4, 3, 1, 1], [4, 4, 3, 1]], "n": 4}'
PATTERN = '{"betas2": [[8, 8, 6], [8, 6, 0], [6, 6], [6, 2], [6]], "z": -1}'
SHAPE = ["--nu", "4,4,3,1", "--N", "7", "--n", "4"]
PAYLOADS = {"table": TABLE, "sssyt": CHAIN, "gtp": PATTERN}
# options each convert kind requires, as source or under --check as target
DIMS = {"table": [], "sssyt": [], "gtp": SHAPE}
SMALL = '{"steps2": [[1, 1], [1, -1], [1, 1], [-1, 1]]}'
ODD = '{"steps2": [[1, 1, 1], [1, -1, -1], [1, 1, -1], [-1, 1, 1]]}'
SUITES = ("bijections", "cactus-relations", "census", "commutor", "crystal-axioms",
          "thm2", "thm51-signs", "thm52")


def _convert():
    out = []
    for source in PAYLOADS:
        for target in PAYLOADS:
            for check in ([], ["--check"]):
                dims = DIMS[source] or (DIMS[target] if check else [])
                for fmt in ("json", "table"):
                    out.append(["convert", source, target, "--payload", PAYLOADS[source],
                                *dims, *check, "--format", fmt])
    return out


COMMANDS = [
    *(["verify", kind] for kind in SUITES),
    ["verify", "bijections", "--n", "3", "--N", "5"],
    ["verify", "cactus-relations", "--n", "3", "--N", "4"],
    ["verify", "commutor", "--n", "3", "--N", "5"],
    ["verify", "crystal-axioms", "--n", "2", "--N", "6"],
    ["verify", "thm2", "--n", "4", "--N", "3"],
    ["verify", "thm2", "--n", "3", "--N", "4"],
    ["verify", "thm52", "--n", "4", "--N", "5"],
    ["enumerate", "delta", "--n", "2", "--N", "3"],
    ["enumerate", "delta", "--n", "4", "--N", "7", "--format", "table"],
    ["enumerate", "diagrams", "--n", "3", "--N", "4"],
    ["enumerate", "diagrams", "--n", "3", "--N", "4", "--format", "table"],
    ["enumerate", "tables", "--lambda", "2,2,2,0", "--N", "4", "--n", "4"],
    ["enumerate", "tables", "--lambda", "3,1,1,-1", "--N", "7", "--format", "table"],
    ["enumerate", "tables", "--lambda", "2,2,0", "--N", "4"],
    ["enumerate", "tables", "--lambda", "1,1,1", "--N", "5", "--format", "table"],
    # 588 tables of a shape with many dead-end prefixes
    ["enumerate", "tables", "--lambda", "0,0", "--N", "8"],
    ["enumerate", "sssyt", "--nu", "4,1", "--N", "4", "--n", "4"],
    ["enumerate", "sssyt", "--nu", "4,1", "--N", "4", "--n", "4", "--format", "table"],
    # self-associated shapes (first column N/2), at odd and even n
    ["enumerate", "sssyt", "--nu", "2,1", "--N", "4", "--n", "3"],
    ["enumerate", "sssyt", "--nu", "2,2,1", "--N", "6", "--n", "2", "--format", "table"],
    ["enumerate", "gtp", "--nu", "4,1", "--N", "4", "--n", "4"],
    ["enumerate", "gtp", "--nu", "4,1", "--N", "4", "--n", "4", "--format", "table"],
    ["enumerate", "gtp", "--nu", "2,1", "--N", "4", "--n", "3"],
    ["enumerate", "gtp", "--nu", "2,2,1", "--N", "6", "--n", "3", "--format", "table"],
    ["enumerate", "gtp", "--nu", "3,1,1", "--N", "5", "--n", "3"],
    *_convert(),
    ["convert", "table", "gtp", "--payload", ODD, "--nu", "3,1", "--N", "4", "--n", "3",
     "--check"],
    ["act", "--word", "s(1,3) s(2,4)", "--payload", SMALL],
    *(["act", "--word", "s(1,3) s(2,4)", "--as", kind, "--payload", SMALL]
      for kind in ("table", "sssyt", "gtp")),
    ["act", "--word", "s(1,7)", "--as", "gtp", "--payload", TABLE, "--format", "table"],
    ["act", "--word", "s(2,5) s(1,7)", "--as", "sssyt", "--payload", TABLE],
    ["act", "--word", "s(1,4)", "--as", "gtp", "--payload", ODD],
    ["export", "crystal-graph", "--n", "2", "--N", "2"],
    ["export", "crystal-graph", "--n", "2", "--N", "2", "--format", "dot"],
    ["export", "component", "--payload", SMALL],
    ["export", "orbit", "--n", "2", "--N", "2", "--word", "s(1,2)",
     "--payload", '{"steps2": [[1, 1], [1, -1]]}'],
    ["export", "orbit", "--word", "s(1,2) s(2,4) s(1,3)", "--payload", ODD],
    # the other exit codes: past the budget, and a usage error
    ["verify", "census", "--budget-bits", "0"],
    ["act", "--word", "s(2,1)", "--payload", SMALL],
    *(["demo", path.name] for path in sorted((ROOT / "demos").glob("*.py"))),
]


def key(argv):
    """The command as a shell line: the corpus's name for it."""
    head = ["python", f"demos/{argv[1]}"] if argv[0] == "demo" else ["spincactus", *argv]
    return " ".join(map(shlex.quote, head))


def answer(argv):
    """(exit code, sha256 of stdout) of one command."""
    out, stdin = io.StringIO(), sys.stdin
    budget = os.environ.pop("CACTUS_BUDGET_BITS", None)
    sys.stdin = io.StringIO("")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if argv[0] == "demo":
                try:
                    runpy.run_path(str(ROOT / "demos" / argv[1]), run_name="__main__")
                    code = 0
                except SystemExit as exc:
                    code = exc.code or 0
            else:
                code = main(list(argv))
    finally:
        sys.stdin = stdin
        if budget is not None:
            os.environ["CACTUS_BUDGET_BITS"] = budget
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def answers(commands=COMMANDS):
    return {key(argv): {"exit": code, "sha256": digest}
            for argv in commands for code, digest in [answer(argv)]}


def mismatches(commands=COMMANDS):
    """The keys whose answer differs from the corpus, or that only one side has."""
    recorded = json.loads(CORPUS.read_text())
    got = answers(commands)
    extra = [k for k in recorded if k not in got] if commands is COMMANDS else []
    return [k for k in [*got, *extra] if got.get(k) != recorded.get(k)]


def cli(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args == ["--write"]:
        CORPUS.write_text(json.dumps(answers(), indent=1) + "\n")
        print(f"wrote {len(COMMANDS)} answers to {CORPUS.name}")
        return 0
    if args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad = mismatches()
    for k in bad:
        print(f"changed: {k}")
    print(f"{len(COMMANDS) - len(bad)}/{len(COMMANDS)} answers match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(cli())
