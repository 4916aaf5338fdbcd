"""Command-line surface: enumeration, conversion, cactus action, verification, export.

Weights on the command line are comma-separated DOUBLED coordinates:
``--lambda 3,1,1,-1`` means (3/2, 1/2, 1/2, -1/2). Exit codes: 0 success,
1 verification failure, 2 usage or validation error, 3 resource budget.

``READS[command][kind]`` is the whole option surface. The kind is the enumerate
kind, the convert source, the export target or the verify suite; ``act`` has one
row. Each row names the options the kind reads, those it requires, and the
formats it writes, default first; under ``--check``, ``convert`` also reads its
target's row. A command declares the union of its rows' options.

``build_parser()`` declares all five commands. ``build_parser(command)`` declares
that one command alone, under the full parser's usage line, so its help, usage
lines and errors are the full parser's. ``main`` builds the one-command parser
when its argv starts with a command, and the full parser for any other argv: a
help flag or other option first, an unknown command or none. Nothing is kept
between calls.

``_check_options`` refuses an option the row does not read, requires the
required ones and resolves ``--format`` before the command runs. ``main`` then
resolves the node budget once, for every command: ``--budget-bits``, else
``CACTUS_BUDGET_BITS``, else ``crystal.DEFAULT_BUDGET_BITS``, an unusable value
exiting 2; each command reads it as ``args.budget_bits`` and charges its scans
through ``crystal.charge``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cactus, celldiag, crystal, suites, youngt
from .errors import BudgetExceededError, ValidationError
from .suites import SCHEMA
from .weights import Weight

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_csv_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _resolve_budget(bits):
    """--budget-bits, else CACTUS_BUDGET_BITS, else DEFAULT_BUDGET_BITS, checked by node_limit."""
    if bits is None:
        raw = os.environ.get("CACTUS_BUDGET_BITS")
        try:
            bits = int(raw) if raw else crystal.DEFAULT_BUDGET_BITS
        except ValueError as exc:
            raise ValidationError(f"CACTUS_BUDGET_BITS must be an integer, got {raw!r}") from exc
    crystal.node_limit(bits)
    return bits


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


def _load_payload(args):
    try:
        return json.loads(args.payload if args.payload is not None else sys.stdin.read())
    except RecursionError as exc:
        raise ValidationError("the payload nests too deeply") from exc


def cmd_enumerate(args):
    # each kind refuses up front a listing of more than 2^budget records: weights and
    # diagrams number count_delta(n, N); tables, chains and patterns of shape nu (f_map of
    # the table shape) are equinumerous, count_sssyt(nu)
    kind, budget = args.kind, args.budget_bits
    if kind in ("delta", "diagrams"):
        crystal.charge(celldiag.count_delta(args.n, args.N), budget)
        lams = celldiag.enumerate_delta(args.n, args.N)
        if kind == "delta":
            records = [lam.to_json() for lam in lams]
            lines = [str(lam.to_json()) for lam in lams]
        else:
            diagrams = [celldiag.diagram_of_weight(lam, args.N) for lam in lams]
            records = [d.to_json() for d in diagrams]
            lines = [f"l={list(d.l)} r={list(d.r)}" for d in diagrams]
    elif kind == "tables":
        lam = Weight(_parse_csv_ints(args.lam))
        if args.n is not None and args.n != lam.rank:
            raise ValidationError(f"--n {args.n} does not match the rank {lam.rank} of --lambda")
        shape = celldiag.diagram_of_weight(lam, args.N)
        crystal.charge(crystal.word_count(lam.rank, 1), budget)  # each state tries the 2^n steps
        crystal.charge(youngt.count_sssyt(youngt.f_map(shape)), budget)
        tables = celldiag.enumerate_tables(shape)
        records = [t.to_json() for t in tables]
        lines = [str(t.to_json()["steps2"]) for t in tables]
    elif kind == "sssyt":
        nu = _nu(args)
        crystal.charge(youngt.count_sssyt(nu), budget)
        chains = youngt.enumerate_sssyt(nu)
        records = [s.to_json() for s in chains]
        lines = [str(s.to_json()["chain"]) for s in chains]
    else:  # gtp
        nu = _nu(args)
        if nu.N >= 3:  # enumerate_gtp refuses a lower height as a usage error
            crystal.charge(youngt.count_sssyt(nu), budget)
            _charge_pattern(nu.N, budget)
        patterns = youngt.enumerate_gtp(nu)
        records = [p.to_json() for p in patterns]
        lines = [str(p.to_json()) for p in patterns]
    payload = {"schema": SCHEMA, "kind": kind, "records": records, "count": len(records)}
    _emit(args, payload, lines + [f"count: {len(records)}"])
    return EXIT_OK


def _nu(args):
    rows = list(_parse_csv_ints(args.nu))
    while rows and rows[-1] == 0:
        rows.pop()
    return youngt.ShortYoungDiagram(tuple(rows), args.N, args.n)


def _decode(from_json, data, **kwargs):
    """Build an object from a parsed JSON record; a malformed record is a usage error."""
    try:
        return from_json(data, **kwargs)
    except ValidationError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed record: {exc!r}") from exc


def _charge_pattern(big_n, budget_bits):
    """Refuse up front the pattern of a length-N chain past the node limit: its rows at
    ranks N down to 3 hold k // 2 entries each, N^2 // 4 - 1 in all."""
    crystal.charge(big_n * big_n // 4 - 1, budget_bits)


def _read(args, kind, data):
    """The table a record of the given kind names, read through y_inverse or j_inverse."""
    if kind == "table":
        return _decode(celldiag.CellTable.from_json, data)
    if kind == "sssyt":
        chain = _decode(youngt.SSYTable.from_json, data, n=args.n)
        if args.n not in (None, chain.shape.n):
            raise ValidationError(f"--n {args.n} does not match the chain's n {chain.shape.n}")
    else:  # gtp
        pattern, nu = _decode(youngt.GTPattern.from_json, data), _nu(args)
        _charge_pattern(args.N, args.budget_bits)
        chain = youngt.j_inverse(pattern, nu)
    return youngt.y_inverse(chain)


def _as(args, kind, table):
    """The table as a record of the given kind: itself, y_map(table) or j_map(y_map(table))."""
    if kind == "table":
        return table
    if kind == "gtp":
        _charge_pattern(table.length, args.budget_bits)
    chain = youngt.y_map(table)
    return chain if kind == "sssyt" else youngt.j_map(chain)


def cmd_convert(args):
    value = _as(args, args.target, _read(args, args.kind, _load_payload(args)))
    record = value.to_json()
    round_trip_ok = None
    if args.check:
        back = _as(args, args.kind, _read(args, args.target, record))
        round_trip_ok = _as(args, args.target, _read(args, args.kind, back.to_json())) == value
    payload = {"schema": SCHEMA, "from": args.kind, "to": args.target, "record": record}
    lines = [json.dumps(record)]
    if round_trip_ok is not None:
        payload["round_trip_ok"] = round_trip_ok
        lines.append(f"round_trip_ok: {round_trip_ok}")
    _emit(args, payload, lines)
    if round_trip_ok is False:
        return EXIT_FAIL
    return EXIT_OK


def cmd_act(args):
    table = _read(args, "table", _load_payload(args))
    gens = cactus.parse_cactus_word(args.word)
    budget = args.budget_bits
    cache = cactus.XiCache(crystal.SpinCrystal(table.height, budget), budget)
    moved = cactus.act_on_table(cache, gens, table)
    record = _as(args, args.as_kind or "table", moved).to_json()
    payload = {
        "schema": SCHEMA,
        "word": args.word,
        "record": record,
        "shape": "unchanged",
    }
    _emit(args, payload, [json.dumps(record), "shape: unchanged"])
    return EXIT_OK


def _at_least(flag, low):
    def check(top):
        if top < low:
            raise ValidationError(f"{flag} must be at least {low}")
        return top
    return check


_rank, _power, _chain_length = _at_least("--n", 2), _at_least("--N", 1), _at_least("--N", 3)


def _ranks(top):
    return range(2, _rank(top) + 1)


# option -> (suite parameter, conversion; int keeps the value) for each option a suite
# reads; one not given keeps the suite's default. A conversion to a range is charged as
# its length before the suite gets it as a tuple
_N_VALUES, _BIG_N_MAX = ("n_values", _ranks), ("big_n_max", _power)
_BUDGET_BITS = ("budget_bits", int)
VERIFY_OPTIONS = {
    "crystal-axioms": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    "census": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    "commutor": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    # a generator s(p, q) needs p < q <= N
    "cactus-relations": {"n": ("n", int), "N": ("big_n", _at_least("--N", 2)),
                         "budget_bits": _BUDGET_BITS},
    "thm2": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    "thm52": {"n": _N_VALUES, "N": _BIG_N_MAX, "seed": ("seed", int), "budget_bits": _BUDGET_BITS},
    "thm51-signs": {"n": _N_VALUES, "budget_bits": _BUDGET_BITS},
    "bijections": {"n": ("chain_n_max", _rank),
                   "N": ("chain_big_ns", lambda top: range(3, _chain_length(top) + 1)),
                   "budget_bits": _BUDGET_BITS},
}


def cmd_verify(args):
    kwargs = {}
    for option, (param, convert) in VERIFY_OPTIONS[args.kind].items():
        value = getattr(args, option)
        if value is not None:
            value = convert(value)
            if isinstance(value, range):
                crystal.charge(len(value), args.budget_bits)
                value = tuple(value)
            kwargs[param] = value
    report = suites.SUITES[args.kind](**kwargs)
    print(_json(report))
    return EXIT_OK if report["pass"] else EXIT_FAIL


def _payload_table(args):
    """The payload's table; an explicit --n or --N must be its height or length."""
    table = _read(args, "table", _load_payload(args))
    for flag, given, what, size in (("--n", args.n, "height", table.height),
                                    ("--N", args.N, "length", table.length)):
        if given is not None and given != size:
            raise ValidationError(f"{flag} {given} does not match the table's {what} {size}")
    return table


def cmd_export(args):
    budget = args.budget_bits
    if args.kind == "crystal-graph":
        _power(args.N)
        spin = crystal.SpinCrystal(args.n, budget)
        if args.format == "json":
            out = _json({"schema": SCHEMA, "census": crystal.census_json(spin, args.N)})
        else:
            out = crystal.crystal_dot(spin, args.N)
    elif args.kind == "component":
        table = _payload_table(args)
        spin = crystal.SpinCrystal(table.height, budget)
        _, members = spin.component_members(spin.table_to_word(table))
        out = crystal.crystal_dot(spin, table.length, words=members)
    else:  # orbit
        table = _payload_table(args)
        gens = cactus.parse_cactus_word(args.word or "")
        cache = cactus.XiCache(crystal.SpinCrystal(table.height, budget), budget)
        tables = cactus.orbit(cache, table, gens)
        out = _json({"schema": SCHEMA, "orbit": [t.to_json() for t in tables]})
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        print(out)
    return EXIT_OK


# option -> (flag, add_argument keywords); every option defaults to None, "not given"
OPTIONS = {
    "lam": ("--lambda", {"help": "weight as doubled coordinates, e.g. 3,1,1,-1"}),
    "nu": ("--nu", {"help": "partition rows, e.g. 4,1"}),
    "word": ("--word", {"help": 'cactus word, e.g. "s(1,3) s(2,4)", rightmost acts first'}),
    "payload": ("--payload", {"help": "JSON record (default: stdin)"}),
    "as_kind": ("--as", {"choices": ("table", "sssyt", "gtp"), "help": "record to write"}),
    "check": ("--check", {"action": "store_true", "help": "re-invert and compare"}),
    "out": ("--out", {"help": "output file (default: stdout)"}),
    "n": ("--n", {"type": int, "help": "height / rank n"}),
    "N": ("--N", {"type": int, "help": "tensor power N"}),
    "budget_bits": ("--budget-bits", {"type": int, "help": "scan budget, max nodes = 2^bits "
                                      "(0..24); env CACTUS_BUDGET_BITS"}),
    "seed": ("--seed", {"type": int, "help": "seed for the thm52 suite's draws"}),
}

# command -> kind -> (options read, options required, formats written, default first)
_TEXT = ("json", "table")
_DIMS = ("n", "N")
_NU = ("nu", "N", "n")
READS = {
    "enumerate": {
        "delta": (_DIMS + ("budget_bits",), _DIMS, _TEXT),
        "diagrams": (_DIMS + ("budget_bits",), _DIMS, _TEXT),
        "tables": (("lam", "N", "n", "budget_bits"), ("lam", "N"), _TEXT),
        "sssyt": (_NU + ("budget_bits",), _NU, _TEXT),
        "gtp": (_NU + ("budget_bits",), _NU, _TEXT),
    },
    "convert": {
        "table": (("payload", "check", "budget_bits"), (), _TEXT),
        "sssyt": (("payload", "check", "n", "budget_bits"), (), _TEXT),
        "gtp": (("payload", "check") + _NU + ("budget_bits",), _NU, _TEXT),
    },
    "act": {"": (("word", "payload", "as_kind", "budget_bits"), ("word",), _TEXT)},
    "verify": {name: (tuple(reads), (), ("json",))
               for name, reads in sorted(VERIFY_OPTIONS.items())},
    "export": {
        "crystal-graph": (("out", "n", "N", "budget_bits"), _DIMS, ("json", "dot")),
        "component": (("payload", "out", "n", "N", "budget_bits"), (), ("dot",)),
        "orbit": (("word", "payload", "out", "n", "N", "budget_bits"), (), ("json",)),
    },
}


def _check_options(args):
    """Refuse an option the row does not read, require what it requires, resolve --format."""
    rows = READS[args.command]
    kinds = (args.kind, args.target) if args.command == "convert" and args.check else (args.kind,)
    where = " ".join((args.command,) + kinds).rstrip()
    reads = {option for kind in kinds for option in rows[kind][0]}
    for option, (flag, _) in OPTIONS.items():
        if getattr(args, option, None) is not None and option not in reads:
            raise ValidationError(f"{flag} is not read by {where}")
    for kind in kinds:
        for option in rows[kind][1]:
            if getattr(args, option) is None:
                raise ValidationError(f"{OPTIONS[option][0]} is required for "
                                      f"{args.command} {kind}".rstrip())
    formats = rows[args.kind][2]
    if args.format is None:
        args.format = formats[0]
    if args.format not in formats:
        raise ValidationError(f"--format {args.format} is not available for {where}; "
                              f"choose from {', '.join(formats)}")


def build_parser(command=None):
    """The CLI parser, in one of two modes. With no command it declares all five commands,
    each with its positionals and options. With a command it declares that one alone, under
    the full parser's usage line and with the same prog, so what it prints for that command's
    argv is what the full parser prints."""
    parser = argparse.ArgumentParser(
        prog="spincactus",
        usage=None if command is None else f"%(prog)s [-h] {{{','.join(READS)}}} ...",
        description=(
            "Enumerate and convert the indexing sets of spinor tensor powers, "
            "act by the cactus group, and run the verification suites. "
            "Weights are comma-separated DOUBLED coordinates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, func, text in (
        ("enumerate", cmd_enumerate, "enumerate delta/diagrams/tables/sssyt/gtp"),
        ("convert", cmd_convert, "convert between table/sssyt/gtp records"),
        ("act", cmd_act, "apply a cactus word to a table"),
        ("verify", cmd_verify, "run a verification suite"),
        ("export", cmd_export, "export crystal graph, component, or orbit"),
    ):
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func, kind="")  # act's one row has no positional kind
        rows = READS[name]
        if name != "act":
            p.add_argument("kind", choices=tuple(rows))
        if name == "convert":
            p.add_argument("target", choices=tuple(rows))
        declared = {option for reads, _, _ in rows.values() for option in reads}
        for option, (flag, kwargs) in OPTIONS.items():
            if option in declared:
                p.add_argument(flag, dest=option, default=None, **kwargs)
        p.add_argument("--format", default=None, help="json, table or dot, as the kind allows")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # argv that does not start with a command (help, an option, an unknown or no command)
    # gets the full parser, which alone prints the top-level help and names every command
    parser = build_parser(argv[0] if argv and argv[0] in READS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_options(args)
        args.budget_bits = _resolve_budget(args.budget_bits)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, json.JSONDecodeError, OSError) as exc:  # OSError: a bad --out path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
