"""Command-line surface: enumeration, conversion, cactus action, verification, export.

Weights on the command line are comma-separated DOUBLED coordinates:
``--lambda 3,1,1,-1`` means (3/2, 1/2, 1/2, -1/2). Exit codes: 0 success,
1 verification failure, 2 usage or validation error, 3 resource budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cactus, celldiag, crystal, suites, youngt
from .errors import BudgetExceededError, ValidationError
from .weights import Weight

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SCHEMA = "cactus-crystal/1"

# the output formats each command (each export target) can write; the first is the default
FORMATS = {
    "enumerate": ("json", "table"), "convert": ("json", "table"), "act": ("json", "table"),
    "crystal-graph": ("json", "dot"), "component": ("dot",),
    "verify": ("json",), "orbit": ("json",),
}


def _parse_csv_ints(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _budget_bits(args):
    bits = args.budget_bits
    if bits is None:
        raw = os.environ.get("CACTUS_BUDGET_BITS")
        try:
            bits = int(raw) if raw else crystal.DEFAULT_BUDGET_BITS
        except ValueError as exc:
            raise ValidationError(f"CACTUS_BUDGET_BITS must be an integer, got {raw!r}") from exc
    crystal.node_limit(bits)
    return bits


def _resolve_format(args):
    key = args.what if args.command == "export" else args.command
    formats = FORMATS[key]
    if args.format is None:
        args.format = formats[0]
    if args.format not in formats:
        raise ValidationError(f"--format {args.format} is not available for {key}; "
                              f"choose from {', '.join(formats)}")


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_payload(args):
    return json.loads(args.payload if args.payload is not None else sys.stdin.read())


def _need_dims(args, need_n=True):
    if need_n and args.n is None:
        raise ValidationError("--n is required here")
    if args.N is None:
        raise ValidationError("--N is required here")


def cmd_enumerate(args):
    kind = args.kind
    _need_dims(args, need_n=kind != "tables")
    if kind == "delta":
        lams = celldiag.enumerate_delta(args.n, args.N)
        records = [lam.to_json() for lam in lams]
        lines = [str(lam.to_json()) for lam in lams]
    elif kind == "diagrams":
        lams = celldiag.enumerate_delta(args.n, args.N)
        diagrams = [celldiag.diagram_of_weight(lam, args.N) for lam in lams]
        records = [d.to_json() for d in diagrams]
        lines = [f"l={list(d.l)} r={list(d.r)}" for d in diagrams]
    elif kind == "tables":
        lam = _require_lambda(args)
        if args.n is not None and args.n != lam.rank:
            raise ValidationError(f"--n {args.n} does not match the rank {lam.rank} of --lambda")
        shape = celldiag.diagram_of_weight(lam, args.N)
        tables = celldiag.enumerate_tables(shape)
        records = [t.to_json() for t in tables]
        lines = [str(t.to_json()["steps2"]) for t in tables]
    elif kind == "sssyt":
        nu = _require_nu(args)
        chains = youngt.enumerate_sssyt(nu)
        records = [s.to_json() for s in chains]
        lines = [str(s.to_json()["chain"]) for s in chains]
    elif kind == "gtp":
        nu = _require_nu(args)
        patterns = youngt.enumerate_gtp(nu)
        records = [p.to_json() for p in patterns]
        lines = [str(p.to_json()) for p in patterns]
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown kind {kind}")
    payload = {"schema": SCHEMA, "kind": kind, "records": records, "count": len(records)}
    _emit(args, payload, lines + [f"count: {len(records)}"])
    return EXIT_OK


def _require_lambda(args):
    if args.lam is None:
        raise ValidationError("--lambda is required for this kind")
    return Weight(_parse_csv_ints(args.lam))


def _require_nu(args):
    if args.nu is None:
        raise ValidationError("--nu is required for this kind")
    _need_dims(args)
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


def _convert(args, source_kind, target_kind, data):
    if source_kind == "table":
        table = _decode(celldiag.CellTable.from_json, data)
        chain = youngt.y_map(table)
    elif source_kind == "sssyt":
        chain = _decode(youngt.SSYTable.from_json, data, n=args.n)
        table = youngt.y_inverse(chain)
    elif source_kind == "gtp":
        nu = _require_nu(args)
        chain = youngt.j_inverse(_decode(youngt.GTPattern.from_json, data), nu)
        table = youngt.y_inverse(chain)
    else:
        raise ValidationError(f"unknown source kind {source_kind}")
    if target_kind == "table":
        return table, table.to_json()
    if target_kind == "sssyt":
        return chain, chain.to_json()
    if target_kind == "gtp":
        pattern = youngt.j_map(chain)
        return pattern, pattern.to_json()
    raise ValidationError(f"unknown target kind {target_kind}")


def cmd_convert(args):
    data = _load_payload(args)
    value, record = _convert(args, args.source, args.target, data)
    round_trip_ok = None
    if args.check:
        back, _ = _convert(args, args.target, args.source, record)
        again, _ = _convert(args, args.source, args.target, back.to_json())
        round_trip_ok = again == value
    payload = {"schema": SCHEMA, "from": args.source, "to": args.target, "record": record}
    lines = [json.dumps(record)]
    if round_trip_ok is not None:
        payload["round_trip_ok"] = round_trip_ok
        lines.append(f"round_trip_ok: {round_trip_ok}")
    _emit(args, payload, lines)
    if round_trip_ok is False:
        return EXIT_FAIL
    return EXIT_OK


def cmd_act(args):
    data = _load_payload(args)
    table = _decode(celldiag.CellTable.from_json, data)
    gens = cactus.parse_cactus_word(args.word)
    spin = crystal.SpinCrystal(table.height)
    cache = cactus.XiCache(spin, _budget_bits(args))
    moved = cactus.act_on_table(cache, gens, table)
    record = moved.to_json()
    if args.as_kind == "sssyt":
        record = youngt.y_map(moved).to_json()
    elif args.as_kind == "gtp":
        record = youngt.j_map(youngt.y_map(moved)).to_json()
    payload = {
        "schema": SCHEMA,
        "word": args.word,
        "record": record,
        "shape": "unchanged",
    }
    _emit(args, payload, [json.dumps(record), "shape: unchanged"])
    return EXIT_OK


def _ranks(top):
    if top < 2:
        raise ValidationError("--n must be at least 2")
    return tuple(range(2, top + 1))


def _power(top):
    if top < 1:
        raise ValidationError("--N must be at least 1")
    return top


# option -> (suite parameter, conversion; int keeps the value) for each option a suite
# reads; any other option given is refused, and one not given keeps the suite's default
_N_VALUES, _BIG_N_MAX = ("n_values", _ranks), ("big_n_max", _power)
_BUDGET_BITS = ("budget_bits", int)
VERIFY_OPTIONS = {
    "crystal-axioms": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    "census": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    "commutor": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    "cactus-relations": {"n": ("n", int), "N": ("big_n", _power), "budget_bits": _BUDGET_BITS},
    "thm2": {"n": _N_VALUES, "N": _BIG_N_MAX, "budget_bits": _BUDGET_BITS},
    "thm52": {"n": _N_VALUES, "N": _BIG_N_MAX, "seed": ("seed", int)},
    "thm51-signs": {"n": _N_VALUES},
    "bijections": {"n": ("chain_n_max", int),
                   "N": ("chain_big_ns", lambda top: tuple(range(3, max(3, _power(top)) + 1)))},
}


def cmd_verify(args):
    name = args.suite
    reads = VERIFY_OPTIONS[name]
    budget = _budget_bits(args)
    kwargs = {"budget_bits": budget} if "budget_bits" in reads else {}
    for option in ("n", "N", "budget_bits", "seed"):
        value = getattr(args, option)
        if value is None:
            continue
        if option not in reads:
            raise ValidationError(f"--{option.replace('_', '-')} is not read by the {name} suite")
        param, convert = reads[option]
        kwargs[param] = convert(value)
    report = suites.SUITES[name](**kwargs)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_FAIL


def _payload_table(args):
    """The payload's table; an explicit --n or --N must be its height or length."""
    table = _decode(celldiag.CellTable.from_json, _load_payload(args))
    for flag, given, what, size in (("--n", args.n, "height", table.height),
                                    ("--N", args.N, "length", table.length)):
        if given is not None and given != size:
            raise ValidationError(f"{flag} {given} does not match the table's {what} {size}")
    return table


def cmd_export(args):
    budget = _budget_bits(args)
    if args.what == "crystal-graph":
        _need_dims(args)
        spin = crystal.SpinCrystal(args.n)
        if args.format == "json":
            out = json.dumps(
                {"schema": SCHEMA, "census": crystal.census_json(spin, args.N, budget)},
                indent=2,
                sort_keys=True,
            )
        else:
            out = crystal.crystal_dot(spin, args.N, budget)
    elif args.what == "component":
        table = _payload_table(args)
        spin = crystal.SpinCrystal(table.height)
        _, members = spin.component_members(spin.table_to_word(table), budget)
        out = crystal.crystal_dot(spin, table.length, budget, words=members)
    elif args.what == "orbit":
        table = _payload_table(args)
        spin = crystal.SpinCrystal(table.height)
        gens = cactus.parse_cactus_word(args.word or "")
        cache = cactus.XiCache(spin, budget)
        tables = cactus.orbit(cache, table, gens, budget)
        out = json.dumps(
            {"schema": SCHEMA, "orbit": [t.to_json() for t in tables]},
            indent=2,
            sort_keys=True,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown export {args.what}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        print(out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spincactus",
        description=(
            "Enumerate and convert the indexing sets of spinor tensor powers, "
            "act by the cactus group, and run the verification suites. "
            "Weights are comma-separated DOUBLED coordinates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, dims=True, budget=True, seed=False):
        if dims:
            p.add_argument("--n", type=int, default=None, help="height / rank n")
            p.add_argument("--N", type=int, dest="N", default=None, help="tensor power N")
        if budget:
            p.add_argument("--budget-bits", type=int, default=None,
                           help="scan budget, max nodes = 2^bits (0..24); env CACTUS_BUDGET_BITS")
        p.add_argument("--format", default=None, help="json, table or dot, as the command allows")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for the thm52 suite's draws")

    p_enum = sub.add_parser("enumerate", help="enumerate delta/diagrams/tables/sssyt/gtp")
    p_enum.add_argument("kind", choices=("delta", "diagrams", "tables", "sssyt", "gtp"))
    p_enum.add_argument("--lambda", dest="lam", default=None,
                        help="weight as doubled coordinates, e.g. 3,1,1,-1")
    p_enum.add_argument("--nu", default=None, help="partition rows, e.g. 4,1")
    options(p_enum, budget=False)
    p_enum.set_defaults(func=cmd_enumerate)

    p_conv = sub.add_parser("convert", help="convert between table/sssyt/gtp records")
    p_conv.add_argument("source", choices=("table", "sssyt", "gtp"))
    p_conv.add_argument("target", choices=("table", "sssyt", "gtp"))
    p_conv.add_argument("--payload", default=None, help="JSON record (default: stdin)")
    p_conv.add_argument("--nu", default=None, help="shape rows, required for gtp input")
    p_conv.add_argument("--check", action="store_true", help="re-invert and compare")
    options(p_conv, budget=False)
    p_conv.set_defaults(func=cmd_convert)

    p_act = sub.add_parser("act", help="apply a cactus word to a table")
    p_act.add_argument("--word", required=True, help='e.g. "s(1,3) s(2,4)", rightmost acts first')
    p_act.add_argument("--payload", default=None, help="table JSON (default: stdin)")
    p_act.add_argument("--as", dest="as_kind", choices=("table", "sssyt", "gtp"),
                       default="table")
    options(p_act, dims=False)
    p_act.set_defaults(func=cmd_act)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(suites.SUITES))
    options(p_ver, seed=True)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export", help="export crystal graph, component, or orbit")
    p_exp.add_argument("what", choices=("crystal-graph", "component", "orbit"))
    p_exp.add_argument("--payload", default=None, help="table JSON for component/orbit")
    p_exp.add_argument("--word", default=None, help="cactus word for orbit generators")
    p_exp.add_argument("--out", default=None, help="output file (default: stdout)")
    options(p_exp)
    p_exp.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _resolve_format(args)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
