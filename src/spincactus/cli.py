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


# the options among --N and --budget-bits that each verify suite reads; any other is refused
VERIFY_OPTIONS = {
    "crystal-axioms": ("N", "budget_bits"), "census": ("N", "budget_bits"),
    "commutor": ("N", "budget_bits"), "cactus-relations": ("N", "budget_bits"),
    "thm2": ("N", "budget_bits"), "thm52": ("N",), "thm51-signs": (), "bijections": ("N",),
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
    if args.payload is not None:
        return json.loads(args.payload)
    data = sys.stdin.read()
    return json.loads(data)


def _need_dims(args, need_n=True, need_big_n=True):
    if need_n and args.n is None:
        raise ValidationError("--n is required here")
    if need_big_n and args.N is None:
        raise ValidationError("--N is required here")


def cmd_enumerate(args):
    kind = args.kind
    records = []
    lines = []
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


def cmd_verify(args):
    name = args.suite
    budget = _budget_bits(args)
    for option in ("N", "budget_bits"):
        if getattr(args, option) is not None and option not in VERIFY_OPTIONS[name]:
            flag = "--" + option.replace("_", "-")
            raise ValidationError(f"{flag} is not read by the {name} suite")

    def ranks(default_max):
        top = args.n if args.n is not None else default_max
        if top < 2:
            raise ValidationError("--n must be at least 2")
        return tuple(range(2, top + 1))

    def power(default_max):
        top = args.N if args.N is not None else default_max
        if top < 1:
            raise ValidationError("--N must be at least 1")
        return top

    if name == "crystal-axioms":
        report = suites.suite_crystal_axioms(ranks(3), power(4), budget_bits=budget)
    elif name == "census":
        report = suites.suite_census(ranks(3), power(5), budget_bits=budget)
    elif name == "commutor":
        report = suites.suite_commutor(ranks(3), power(4), budget_bits=budget)
    elif name == "cactus-relations":
        report = suites.suite_cactus_relations(
            n=args.n if args.n is not None else 2,
            big_n=power(4),
            budget_bits=budget,
        )
    elif name == "thm2":
        report = suites.suite_thm2(ranks(3), power(3), budget_bits=budget)
    elif name == "thm52":
        report = suites.suite_thm52(ranks(3), power(4), seed=args.seed)
    elif name == "thm51-signs":
        report = suites.suite_thm51_signs(ranks(3))
    elif name == "bijections":
        big_n_max = power(4)
        report = suites.suite_bijections(
            chain_n_max=args.n if args.n is not None else 3,
            chain_big_ns=tuple(range(3, max(3, big_n_max) + 1)),
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown suite {name}")
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_FAIL


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
        table = _decode(celldiag.CellTable.from_json, _load_payload(args))
        spin = crystal.SpinCrystal(table.height)
        word = spin.table_to_word(table)
        _, members = spin.component_members(word, budget)
        out = crystal.crystal_dot(spin, table.length, budget, words=members)
    elif args.what == "orbit":
        table = _decode(celldiag.CellTable.from_json, _load_payload(args))
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

    def common(p):
        p.add_argument("--n", type=int, default=None, help="height / rank n")
        p.add_argument("--N", type=int, dest="N", default=None, help="tensor power N")
        p.add_argument("--budget-bits", type=int, default=None,
                       help="scan budget, max nodes = 2^bits (0..24); env CACTUS_BUDGET_BITS")
        p.add_argument("--format", default=None, help="json, table or dot, as the command allows")
        p.add_argument("--seed", type=int, default=20240801, help="seed for randomized suites")

    p_enum = sub.add_parser("enumerate", help="enumerate delta/diagrams/tables/sssyt/gtp")
    p_enum.add_argument("kind", choices=("delta", "diagrams", "tables", "sssyt", "gtp"))
    p_enum.add_argument("--lambda", dest="lam", default=None,
                        help="weight as doubled coordinates, e.g. 3,1,1,-1")
    p_enum.add_argument("--nu", default=None, help="partition rows, e.g. 4,1")
    common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_conv = sub.add_parser("convert", help="convert between table/sssyt/gtp records")
    p_conv.add_argument("source", choices=("table", "sssyt", "gtp"))
    p_conv.add_argument("target", choices=("table", "sssyt", "gtp"))
    p_conv.add_argument("--payload", default=None, help="JSON record (default: stdin)")
    p_conv.add_argument("--nu", default=None, help="shape rows, required for gtp input")
    p_conv.add_argument("--check", action="store_true", help="re-invert and compare")
    common(p_conv)
    p_conv.set_defaults(func=cmd_convert)

    p_act = sub.add_parser("act", help="apply a cactus word to a table")
    p_act.add_argument("--word", required=True, help='e.g. "s(1,3) s(2,4)", rightmost acts first')
    p_act.add_argument("--payload", default=None, help="table JSON (default: stdin)")
    p_act.add_argument("--as", dest="as_kind", choices=("table", "sssyt", "gtp"),
                       default="table")
    common(p_act)
    p_act.set_defaults(func=cmd_act)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(suites.SUITES))
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export", help="export crystal graph, component, or orbit")
    p_exp.add_argument("what", choices=("crystal-graph", "component", "orbit"))
    p_exp.add_argument("--payload", default=None, help="table JSON for component/orbit")
    p_exp.add_argument("--word", default=None, help="cactus word for orbit generators")
    p_exp.add_argument("--out", default=None, help="output file (default: stdout)")
    common(p_exp)
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
