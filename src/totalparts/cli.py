"""Command-line surface: exact results on stdout, JSON/CSV/table formats.

Exact scalars are always serialized as strings (``"7/18"``) or cyclotomic
coordinate objects, never floats; ``--decimal N`` adds a display-only
rounded column.  Exit code 0 on success, 1 on a domain error (the message
names the failing invariant), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import exactnum
from .exactnum import cyc_embed
from .dicecore import (
    Die,
    DistPoly,
    Sack,
    parts_to_total,
    render_scalar,
    scalar_to_json,
)
from .fibers import FactorMultiset, enumerate_fiber, fiber_degree
from .fairlab import (
    coin_die_fair_check,
    enumerate_fair_pairs,
    fair_pair_count,
    ramification_check,
    sicherman_search,
)
from .exotica import (
    exotic_search,
    s3_table,
    s_scan,
    scatter_emit,
    swap_census,
    verify_tridecahedral,
)
from .crapseval import CrapsTotals, craps_evaluate, craps_from_sack


def _decimal(x, places):
    lo, hi = cyc_embed(x, 64)
    return round((float(lo) + float(hi)) / 2, places)


def _load_json_arg(value):
    value = value.strip()
    if value.startswith("{") or value.startswith("["):
        return json.loads(value)
    with open(value) as handle:
        return json.load(handle)


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _die_row(die, decimal):
    row = [render_scalar(p) for p in die.probs]
    if decimal is not None:
        row += [str(_decimal(p, decimal)) for p in die.probs]
    return row


def _cmd_total(args):
    sack = Sack.from_json(_load_json_arg(args.sack))
    total = parts_to_total(sack)
    if args.format == "table":
        for t, c in enumerate(total.coeffs):
            line = f"{t}\t{render_scalar(c)}"
            if args.decimal is not None:
                line += f"\t{_decimal(c, args.decimal)}"
            _emit(line)
    else:
        _emit(json.dumps(total.to_json()))
    return 0


def _cmd_solve(args):
    sack_type = tuple(int(k) for k in args.type.split(","))
    factors = FactorMultiset.from_json(_load_json_arg(args.factors))
    total = DistPoly.from_json(_load_json_arg(args.total))
    if factors.total_degree != len(total.coeffs) - 1:
        raise ValueError("factor multiset degree does not match the total")
    sacks = enumerate_fiber(factors, sack_type)
    _emit(json.dumps([s.to_json() for s in sacks]))
    return 0


def _cmd_fair_enum(args):
    if args.count_only:
        _emit(str(fair_pair_count(args.order)))
        return 0
    pairs = enumerate_fair_pairs(args.order)
    if args.format == "table":
        for p in pairs:
            _emit("r=" + ",".join(str(rm) for rm in p.r)
                  + "  d=[" + " ".join(_die_row(p.d, args.decimal)) + "]"
                  + "  dhat=[" + " ".join(_die_row(p.dhat, args.decimal)) + "]")
    else:
        _emit(json.dumps([{
            "r": list(p.r),
            "d": p.d.to_json(),
            "dhat": p.dhat.to_json(),
            "strict": p.is_strict(),
            "real": p.is_real(),
        } for p in pairs]))
    return 0


def _cmd_ramify(args):
    lhs, rhs = ramification_check(args.order)
    _emit(json.dumps({"weighted_pairs": lhs, "fiber_degree": rhs,
                      "equal": lhs == rhs}))
    return 0


def _cmd_coin_die(args):
    report = coin_die_fair_check(args.order)
    _emit(json.dumps({
        "order": report.order,
        "strict_sacks": [s.to_json() for s in report.strict_sacks],
        "only_fair_is_strict": report.only_fair_is_strict,
    }))
    return 0


def _cmd_exotic(args):
    k, kp = (int(x) for x in args.orders.split(","))
    census = exotic_search(k, kp)
    if args.format == "table":
        for sack, spec in census.sacks:
            _emit(spec.render())
            for die in sack.dice:
                _emit("  [" + " ".join(_die_row(die, args.decimal)) + "]")
    else:
        _emit(json.dumps([{
            "swap": spec.render(),
            "sack": sack.to_json(),
        } for sack, spec in census.sacks]))
    return 0


def _scan_csv(records, ell, path, decimal):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([f"k", f"M{ell}", f"R{ell}_num", f"R{ell}_den",
                     f"R{ell}_decimal"])
    for r in records:
        if r.M is None:
            writer.writerow([r.k, "", "", "", ""])
        else:
            writer.writerow([r.k, r.M, r.R.numerator, r.R.denominator,
                             round(float(r.R), decimal)])
    text = out.getvalue()
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_s3scan(args):
    records = s3_table(args.kmax, workers=args.workers)
    _scan_csv(records, 3, args.csv, args.decimal or 7)
    return 0


def _cmd_s4scan(args):
    records = [s_scan(4, k) for k in range(2, args.kmax + 1)]
    _scan_csv(records, 4, args.csv, args.decimal or 7)
    return 0


def _cmd_swaps(args):
    for spec in swap_census(args.order):
        _emit(spec.render())
    return 0


def _cmd_scatter(args):
    rows, violations = scatter_emit(args.kmax, workers=args.workers)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["k", "M3", "R3_num", "R3_den", "R3_decimal"])
    for row in rows:
        if row.M is None:
            writer.writerow([row.k, "", "", "", ""])
        else:
            writer.writerow([row.k, row.M, row.R.numerator, row.R.denominator,
                             round(row.decimal, args.decimal or 7)])
    text = out.getvalue()
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    for row in violations:
        print(f"WARNING: R3({row.k}) = {row.R} exceeds the conjectured "
              f"bound 60/143", file=sys.stderr)
    return 0


def _cmd_craps(args):
    if args.totals:
        probs = tuple(Fraction(x) for x in args.totals.split(","))
        report = craps_evaluate(CrapsTotals(probs))
    elif args.sack:
        report = craps_from_sack(Sack.from_json(_load_json_arg(args.sack)))
    else:
        raise ValueError("craps needs --totals or --sack")
    t_row = list(range(2, 13))
    _emit("t        " + " ".join(f"{t:>8}" for t in t_row))
    _emit("P(t)     " + " ".join(f"{str(report.totals[t]):>8}" for t in t_row))
    _emit("P(w|t)   " + " ".join(
        f"{str(report.point_win.get(t, Fraction(1) if t in (7, 11) else Fraction(0))):>8}"
        for t in t_row))
    _emit("P(t&w)   " + " ".join(f"{str(report.breakdown[t]):>8}" for t in t_row))
    _emit(f"p_win = {report.p_win}"
          + (f" ~ {_decimal(report.p_win, args.decimal)}" if args.decimal else ""))
    _emit(f"matches_fair_244_495 = {report.matches_fair}")
    return 0


def _cmd_sicherman(args):
    pairs = sicherman_search(args.order, args.label_min)
    _emit(json.dumps([[list(a), list(b)] for a, b in pairs]))
    return 0


def _cmd_selftest(args):
    checks = []
    checks.append(("fair_pair_count(6) == 51", fair_pair_count(6) == 51))
    checks.append(("fiber_degree((6,6)) == 252", fiber_degree((6, 6)) == 252))
    lhs, rhs = ramification_check(6)
    checks.append(("ramification_check(6) balanced", lhs == rhs == 252))
    checks.append(("craps fair p_win == 244/495",
                   craps_evaluate(CrapsTotals.fair()).p_win == Fraction(244, 495)))
    checks.append(("exotic_search(3,4) finds one sack",
                   exotic_search(3, 4).count == 1))
    checks.append(("exotic_search(4,4) empty", exotic_search(4, 4).count == 0))
    trid = verify_tridecahedral()
    checks.append(("tridecahedral pair strict and fair-totaled",
                   trid.strict and trid.product_is_fair and trid.table_matches))
    checks.append(("s_scan(3,143) max 60", s_scan(3, 143).M == 60))
    ok = True
    for name, passed in checks:
        _emit(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totalparts",
        description="Exact dice-total arithmetic: the part-to-total map, "
                    "its fibers, fair and exotic sacks, and craps.")
    parser.add_argument("--precision", type=int, default=None,
                        help="starting interval precision in bits")
    parser.add_argument("--decimal", type=int, default=None, metavar="N",
                        help="add display-only columns rounded to N places")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for scans")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("total", help="total distribution of a sack")
    p.add_argument("--sack", required=True)
    p.set_defaults(func=_cmd_total)

    p = sub.add_parser("solve", help="enumerate the fiber over a total")
    p.add_argument("--total", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--factors", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fair-enum", help="all totally fair pairs of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_fair_enum)

    p = sub.add_parser("ramify", help="ramification bookkeeping over the fair total")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_ramify)

    p = sub.add_parser("coin-die", help="strict coin+die sacks with fair total")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_coin_die)

    p = sub.add_parser("exotic", help="exotic sacks of a pair of orders")
    p.add_argument("--orders", required=True)
    p.set_defaults(func=_cmd_exotic)

    p = sub.add_parser("s3scan", help="order-3 swap scan table")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_s3scan)

    p = sub.add_parser("s4scan", help="order-4 swap scan table")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_s4scan)

    p = sub.add_parser("swaps", help="diagonal swap census of one order")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_swaps)

    p = sub.add_parser("scatter", help="plot-ready (k, R3) CSV with bound check")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("craps", help="exact craps evaluation")
    p.add_argument("--totals", default=None,
                   help="11 comma-separated rationals for totals 2..12")
    p.add_argument("--sack", default=None)
    p.set_defaults(func=_cmd_craps)

    p = sub.add_parser("sicherman", help="uniform relabeled dice pairs")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--label-min", type=int, default=1)
    p.set_defaults(func=_cmd_sicherman)

    p = sub.add_parser("selftest", help="run the golden self-checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _checked_precision(parser, args):
    # The starting interval precision from --precision, else from
    # TOTALPARTS_PRECISION; a bad value is a usage error (exit 2).
    source, precision = "--precision", args.precision
    env = os.environ.get("TOTALPARTS_PRECISION")
    if precision is None and env:
        source = "TOTALPARTS_PRECISION"
        try:
            precision = int(env)
        except ValueError:
            parser.error(f"{source} must be an integer number of bits, "
                         f"got {env!r}")
    cap = exactnum.PRECISION_CAP_BITS
    if precision is not None and not 32 <= precision <= cap:
        parser.error(f"{source} must lie in [32, {cap}], got {precision}")
    return precision


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    precision = _checked_precision(parser, args)
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        parser.error(f"--workers must lie in [1, {cpus}], got {args.workers}")
    if precision is not None:
        exactnum.set_start_bits(precision)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
