"""Command-line surface: exact results on stdout, JSON/CSV/table formats.

Importing this module and building the parser load no other module of the
package: each command imports the layers it uses when it runs, so
``totalparts --help`` and a usage error load none.  ``craps`` loads
``crapseval``, ``dicecore`` and ``exactnum``; ``total`` the last two;
``solve`` adds ``fibers``; ``fair-enum``, ``ramify``, ``coin-die`` and
``sicherman`` load ``fairlab`` (with ``fibers``).  The census and scan
commands (``exotic``, ``s3scan``, ``s4scan``, ``swaps``, ``selftest``)
import ``exotica``, and with it numpy, and ``fair-enum`` loads numpy for
its ring pass unless ``--count-only``; the other commands never load
numpy.

Exact scalars are always serialized as strings (``"7/18"``) or cyclotomic
coordinate objects, never floats; ``--decimal N`` adds a display-only
rounded column.  Exit code 0 on success, 1 on a domain error (the message
names the failing invariant), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys


def _decimal(x, places):
    from .exactnum import cyc_embed
    lo, hi = cyc_embed(x, 64)
    return round((float(lo) + float(hi)) / 2, places)


def _load_json_arg(value):
    import json
    value = value.strip()
    if value.startswith("{") or value.startswith("["):
        return json.loads(value)
    with open(value) as handle:
        return json.load(handle)


def _number_list(rational=False, size=None):
    """An argparse ``type=``: comma-separated integers or, with
    ``rational``, Fractions, exactly ``size`` of them when it is given, as a
    tuple; anything else, a zero denominator included, is a usage error."""
    what = "rationals" if rational else "integers"

    def parse(text):
        if rational:
            from fractions import Fraction as kind
        else:
            kind = int
        try:
            values = tuple(kind(x) for x in text.split(","))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
        if size is not None and len(values) != size:
            raise argparse.ArgumentTypeError(
                f"expected {size} {what}, got {len(values)}")
        return values
    return parse


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj):
    import json
    _emit(json.dumps(obj))


def _die_row(die, decimal):
    from .dicecore import render_scalar
    row = [render_scalar(p) for p in die.probs]
    if decimal is not None:
        row += [str(_decimal(p, decimal)) for p in die.probs]
    return row


def _cmd_total(args):
    from .dicecore import Sack, parts_to_total, render_scalar
    sack = Sack.from_json(_load_json_arg(args.sack))
    total = parts_to_total(sack)
    if args.format == "table":
        for t, c in enumerate(total.coeffs):
            line = f"{t}\t{render_scalar(c)}"
            if args.decimal is not None:
                line += f"\t{_decimal(c, args.decimal)}"
            _emit(line)
    else:
        _emit_json(total.to_json())
    return 0


def _cmd_solve(args):
    from .dicecore import DistPoly
    from .fibers import FactorMultiset, enumerate_fiber
    factors = FactorMultiset.from_json(_load_json_arg(args.factors))
    total = DistPoly.from_json(_load_json_arg(args.total))
    if factors.total_degree != len(total.coeffs) - 1:
        raise ValueError("factor multiset degree does not match the total")
    # the product normalizes to the total: s = sum(product) != 0 and
    # product[i] == total[i] * s for every i
    product = factors.product()
    s = sum(product)
    if not s or any(a != b * s for a, b in zip(product, total.coeffs)):
        raise ValueError("factor multiset product does not match the total")
    sacks = enumerate_fiber(factors, args.type)
    _emit_json([s.to_json() for s in sacks])
    return 0


def _cmd_fair_enum(args):
    from .fairlab import enumerate_fair_pairs, fair_pair_count
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
        _emit_json([{
            "r": list(p.r),
            "d": p.d.to_json(),
            "dhat": p.dhat.to_json(),
            "strict": p.is_strict(),
            "real": p.is_real(),
        } for p in pairs])
    return 0


def _cmd_ramify(args):
    from .fairlab import ramification_check
    lhs, rhs = ramification_check(args.order)
    _emit_json({"weighted_pairs": lhs, "fiber_degree": rhs,
                "equal": lhs == rhs})
    return 0


def _cmd_coin_die(args):
    from .fairlab import coin_die_fair_check
    report = coin_die_fair_check(args.order)
    _emit_json({
        "order": report.order,
        "strict_sacks": [s.to_json() for s in report.strict_sacks],
        "only_fair_is_strict": report.only_fair_is_strict,
    })
    return 0


def _cmd_exotic(args):
    from .exotica import exotic_search
    census = exotic_search(*args.orders)
    if args.format == "table":
        for sack, spec in census.sacks:
            _emit(spec.render())
            for die in sack.dice:
                _emit("  [" + " ".join(_die_row(die, args.decimal)) + "]")
    else:
        _emit_json([{
            "swap": spec.render(),
            "sack": sack.to_json(),
        } for sack, spec in census.sacks])
    return 0


def _cmd_scan(args):
    # one row per record, as it arrives; R rounds to --decimal places, else 7
    import contextlib
    import csv
    from .exotica import M3_RATIO_BOUND, scan_table
    records = scan_table(args.ell, args.kmax, args.workers)
    places = 7 if args.decimal is None else args.decimal
    with (open(args.csv, "w", newline="") if args.csv
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.writer(out)
        writer.writerow(["k", f"M{args.ell}", f"R{args.ell}_num",
                         f"R{args.ell}_den", f"R{args.ell}_decimal"])
        for r in records:
            if r.M is None:
                writer.writerow([r.k, "", "", "", ""])
                continue
            writer.writerow([r.k, r.M, r.R.numerator, r.R.denominator,
                             round(float(r.R), places)])
            if args.ell == 3 and r.R > M3_RATIO_BOUND:
                print(f"WARNING: R3({r.k}) = {r.R} exceeds the conjectured "
                      f"bound 60/143", file=sys.stderr)
    return 0


def _cmd_swaps(args):
    from .exotica import swap_census
    for spec in swap_census(args.order):
        _emit(spec.render())
    return 0


def _cmd_craps(args):
    from fractions import Fraction
    from .crapseval import (WIN_TOTALS, CrapsTotals, craps_evaluate,
                            craps_from_sack)
    from .dicecore import Sack
    # the parser admits exactly one of --totals and --sack
    if args.totals is not None:
        report = craps_evaluate(CrapsTotals(args.totals))
    else:
        report = craps_from_sack(Sack.from_json(_load_json_arg(args.sack)))
    t_row = list(range(2, 13))
    _emit("t        " + " ".join(f"{t:>8}" for t in t_row))
    _emit("P(t)     " + " ".join(f"{str(report.totals[t]):>8}" for t in t_row))
    _emit("P(w|t)   " + " ".join(
        f"{str(report.point_win.get(t, Fraction(1) if t in WIN_TOTALS else Fraction(0))):>8}"
        for t in t_row))
    _emit("P(t&w)   " + " ".join(f"{str(report.breakdown[t]):>8}" for t in t_row))
    _emit(f"p_win = {report.p_win}"
          + (f" ~ {_decimal(report.p_win, args.decimal)}"
             if args.decimal is not None else ""))
    _emit(f"matches_fair_244_495 = {report.matches_fair}")
    return 0


def _cmd_sicherman(args):
    from .fairlab import sicherman_search
    pairs = sicherman_search(args.order, args.label_min)
    _emit_json([[list(a), list(b)] for a, b in pairs])
    return 0


def _cmd_selftest(args):
    from .crapseval import CrapsTotals, craps_evaluate
    from .exotica import exotic_search, s_scan, verify_tridecahedral
    from .fairlab import fair_pair_count, ramification_check
    from .fibers import fiber_degree
    checks = []
    checks.append(("fair_pair_count(6) == 51", fair_pair_count(6) == 51))
    checks.append(("fiber_degree((6,6)) == 252", fiber_degree((6, 6)) == 252))
    lhs, rhs = ramification_check(6)
    checks.append(("ramification_check(6) balanced", lhs == rhs == 252))
    checks.append(("craps fair p_win == 244/495",
                   craps_evaluate(CrapsTotals.fair()).matches_fair))
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
    p.add_argument("--type", type=_number_list(), required=True)
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
    p.add_argument("--orders", type=_number_list(size=2), required=True)
    p.set_defaults(func=_cmd_exotic)

    p = sub.add_parser("s3scan", aliases=["scatter"],
                       help="order-3 swap scan table; warns on R3 > 60/143")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_scan, ell=3)

    p = sub.add_parser("s4scan", help="order-4 swap scan table")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_scan, ell=4)

    p = sub.add_parser("swaps", help="diagonal swap census of one order")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_swaps)

    p = sub.add_parser("craps", help="exact craps evaluation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--totals", type=_number_list(rational=True),
                        help="11 comma-separated rationals for totals 2..12")
    source.add_argument("--sack")
    p.set_defaults(func=_cmd_craps)

    p = sub.add_parser("sicherman", help="uniform relabeled dice pairs")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--label-min", type=int, default=1)
    p.set_defaults(func=_cmd_sicherman)

    p = sub.add_parser("selftest", help="run the golden self-checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.decimal is not None and args.decimal < 0:
        parser.error(f"--decimal must be at least 0, got {args.decimal}")
    # after parsing, so that a usage error loads no layer
    from .dicecore import check_workers
    try:
        check_workers(args.workers)
    except ValueError as exc:
        parser.error(f"--{exc}")
    # a json.JSONDecodeError is a ValueError
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
