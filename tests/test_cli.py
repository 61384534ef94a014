"""Command-line surface: formats, round-trips, and exit codes."""

import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import totalparts
from totalparts import exactnum, exotica, fairlab
from totalparts.cli import run
from totalparts.dicecore import Die, DistPoly, Sack, parts_to_total

F = Fraction

FAIR_66 = json.dumps(Sack((Die.fair(6), Die.fair(6))).to_json())


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_total_round_trips_through_json(capsys):
    code, out, _ = _run(capsys, "total", "--sack", FAIR_66)
    assert code == 0
    total = DistPoly.from_json(json.loads(out))
    assert total.coeffs == parts_to_total(
        Sack((Die.fair(6), Die.fair(6)))).coeffs


def test_total_table_format_with_decimal(capsys):
    code, out, _ = _run(capsys, "--format", "table", "--decimal", "4",
                        "total", "--sack", FAIR_66)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert lines[5].split("\t") == ["5", "1/6", "0.1667"]


# the worked total (x+1)(x+2)(x+1/2), normalized, and its factors
WORKED_FACTORS = json.dumps([
    {"type": "linear", "root": "-1", "multiplicity": 1},
    {"type": "linear", "root": "-2", "multiplicity": 1},
    {"type": "linear", "root": "-1/2", "multiplicity": 1},
])
WORKED_TOTAL = json.dumps(DistPoly(
    (F(1, 9), F(7, 18), F(7, 18), F(1, 9))).to_json())


def test_solve_enumerates_the_worked_fiber(capsys):
    code, out, _ = _run(capsys, "solve", "--type", "2,3",
                        "--factors", WORKED_FACTORS, "--total", WORKED_TOTAL)
    assert code == 0
    sacks = [Sack.from_json(s) for s in json.loads(out)]
    assert len(sacks) == 3
    for sack in sacks:
        assert parts_to_total(sack).coeffs == \
            (F(1, 9), F(7, 18), F(7, 18), F(1, 9))


@pytest.mark.parametrize("roots", [["-3", "-5"], ["1", "1"]])
def test_solve_rejects_factors_whose_product_is_not_the_total(roots, capsys):
    # (x+3)(x+5) normalizes to [5/8, 1/3, 1/24], not the total; (x-1)^2 has
    # coefficient sum 0 and normalizes to nothing.
    factors = json.dumps([{"type": "linear", "root": r} for r in roots])
    total = json.dumps(["1/4", "1/2", "1/4"])
    code, out, err = _run(capsys, "solve", "--type", "2,2",
                          "--factors", factors, "--total", total)
    assert code == 1 and out == ""
    assert err == "error: factor multiset product does not match the total\n"


BINOMIAL_4 = ["1/16", "1/4", "3/8", "1/4", "1/16"]


@pytest.mark.parametrize("ms, total", [
    ((1, 2), BINOMIAL_4), ((1, 1), BINOMIAL_4), ((1, 2), ["1/5"] * 5),
], ids=["psi_5", "chi_1_5_squared", "psi_5_fair"])
def test_solve_checks_a_chi_product_against_the_total(ms, total, capsys):
    # chi_{1,5} chi_{2,5} = psi_5 has CycElem coefficients of rational
    # value, chi_{1,5}^2 irrational ones; only psi_5/5 is a total of them
    factors = json.dumps([{"type": "chi", "m": m, "k": 5} for m in ms])
    code, out, err = _run(capsys, "solve", "--type", "3,3", "--factors",
                          factors, "--total", json.dumps(total))
    if total == BINOMIAL_4:
        assert code == 1 and out == ""
        assert err == \
            "error: factor multiset product does not match the total\n"
        return
    assert code == 0
    for sack in json.loads(out):
        assert parts_to_total(Sack.from_json(sack)).coeffs == (F(1, 5),) * 5


def test_fair_enum_count_only(capsys):
    code, out, _ = _run(capsys, "fair-enum", "--order", "6", "--count-only")
    assert code == 0
    assert out.strip() == "51"


def test_fair_enum_json_has_51_records(capsys):
    code, out, _ = _run(capsys, "fair-enum", "--order", "6")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 51
    assert sum(1 for r in records if r["strict"]) == 1


def test_ramify_balanced(capsys):
    code, out, _ = _run(capsys, "ramify", "--order", "6")
    assert code == 0
    data = json.loads(out)
    assert data == {"weighted_pairs": 252, "fiber_degree": 252, "equal": True}


def test_exotic_table_render(capsys):
    code, out, _ = _run(capsys, "--format", "table", "exotic",
                        "--orders", "3,4")
    assert code == 0
    # off-diagonal swaps are keyed by the reduced fractions m/k
    assert out.splitlines()[0] == "[1/3<->1/4]"


def test_swaps_render(capsys):
    code, out, _ = _run(capsys, "swaps", "--order", "12")
    assert code == 0
    assert out.strip().splitlines() == ["[2<->3]", "[3<->4]", "[4<->5]"]


def test_s3scan_csv_columns(capsys, tmp_path):
    path = tmp_path / "scan.csv"
    code, out, _ = _run(capsys, "s3scan", "--kmax", "20",
                        "--csv", str(path))
    assert code == 0 and out == ""
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,M3,R3_num,R3_den,R3_decimal"
    assert len(lines) == 20  # header + k = 2..20
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert rows[12][1:4] == ["5", "5", "12"]
    assert rows[2][1] == ""


def test_scan_holds_at_most_two_records(capsys, monkeypatch):
    # each record is written as it arrives and then let go
    real = exotica.s_scan
    alive = peak = 0

    def released():
        nonlocal alive
        alive -= 1

    def tracked(ell, k):
        nonlocal alive, peak
        record = real(ell, k)
        alive += 1
        peak = max(peak, alive)
        weakref.finalize(record, released)
        return record

    monkeypatch.setattr(exotica, "s_scan", tracked)
    code, out, _ = _run(capsys, "s3scan", "--kmax", "200")
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "golden"
                            / "s3scan_200.out").read_bytes()
    assert 1 <= peak <= 2 and alive == 0


def test_unwritable_csv_exits_1_before_any_scan(capsys, monkeypatch,
                                                tmp_path):
    def no_scan(*args):
        raise AssertionError("a scan was started")

    monkeypatch.setattr(exotica, "s_scan", no_scan)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, "s3scan", "--kmax", "4000",
                          "--csv", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("kmax", ["1", str(exotica._SCAN_K_MAX + 1)])
def test_refused_scan_creates_no_csv(kmax, capsys, tmp_path):
    path = tmp_path / "x.csv"
    code, out, _ = _run(capsys, "s3scan", "--kmax", kmax, "--csv", str(path))
    assert code == 1 and out == "" and not path.exists()


def test_scan_failing_part_way_keeps_the_rows_before_it(capsys, monkeypatch):
    real = exotica.s_scan

    def fails_at_5(ell, k):
        if k == 5:
            raise exactnum.UnresolvedSign("sign unresolved")
        return real(ell, k)

    monkeypatch.setattr(exotica, "s_scan", fails_at_5)
    code, out, err = _run(capsys, "s3scan", "--kmax", "20")
    assert code == 1 and err == "error: sign unresolved\n"
    assert [line.split(",")[0] for line in out.splitlines()] == [
        "k", "2", "3", "4"]


def test_scatter_reports_no_violations(capsys):
    code, out, err = _run(capsys, "scatter", "--kmax", "150")
    assert code == 0
    assert "WARNING" not in err
    assert "143,60,60,143" in out


@pytest.mark.parametrize("command", ["scatter", "s3scan"])
def test_scatter_warns_on_a_ratio_above_the_bound(command, capsys,
                                                  monkeypatch):
    real = exotica.s_scan
    # S_3(20) = (9,) would give R3(20) = 9/20 > 60/143
    monkeypatch.setattr(exotica, "s_scan", lambda ell, k: (
        exotica.ScanRecord(k, (9,)) if k == 20 else real(ell, k)))
    code, out, err = _run(capsys, command, "--kmax", "30")
    assert code == 0
    assert err == ("WARNING: R3(20) = 9/20 exceeds the conjectured "
                   "bound 60/143\n")
    lines = out.splitlines()
    assert len(lines) == 30 and "20,9,9,20,0.45" in lines


def test_craps_totals_output(capsys):
    fair = ",".join(str(F(6 - abs(t - 7), 36)) for t in range(2, 13))
    code, out, _ = _run(capsys, "craps", "--totals", fair)
    assert code == 0
    assert "p_win = 244/495" in out
    assert "matches_fair_244_495 = True" in out
    assert "2/5" in out  # P(w|t) = 4/10 at the points 5 and 9, reduced


def test_craps_from_sack(capsys):
    code, out, _ = _run(capsys, "craps", "--sack", FAIR_66)
    assert code == 0
    assert "p_win = 244/495" in out


# --totals and --sack are one required choice: both, in either order and
# whether or not the sack is valid, or neither is a usage error.
CRAPS_SOURCES = {
    "totals_then_sack": (("--totals", "T"), ("--sack", FAIR_66)),
    "sack_then_totals": (("--sack", FAIR_66), ("--totals", "T")),
    "totals_then_bad_sack": (("--totals", "T"), ("--sack", '{"dice":[]}')),
    "bad_sack_then_totals": (("--sack", '{"dice":[]}'), ("--totals", "T")),
    "neither": (),
}


@pytest.mark.parametrize("options", CRAPS_SOURCES.values(),
                         ids=CRAPS_SOURCES.keys())
def test_craps_takes_exactly_one_of_totals_and_sack(options, capsys):
    fair = ",".join(str(F(6 - abs(t - 7), 36)) for t in range(2, 13))
    argv = ["craps"] + [fair if arg == "T" else arg
                        for option in options for arg in option]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if options:
        second, first = options[1][0], options[0][0]
        assert (f"error: argument {second}: not allowed with argument "
                f"{first}\n") in captured.err
    else:
        assert ("error: one of the arguments --totals --sack is required\n"
                in captured.err)


@pytest.mark.parametrize("command", [
    ["s3scan", "--kmax", "20"],
    ["s4scan", "--kmax", "20"],
    ["scatter", "--kmax", "20"],
    ["craps", "--sack", FAIR_66],
])
def test_decimal_zero_is_honoured_and_negative_is_a_usage_error(command,
                                                                capsys):
    code, out, _ = _run(capsys, "--decimal", "0", *command)
    assert code == 0
    if command[0] == "craps":
        assert "p_win = 244/495 ~ 0.0\n" in out
    else:
        assert {line.split(",")[4] for line in out.splitlines()[1:]} == {
            "", "0.0"}
    with pytest.raises(SystemExit) as exc:
        run(["--decimal", "-2"] + command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--decimal" in err and "Traceback" not in err


def test_sicherman_output(capsys):
    code, out, _ = _run(capsys, "sicherman", "--order", "6")
    assert code == 0
    pairs = json.loads(out)
    assert [sorted(a) for a in pairs[0]] in (
        [[1, 2, 2, 3, 3, 4], [1, 3, 4, 5, 6, 8]],
        [[1, 3, 4, 5, 6, 8], [1, 2, 2, 3, 3, 4]])


def test_selftest_all_pass(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_domain_error_exit_1(capsys):
    bad = json.dumps({"dice": [{"order": 2, "probs": ["1/2", "1/3"]}]})
    code, _, err = _run(capsys, "total", "--sack", bad)
    assert code == 1
    assert err.startswith("error:")


# Each sack below is malformed in one scalar.  Every one must end in exit 1
# with one "error:" line; each of the last four would otherwise be read as a
# die whose probabilities sum to 1.
MALFORMED_SCALARS = {
    "conductor_zero": [{"conductor": 0, "coords": ["1"]}, "0"],
    "conductor_float": [{"conductor": 2.5, "coords": ["1"]}, "0"],
    "conductor_string": [{"conductor": "6", "coords": ["1"]}, "0"],
    "coords_string": [{"conductor": 1, "coords": "12"}, "-2"],
    "coords_float": [{"conductor": 1, "coords": [0.5]}, "1/2"],
    "json_true": [True, "0"],
    "json_false": ["1", False],
}


@pytest.mark.parametrize("probs", MALFORMED_SCALARS.values(),
                         ids=MALFORMED_SCALARS.keys())
def test_malformed_scalar_json_exits_1(probs, capsys):
    sack = json.dumps({"dice": [{"order": 2, "probs": probs}]})
    code, out, err = _run(capsys, "total", "--sack", sack)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Each argument below has a JSON value of the wrong shape where an object or
# a list belongs.  Every one must end in exit 1 with one "error:" line, not
# a traceback; the first would otherwise be read digit by digit.
MALFORMED_SHAPES = {
    "probs_string": ("total", "--sack",
                     '{"dice":[{"probs":"01"},{"probs":"01"}]}'),
    "sack_list": ("total", "--sack", "[]"),
    "die_number": ("total", "--sack", '{"dice":[5]}'),
    "dice_object": ("total", "--sack", '{"dice":{"a":1}}'),
    "factors_object": ("solve", "--type", "2,3", "--factors", '{"a":1}',
                       "--total", '["1/6","1/3","1/3","1/6"]'),
    "factor_number": ("solve", "--type", "2,3", "--factors", "[5]",
                      "--total", '["1/6","1/3","1/3","1/6"]'),
    "total_object": ("solve", "--type", "2,3", "--factors", "[]",
                     "--total", '{"a":1}'),
    "craps_sack_list": ("craps", "--sack", "[1]"),
}


@pytest.mark.parametrize("argv", MALFORMED_SHAPES.values(),
                         ids=MALFORMED_SHAPES.keys())
def test_malformed_json_shape_exits_1(argv, capsys):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# A JSON object lacking a field it needs: exit 1 with a message naming the
# field, not a bare KeyError.
MISSING_FIELDS = {
    "sack_dice": (("total", "--sack", "{}"), "a sack needs a 'dice' field"),
    "die_probs": (("craps", "--sack", '{"dice":[{"order":2}]}'),
                  "a die needs a 'probs' field"),
    "scalar_coords": (("total", "--sack",
                       '{"dice":[{"probs":[{"conductor":3},"1"]}]}'),
                      "a cyclotomic scalar needs a 'coords' field"),
    "chi_k": (("solve", "--type", "2,3", "--factors",
               '[{"type":"chi","m":1}]', "--total",
               '["1/6","1/3","1/3","1/6"]'), "a chi factor needs a 'k' field"),
}


@pytest.mark.parametrize("argv, message", MISSING_FIELDS.values(),
                         ids=MISSING_FIELDS.keys())
def test_a_missing_json_field_is_named(argv, message, capsys):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# A factor field that must be an integer holding a string, a float or a
# boolean; each factor multiset matches the total but for that field.
_X1 = '{"type":"linear","root":-1}'
MALFORMED_FACTOR_FIELDS = {
    "m_string": ("m", '[{"type":"chi","m":"a","k":5}]'),
    "m_bool": ("m", f'[{_X1},{{"type":"chi","m":true,"k":3}}]'),
    "multiplicity_string": (
        "multiplicity",
        f'[{_X1},{{"type":"chi","m":1,"k":3,"multiplicity":"x"}}]'),
    "multiplicity_float": (
        "multiplicity",
        f'[{_X1},{{"type":"chi","m":1,"k":3,"multiplicity":1.5}}]'),
}


@pytest.mark.parametrize("field, factors", MALFORMED_FACTOR_FIELDS.values(),
                         ids=MALFORMED_FACTOR_FIELDS.keys())
def test_non_integer_factor_field_exits_1(field, factors, capsys):
    code, out, err = _run(capsys, "solve", "--type", "2,3", "--factors",
                          factors, "--total", '["1/6","1/3","1/3","1/6"]')
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field} must be an integer")
    assert err.count("\n") == 1


def test_scan_kmax_above_the_proven_limit_exits_1(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a scan was started")

    monkeypatch.setattr(exotica, "s_scan", no_scan)
    monkeypatch.setattr(exotica, "Pool", no_scan)
    for command in ("s3scan", "s4scan"):
        code, out, err = _run(capsys, command, "--kmax",
                              str(exotica._SCAN_K_MAX + 1))
        assert code == 1 and out == ""
        assert err == ("error: k must satisfy 2 <= k <= "
                       f"{exotica._SCAN_K_MAX}\n")


# An order below 2 in a scan's k_max, a fiber type, a Sicherman order or a
# fair-pair order is a domain error, refused before any work.
ORDERS_BELOW_2 = {
    "s3scan_1": (("s3scan", "--kmax", "1"), "k must satisfy 2 <= k <= "
                 f"{exotica._SCAN_K_MAX}"),
    "s4scan_-4": (("s4scan", "--kmax=-4"), "k must satisfy 2 <= k <= "
                  f"{exotica._SCAN_K_MAX}"),
    "scatter_0": (("scatter", "--kmax", "0"), "k must satisfy 2 <= k <= "
                  f"{exotica._SCAN_K_MAX}"),
    "solve_0_5": (("solve", "--type", "0,5"), "sack type entries must be >= 2"),
    "solve_-1_6": (("solve", "--type=-1,6"), "sack type entries must be >= 2"),
    "solve_1_4": (("solve", "--type", "1,4"), "sack type entries must be >= 2"),
    "sicherman_1": (("sicherman", "--order", "1"), "order must be >= 2"),
    "sicherman_0": (("sicherman", "--order", "0"), "order must be >= 2"),
    "sicherman_-3": (("sicherman", "--order=-3"), "order must be >= 2"),
    "fair_enum_1": (("fair-enum", "--order", "1"), "order must be >= 2"),
    "fair_enum_0": (("fair-enum", "--order", "0"), "order must be >= 2"),
    "fair_enum_-2": (("fair-enum", "--order=-2"), "order must be >= 2"),
    "fair_enum_0_table": (("--format", "table", "fair-enum", "--order", "0"),
                          "order must be >= 2"),
    "fair_enum_0_count": (("fair-enum", "--order", "0", "--count-only"),
                          "order must be >= 2"),
    "ramify_0": (("ramify", "--order", "0"), "order must be >= 2"),
    "ramify_1": (("ramify", "--order", "1"), "order must be >= 2"),
    "ramify_-2": (("ramify", "--order=-2"), "order must be >= 2"),
    "coin_die_0": (("coin-die", "--order", "0"), "order must be >= 2"),
    "coin_die_1": (("coin-die", "--order", "1"), "order must be >= 2"),
    "coin_die_-3": (("coin-die", "--order=-3"), "order must be >= 2"),
}


@pytest.mark.parametrize("argv, message", ORDERS_BELOW_2.values(),
                         ids=ORDERS_BELOW_2.keys())
def test_orders_below_2_exit_1(argv, message, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work was started")

    monkeypatch.setattr(exotica, "s_scan", no_work)
    monkeypatch.setattr(exotica, "Pool", no_work)
    monkeypatch.setattr(fairlab, "fiber_degree", no_work)
    monkeypatch.setattr(fairlab, "enumerate_fiber", no_work)
    if argv[0] == "solve":
        argv += ("--factors", WORKED_FACTORS, "--total", WORKED_TOTAL)
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("order", [0, 1])
def test_swaps_below_order_2_exits_1(order, capsys):
    code, out, err = _run(capsys, "swaps", "--order", str(order))
    assert code == 1 and out == ""
    assert err == "error: order must satisfy k >= 2\n"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["fair-enum"])  # missing required --order
    assert exc.value.code == 2


# Integer lists that do not parse, or hold the wrong number of integers:
# each is a usage error naming its option, not an internal message.
MALFORMED_INT_LISTS = {
    "orders_one": ("exotic", "--orders", "5"),
    "orders_three": ("exotic", "--orders", "3,4,5"),
    "orders_letters": ("exotic", "--orders", "a,b"),
    "type_letter": ("solve", "--type", "2,x", "--factors", "[]",
                    "--total", '["1/2","1/2"]'),
}


def _assert_usage_error_naming(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argv[1]}: expected " in captured.err
    assert "unpack" not in captured.err and "literal" not in captured.err


@pytest.mark.parametrize("argv", MALFORMED_INT_LISTS.values(),
                         ids=MALFORMED_INT_LISTS.keys())
def test_malformed_integer_list_is_a_usage_error(argv, capsys):
    _assert_usage_error_naming(argv, capsys)


_TEN_TOTALS = ",".join(["1/11"] * 10)

# Rational lists that do not parse, a zero denominator included: each is a
# usage error naming --totals, not Fraction's internal message.
MALFORMED_TOTALS = {
    "totals_letters": ("craps", "--totals", "abc"),
    "totals_zero_denominator": ("craps", "--totals", f"1/0,{_TEN_TOTALS}"),
    "totals_empty_entry": ("craps", "--totals", f"1/11,,{_TEN_TOTALS}"),
    "totals_float_word": ("craps", "--totals", f"nan,{_TEN_TOTALS}"),
}


@pytest.mark.parametrize("argv", MALFORMED_TOTALS.values(),
                         ids=MALFORMED_TOTALS.keys())
def test_malformed_totals_are_a_usage_error(argv, capsys):
    _assert_usage_error_naming(argv, capsys)


# Totals that parse but are no distribution on 2..12 stay domain errors.
CRAPS_DOMAIN_ERRORS = {
    "count": ("1/2,1/2", "craps needs the 11 totals 2..12"),
    "sign": (f"-1/11,3/11,{','.join(['1/11'] * 9)}",
             "total probabilities must be nonnegative"),
    "sum": (f"1/2,{_TEN_TOTALS}", "total probabilities must sum to 1"),
}


@pytest.mark.parametrize("totals, message", CRAPS_DOMAIN_ERRORS.values(),
                         ids=CRAPS_DOMAIN_ERRORS.keys())
def test_craps_totals_that_are_no_distribution_exit_1(totals, message,
                                                      capsys):
    code, out, err = _run(capsys, "craps", f"--totals={totals}")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_orders_out_of_order_are_a_domain_error(capsys):
    code, out, err = _run(capsys, "exotic", "--orders", "12,7")
    assert code == 1 and out == ""
    assert err == "error: orders must satisfy 2 <= k <= k'\n"


def test_retired_precision_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--precision", "256", "selftest"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_unresolved_sign_exits_1_without_traceback(capsys, monkeypatch):
    # every enclosure straddles zero, so no nonzero sign is ever decided
    monkeypatch.setattr(exactnum, "cyc_embed",
                        lambda e, bits=64: (F(-1), F(1)))
    code, _, err = _run(capsys, "selftest")
    assert code == 1
    assert err.startswith("error: sign of nonzero element ")
    assert "unresolved at its separation bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
def test_workers_out_of_range_starts_no_pool(workers, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a Pool was created")

    monkeypatch.setattr(exotica, "Pool", no_pool)
    fair = ",".join(str(F(6 - abs(t - 7), 36)) for t in range(2, 13))
    for command in (["s3scan", "--kmax", "60"], ["scatter", "--kmax", "60"],
                    ["craps", "--totals", fair]):
        with pytest.raises(SystemExit) as exc:
            run(["--workers", str(workers)] + command)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["totalparts", "totalparts.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(Path(totalparts.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", module, "selftest"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)
