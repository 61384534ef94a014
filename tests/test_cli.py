"""Command-line surface: formats, round-trips, and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import totalparts
from totalparts import exactnum, exotica
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


def test_solve_enumerates_the_worked_fiber(capsys):
    factors = json.dumps([
        {"type": "linear", "root": "-1", "multiplicity": 1},
        {"type": "linear", "root": "-2", "multiplicity": 1},
        {"type": "linear", "root": "-1/2", "multiplicity": 1},
    ])
    total = json.dumps(DistPoly(
        (F(1, 9), F(7, 18), F(7, 18), F(1, 9))).to_json())
    code, out, _ = _run(capsys, "solve", "--type", "2,3",
                        "--factors", factors, "--total", total)
    assert code == 0
    sacks = [Sack.from_json(s) for s in json.loads(out)]
    assert len(sacks) == 3
    for sack in sacks:
        assert parts_to_total(sack).coeffs == \
            (F(1, 9), F(7, 18), F(7, 18), F(1, 9))


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


def test_scatter_reports_no_violations(capsys):
    code, out, err = _run(capsys, "scatter", "--kmax", "150")
    assert code == 0
    assert "WARNING" not in err
    assert "143,60,60,143" in out


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


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["fair-enum"])  # missing required --order
    assert exc.value.code == 2


def test_precision_env_honored(capsys, monkeypatch):
    base = exactnum.get_start_bits()
    monkeypatch.setenv("TOTALPARTS_PRECISION", "256")
    try:
        code, out, _ = _run(capsys, "fair-enum", "--order", "2",
                            "--count-only")
        assert code == 0
        assert exactnum.get_start_bits() == 256
    finally:
        exactnum.set_start_bits(base)


def test_precision_flag_beats_env(capsys, monkeypatch):
    base = exactnum.get_start_bits()
    monkeypatch.setenv("TOTALPARTS_PRECISION", "256")
    try:
        code, _, _ = _run(capsys, "--precision", "512", "fair-enum",
                          "--order", "2", "--count-only")
        assert code == 0
        assert exactnum.get_start_bits() == 512
    finally:
        exactnum.set_start_bits(base)


@pytest.mark.parametrize("env, argv", [
    ("abc", []),
    ("16", []),
    ("9000", []),
    (None, ["--precision", "16"]),
    (None, ["--precision", "8193"]),
])
def test_bad_precision_is_a_usage_error(env, argv, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("TOTALPARTS_PRECISION", raising=False)
    else:
        monkeypatch.setenv("TOTALPARTS_PRECISION", env)
    base = exactnum.get_start_bits()
    with pytest.raises(SystemExit) as exc:
        run(argv + ["fair-enum", "--order", "2", "--count-only"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("TOTALPARTS_PRECISION" if env else "--precision") in err
    assert "Traceback" not in err
    assert exactnum.get_start_bits() == base


@pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
def test_workers_out_of_range_starts_no_pool(workers, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a Pool was created")

    monkeypatch.setattr(exotica, "Pool", no_pool)
    for command in (["s3scan", "--kmax", "60"], ["scatter", "--kmax", "60"]):
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
    env.pop("TOTALPARTS_PRECISION", None)
    proc = subprocess.run([sys.executable, "-m", module, "selftest"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)
