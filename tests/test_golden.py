"""Golden CLI transcript: stdout of fixed commands, compared byte for byte.

Each file under ``tests/golden/`` was recorded before the code change it
guards: the census files before the move to integer cyclotomic products and
the batched interval filter, the scan, scatter, craps, coin-die and
Sicherman files before the polynomial helpers were merged, the fiber
file before rational polynomials moved to integer numerators, and the
craps sack file before craps read a sack's total on one path.  Any change
to what these commands print fails here.
"""

import os
from pathlib import Path

import pytest

from totalparts import exotica
from totalparts.cli import run

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "swaps_20": ["swaps", "--order", "20"],
    "swaps_21": ["swaps", "--order", "21"],
    "exotic_7_12": ["exotic", "--orders", "7,12"],
    "exotic_10_10_table": ["--format", "table", "--decimal", "6",
                           "exotic", "--orders", "10,10"],
    "fair_enum_6": ["fair-enum", "--order", "6"],
    "s4scan_120": ["s4scan", "--kmax", "120"],
    "selftest": ["selftest"],
    "s3scan_200": ["s3scan", "--kmax", "200"],
    "scatter_200": ["scatter", "--kmax", "200"],
    "craps_symmetric": ["craps", "--totals", "1/36,2/36,3/36,4/36,5/36,6/36,"
                                             "5/36,4/36,3/36,2/36,1/36"],
    "craps_sack": ["craps", "--sack",
                   '{"dice": [{"order": 6, "probs": ["1/12", "1/6", "1/4",'
                   ' "1/12", "1/6", "1/4"]}, {"order": 6, "probs": ["1/21",'
                   ' "2/21", "1/7", "4/21", "5/21", "2/7"]}]}'],
    "coin_die_6": ["coin-die", "--order", "6"],
    "sicherman_6": ["sicherman", "--order", "6"],
    "solve_3_3": ["solve", "--total", '["1/9", "1/3", "1/9", "0", "4/9"]',
                  "--type", "3,3", "--factors",
                  '[{"type": "linear", "root": "-1/2", "multiplicity": 2},'
                  ' {"type": "chi", "m": 1, "k": 6}]'],
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden_transcript(name, capsys):
    assert run(COMMANDS[name]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_s4scan_with_two_workers_matches_golden_transcript(capsys,
                                                           monkeypatch):
    pools = []
    real_pool = exotica.Pool

    def pool(workers):
        pools.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(exotica, "Pool", pool)
    assert run(["--workers", "2", "s4scan", "--kmax", "120"]) == 0
    assert pools == [2]
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / "s4scan_120.out").read_bytes()
