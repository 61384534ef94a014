"""Golden CLI transcript: stdout of fixed commands, compared byte for byte.

The files under ``tests/golden/`` were recorded before the census moved to
integer cyclotomic products and the batched interval filter; any change to
what these commands print fails here.
"""

from pathlib import Path

import pytest

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
}


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden_transcript(name, capsys, monkeypatch):
    monkeypatch.delenv("TOTALPARTS_PRECISION", raising=False)
    assert run(COMMANDS[name]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.out").read_bytes()
