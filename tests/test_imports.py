"""The import contract: the package and its CLI start without numpy,
multiprocessing or any layer of the package; each CLI command loads only
the layers it uses, and every public name is served on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import totalparts
from totalparts import exotica

# totalparts.__all__ as it stood while the package imported exotica eagerly
PUBLIC = {
    "ChiFactor", "CoinParts", "CrapsReport", "CrapsTotals", "CycElem", "Die",
    "DistPoly", "ExoticCensus", "FactorMultiset", "FairPair",
    "IrrationalDiscriminant", "LinearFactor", "NotReal", "Sack",
    "ScanRecord", "SignCertificate", "SwapSpec", "ZeroSum",
    "coin_die_elimination", "coin_die_fair_check", "coin_pair_solve",
    "coins_parts_from_total", "craps_evaluate", "craps_fair_impossibility",
    "craps_from_sack", "crapseval", "cyc_embed", "cyc_sign",
    "cyclotomic_poly", "dicecore", "enumerate_fair_pairs", "enumerate_fiber",
    "exactnum", "exotic_search", "exotica", "fair_pair_count", "fairlab",
    "fiber_degree", "fibers", "geometric_tree_check", "m3_exceptions",
    "normalize_to_die", "parts_to_total", "psi", "ramification_check",
    "s_scan", "scan_table", "sicherman_search", "smallest_exotic_34",
    "swap_census", "total_is_squarefree", "two_cos", "verify_tridecahedral",
}

EXOTICA_NAMES = ("ExoticCensus", "ScanRecord", "SwapSpec", "exotic_search",
                 "m3_exceptions", "s_scan", "scan_table", "smallest_exotic_34",
                 "swap_census", "verify_tridecahedral")

FAIR_TOTALS = "1/36,2/36,3/36,4/36,5/36,6/36,5/36,4/36,3/36,2/36,1/36"
FAIR_SACK = json.dumps({"dice": [{"probs": ["1/6"] * 6}] * 2})
SOLVE = ["solve", "--type", "2,3", "--total", '["1/6","1/3","1/3","1/6"]',
         "--factors", '[{"type":"linear","root":"-1"},'
                      '{"type":"chi","m":1,"k":3}]']

# Runs the argv of sys.argv[1] through cli.run in this fresh interpreter,
# after importing the package and building the parser, and prints its exit
# code (a usage error's SystemExit included), the heavy modules and the
# package's modules loaded after it.
PROBE = """\
import contextlib, io, json, sys
import totalparts
import totalparts.cli as cli
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.run(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted({"numpy", "multiprocessing"} & set(sys.modules)),
                  sorted(m for m in sys.modules if m.startswith("totalparts"))]))
"""

# the package's modules that import totalparts and build_parser load
ENTRY = ["totalparts", "totalparts.cli"]
CRAPS = ENTRY + ["totalparts.crapseval", "totalparts.dicecore",
                 "totalparts.exactnum"]
DICE = ENTRY + ["totalparts.dicecore", "totalparts.exactnum"]


def _fresh(code, *args):
    # the JSON that code prints in a fresh interpreter
    src = str(Path(totalparts.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_cli_starts_and_answers_craps_without_numpy():
    # each command in its own interpreter: its exit code, the heavy modules
    # and the package's modules it loaded
    runs = [
        ([], [2, [], ENTRY]),  # no command: a usage error
        (["--help"], [0, [], ENTRY]),
        (["craps", "--totals", FAIR_TOTALS], [0, [], CRAPS]),
        (["craps", "--sack", FAIR_SACK], [0, [], CRAPS]),
        (["total", "--sack", FAIR_SACK], [0, [], DICE]),
        (SOLVE, [0, [], sorted(DICE + ["totalparts.fibers"])]),
        # --workers is refused for every command, by dicecore's check
        (["--workers", "0", "craps", "--totals", FAIR_TOTALS],
         [2, [], DICE]),
        (["swaps", "--order", "12"],
         [0, ["multiprocessing", "numpy"],
          sorted(DICE + ["totalparts.exotica"])]),
    ]
    assert [_fresh(PROBE, json.dumps(argv)) for argv, _ in runs] == [
        want for _, want in runs]


def test_importing_the_package_and_building_the_parser_load_no_layer():
    assert _fresh("""\
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("totalparts"))
import totalparts
package = loaded()
import totalparts.cli as cli
cli.build_parser()
print(json.dumps([package, loaded()]))
""") == [["totalparts"], ENTRY]


def test_building_the_parser_loads_neither_json_nor_csv():
    # the probe imports no json itself: it writes its JSON list by hand
    assert _fresh("""\
import sys
import totalparts.cli as cli
cli.build_parser()
print(str(sorted({"json", "csv"} & set(sys.modules))).replace("'", '"'))
""") == []


def test_a_name_once_read_is_bound_in_the_package():
    assert _fresh("""\
import json, sys
import totalparts
before = ["Die" in vars(totalparts), "dicecore" in vars(totalparts)]
die = totalparts.Die
print(json.dumps(before + [vars(totalparts)["Die"] is die,
                           die is sys.modules["totalparts.dicecore"].Die,
                           "fibers" in vars(totalparts)]))
""") == [False, False, True, True, False]


def test_all_keeps_every_public_name():
    assert set(totalparts.__all__) == PUBLIC
    assert len(totalparts.__all__) == len(PUBLIC)


@pytest.mark.parametrize("name", EXOTICA_NAMES)
def test_exotica_names_are_served_from_exotica(name):
    assert getattr(totalparts, name) is getattr(exotica, name)
    assert name in dir(totalparts)


def test_star_import_binds_the_lazy_names():
    namespace = {}
    exec("from totalparts import *", namespace)
    assert PUBLIC <= set(namespace)
    assert all(namespace[name] is getattr(exotica, name)
               for name in EXOTICA_NAMES)
    assert namespace["exotica"] is exotica


def test_the_first_access_imports_exotica():
    assert _fresh("""\
import json, sys
import totalparts
before = "totalparts.exotica" in sys.modules
from totalparts import *
print(json.dumps([before, swap_census.__module__, "numpy" in sys.modules,
                  totalparts.exotica is sys.modules["totalparts.exotica"]]))
""") == [False, "totalparts.exotica", True, True]


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such'"):
        getattr(totalparts, "no_such")
    assert not hasattr(totalparts, "check_workers")
