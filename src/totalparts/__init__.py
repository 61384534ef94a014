"""Exact arithmetic for dice totals: the part-to-total map, its fibers,
totally fair pairs, exotic sacks, and craps.

numpy and multiprocessing are imported by the code that computes with
them, the first time it runs, never with the package: ``exotica`` (the
censuses and scans) imports both at its top and is itself imported on
first use, and the ring pass imports numpy inside the function.  So the
fiber, fair-pair count and craps paths, and the CLI commands that take
them, start without either."""

from importlib import import_module as _import_module

from .exactnum import (
    CycElem,
    NotReal,
    SignCertificate,
    cyc_embed,
    cyc_sign,
    cyclotomic_poly,
    two_cos,
)
from .dicecore import (
    Die,
    DistPoly,
    Sack,
    ZeroSum,
    normalize_to_die,
    parts_to_total,
    psi,
)
from .fibers import (
    ChiFactor,
    CoinParts,
    FactorMultiset,
    IrrationalDiscriminant,
    LinearFactor,
    coin_die_elimination,
    coin_pair_solve,
    coins_parts_from_total,
    enumerate_fiber,
    fiber_degree,
    total_is_squarefree,
)
from .fairlab import (
    FairPair,
    coin_die_fair_check,
    craps_fair_impossibility,
    enumerate_fair_pairs,
    fair_pair_count,
    ramification_check,
    sicherman_search,
)
from .crapseval import (
    CrapsReport,
    CrapsTotals,
    craps_evaluate,
    craps_from_sack,
    geometric_tree_check,
)

__version__ = "0.1.0"

# exotica's names, served on first access: exotica imports numpy and
# multiprocessing, which only a census or a scan needs (PEP 562).
_EXOTICA = (
    "ExoticCensus",
    "ScanRecord",
    "SwapSpec",
    "exotic_search",
    "m3_exceptions",
    "s_scan",
    "scan_table",
    "smallest_exotic_34",
    "swap_census",
    "verify_tridecahedral",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["exotica", *_EXOTICA])


def __getattr__(name):
    if name != "exotica" and name not in _EXOTICA:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    exotica = _import_module(f"{__name__}.exotica")
    return exotica if name == "exotica" else getattr(exotica, name)


def __dir__():
    return sorted({*globals(), *__all__})
