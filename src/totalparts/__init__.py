"""Exact arithmetic for dice totals: the part-to-total map, its fibers,
totally fair pairs, exotic sacks, and craps.

Importing the package loads none of its modules.  Each public name is
served on first access (PEP 562) from the one module that defines it,
which is imported then, with the modules it imports itself, and the name
is bound here so that later reads are plain lookups.  The layers:
``exactnum`` (numbers), ``dicecore`` (dice and totals, on ``exactnum``),
``fibers`` and ``crapseval`` (on ``dicecore``), ``fairlab`` (on
``fibers``) and ``exotica`` (censuses and scans).

numpy and multiprocessing are imported by the code that computes with
them, the first time it runs: ``exotica`` imports both at its top, and the
ring pass imports numpy inside the function.  So the fiber, fair-pair
count and craps paths start without either."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each layer and the public names it defines.
_LAYERS = {
    "exactnum": ("CycElem", "NotReal", "SignCertificate", "cyc_embed",
                 "cyc_sign", "cyclotomic_poly", "two_cos"),
    "dicecore": ("Die", "DistPoly", "Sack", "ZeroSum", "normalize_to_die",
                 "parts_to_total", "psi"),
    "fibers": ("ChiFactor", "CoinParts", "FactorMultiset",
               "IrrationalDiscriminant", "LinearFactor",
               "coin_die_elimination", "coin_pair_solve",
               "coins_parts_from_total", "enumerate_fiber", "fiber_degree",
               "total_is_squarefree"),
    "fairlab": ("FairPair", "coin_die_fair_check", "craps_fair_impossibility",
                "enumerate_fair_pairs", "fair_pair_count",
                "ramification_check", "sicherman_search"),
    "crapseval": ("CrapsReport", "CrapsTotals", "craps_evaluate",
                  "craps_from_sack", "geometric_tree_check"),
    "exotica": ("ExoticCensus", "ScanRecord", "SwapSpec", "exotic_search",
                "m3_exceptions", "s_scan", "scan_table", "smallest_exotic_34",
                "swap_census", "verify_tridecahedral"),
}

# every public name, a layer's own included, and the layer it comes from
_HOME = {name: layer for layer, names in _LAYERS.items()
         for name in (layer, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{layer}")
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
