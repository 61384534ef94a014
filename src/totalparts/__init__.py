"""Exact arithmetic for dice totals: the part-to-total map, its fibers,
totally fair pairs, exotic sacks, and craps."""

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
from .exotica import (
    ExoticCensus,
    ScanRecord,
    SwapSpec,
    exotic_search,
    m3_exceptions,
    s_scan,
    scan_table,
    smallest_exotic_34,
    swap_census,
    verify_tridecahedral,
)
from .crapseval import (
    CrapsReport,
    CrapsTotals,
    craps_evaluate,
    craps_from_sack,
    geometric_tree_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
