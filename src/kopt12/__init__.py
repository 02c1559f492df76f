"""k-Opt and k-Opt++ local search for the TSP with costs one and two.

The package provides exact move enumeration for k in {2, 3}, a vectorised
first-improvement search with certified exhaustive neighborhood scans,
instance families whose designated tours are locally optimal yet far from
the optimum, exact solvers for small instances, and the counter accounting
that converts local optimality into approximation ratio bounds.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    Counter,
    CounterLedger,
    DualReport,
    GbPair,
    PathCheckReport,
    PathViolation,
    PropertyCheck,
    PropertyReport,
    RatioReport,
    check_counter_properties,
    count_bound_check,
    distribute_counters,
    dual_feasibility_check,
    dual_slack,
    gb_values,
    pp_path_checks,
    ratio_report,
    ratio_upper_bound,
)
from .certify import (
    Certificate,
    certify_k_optimal,
    certify_kpp_optimal,
    endpoint_pair_violations,
    find_forbidden_constellation,
)
from .cli import RunRecord, SweepConfig, SweepResult, main, run_sweep, structural_checks
from .constructions import (
    FamilyOutput,
    RegularityResult,
    build_three_opt_reference,
    gen_three_opt_lb,
    gen_three_opt_pp_lb,
    gen_two_opt_lb,
    is_regular,
    random_instance,
)
from .core import (
    MIN_N,
    Edge,
    Instance,
    PathDecomposition,
    Tour,
    canonical_edge,
    cost_edge,
    cycle_from_edges,
    identity_tour,
    one_path_decomposition,
    tour_cost,
    validate_tour,
)
from .errors import (
    ConstructionError,
    DuplicateVertexError,
    InvalidArgumentError,
    InvalidMoveError,
    Kopt12Error,
    MissingVertexError,
    ParseError,
    SizeExceededError,
    TourValidationError,
    WrongLengthError,
)
from .exact import (
    BRUTE_FORCE_LIMIT,
    ExactResult,
    brute_force,
    held_karp,
)
from .fileio import (
    format_instance,
    format_tour,
    parse_instance,
    parse_tour,
    read_instance,
    read_tour,
    write_instance,
    write_tour,
)
from .moves import (
    KMove,
    SearchStats,
    apply_move,
    count_zero_paths,
    enumerate_kmoves,
    find_improving,
    find_improving_by_enumeration,
    format_kmove,
    is_improving_pp,
    local_search,
    move_gain,
    neighborhood_size,
)

__version__ = "0.1.0"

# pydoc lists a package's re-exports only through __all__, so derive it from
# the names bound above (submodules left out) to keep one list of exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
