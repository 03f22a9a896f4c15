"""Synchrony analysis for weighted coupled cell networks."""

from .errors import SynckitError
from .monoid import IntegerAdd, Monoid, TropicalMin, monoid_by_name
from .network import Network, export_dot, load_network, network_to_doc, parse_network, row_color_sum, save_network
from .partition import (
    Partition,
    format_partition,
    meet,
    parse_partition,
    refines,
)
from .connectivity import (
    Condensation,
    condensation,
    cumulative_in,
    cumulative_in_k,
    in_neighborhood,
    in_reachability,
    rdc_decomposition,
    reach_colors,
    scc_decomposition,
)
from .synchrony import (
    BalancedCertificate,
    BalancedLattice,
    cir_balanced,
    enumerate_balanced,
    is_balanced,
    is_exo_balanced,
    quotient_network,
)
from .classification import (
    ColorClass,
    N_IN,
    NeighborhoodKind,
    R_IN,
    V_IN,
    classify_color,
    classify_partition,
    is_invariant,
    is_matched,
    join_table_report,
    quotient_class_report,
    top_nonweak,
    top_strong,
    v_in_k,
)
from .dynamics import (
    AdmissibleFunctionSpec,
    Trajectory,
    check_invariance,
    check_locality,
    check_quotient_consistency,
    check_subsystem,
    evolve,
    probe_non_invariance,
    sample_admissible,
)

__version__ = "0.1.0"
