"""Exact combinatorics, invariant measure, and seeded simulation for the
Euler adic system: the multigraph with Eulerian path counts, the Vershik
order and successor map on its paths, the symmetric invariant measure, the
cutting-and-stacking interval model, and a reproducible experiment harness.
"""

from .errors import (
    EulerAdicError,
    InvalidArgument,
    MaximalPath,
    MinimalPath,
    OrbitOverflow,
    TooLarge,
)
from .graph import (
    EdgeRef,
    EulerianTriangle,
    Turn,
    Vertex,
    eulerian,
    eulerian_row,
    path_count_between,
)
from .paths import (
    FinitePath,
    Order,
    enumerate_paths_to,
    is_maximal,
    is_minimal,
    iterate,
    max_path_to,
    min_path_to,
    orbit_rank,
    path_from_out_indices,
    path_with_rank,
    predecessor,
    step_for_out_index,
    successor,
    vershik_compare,
)
from .measure import (
    ColumnDistribution,
    InvarianceReport,
    InvarianceRun,
    MomentRow,
    PushforwardReport,
    WeightSystem,
    check_invariance_conditions,
    column_distribution,
    column_distribution_dp,
    column_tail,
    column_tail_bounds,
    cylinder_measure,
    drift_table,
    exact_moments,
    invariance_run,
    pair_drift,
    pushforward_check,
    transition_probs,
)
from .stacking import StackLayout, build_stage, decode_path, encode_point, stage_map
from .montecarlo import (
    MeetingStats,
    RngConfig,
    StatReport,
    birkhoff_experiment,
    chebyshev_experiment,
    load_expectations,
    meeting_experiment,
    pair_drift_experiment,
    sample_experiment,
    sample_path,
    variance_experiment,
)

__version__ = "0.1.0"
