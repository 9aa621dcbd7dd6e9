"""xorshift128+ with exhaustive xor-arithmetic checks and plane-structure experiments."""

from .engine import (
    DEFAULT_PARAMS,
    MASK64,
    GenState,
    Params,
    act,
    iter_outputs,
    mat_mul,
    mat_pow,
    matrix_of,
    seed_state,
    splitmix64,
    step,
    step_words,
    to_unit,
)
from .experiment import (
    CaseCensus,
    ExperimentConfig,
    HitReport,
    HitStats,
    SlabSample,
    SlabSpec,
    case_census,
    control_baseline,
    hit_stats,
    run_experiment,
    slab_sample,
    slab_spec,
)
from .planes import (
    MeshStrip,
    Plane,
    PlaneFamily,
    component_count,
    epsilon_threshold,
    family,
    mesh,
    nearest_plane,
    union_rate,
)
from .xorapprox import (
    CaseCounts,
    CaseLabel,
    Combine,
    classify,
    column_cases,
    compound_probability,
    count_cases,
    inner_multiplier,
    plane_coefficients,
    verify_xor_diff,
    verify_xor_sum,
)

__version__ = "0.1.0"
