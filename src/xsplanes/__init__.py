"""xorshift128+ with exhaustive xor-arithmetic checks and plane-structure experiments."""

from .bitlin import MASK64, BitMatrix64, act, mat_mul, matrix_of, shl, shr, xorshift_xform
from .engine import (
    DEFAULT_PARAMS,
    GenState,
    Params,
    iter_outputs,
    scaled_step,
    seed_state,
    splitmix64,
    step,
    step_words,
    to_unit,
    triples,
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
