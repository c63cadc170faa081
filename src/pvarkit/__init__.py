"""pvarkit: p-variation of discrete paths in normed spaces.

The toolkit computes the exact p-variation of sampled step paths, pushes
paths through pointwise composition operators, estimates empirical Holder
constants, and materialises a small zoo of stress constructions that probe
the sharp edges of the variation transfer inequality.
"""

from .errors import (
    BlockTooLarge,
    DomainMismatch,
    GapConditionViolated,
    InvalidAlpha,
    InvalidExponent,
    NoViolatorFound,
    NotASampleTime,
    PathInvariantError,
    PvarkitError,
    SpaceMismatch,
    SpikeOverflow,
    TooFewPoints,
    TooLarge,
)
from .spaces import (
    L1,
    L2,
    LINF,
    LP,
    NormKind,
    Vector,
    VectorSpace,
    coordinate_matrix,
    diff_norm,
    norm,
)
from .paths import DiscretePath, MAX_SAMPLES
from .variation import (
    BRUTEFORCE_LIMIT,
    PVarResult,
    bv_norm,
    partition_sum,
    pvar,
    pvar_bruteforce,
    pvar_restricted,
    sup_norm,
)
from .operators import (
    BoundCheckReport,
    Generator,
    HolderEstimate,
    composition_bound_check,
    compose_path,
    epsilon_covering,
    estimate_holder,
)
from .lab import (
    BoundReport,
    ClaimReport,
    DEFAULT_DEPTHS,
    DivergenceReport,
    Example3Experiment,
    SPIKE_CAP,
    SpikeBlock,
    Step4Experiment,
    example3_experiment,
    find_holder_violators,
    gen_example3,
    gen_example5_experiment,
    gen_remark_spikes,
    gen_step2_path,
    gen_step4_path,
    gen_thm6_spikes,
    power_divergence_candidates,
    remark_experiment,
    run_divergence_step6,
    step4_blocks,
    step4_divergence_experiment,
    step4_restricted_bound,
    step4_total_bound,
    thm6_experiment,
)

__version__ = "0.1.0"
