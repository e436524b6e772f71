"""Joint Gaussian graphical model topology inference with hidden nodes."""

from .errors import (
    ConfigError,
    DegenerateInput,
    GgmError,
    InvalidInput,
    NumericalError,
    ParseError,
)
from .graphs import (
    BlockPartition,
    Graph,
    MultiLayerFamily,
    PrecisionGraph,
    block_view,
    choose_hidden,
    gen_erdos_renyi,
    gen_rewired_family,
    gen_small_world,
    marginal_precision,
    to_precision,
)
from .metrics import mean_normalized_error, support_f1
from .prox import (
    prox_fused_l1,
    prox_logdet,
    prox_psd_trace,
    soft_threshold,
    symmetrize,
)
from .sampling import ObservedCovariances, observed_sample_cov, sample_family, sample_gmrf
from .solvers import (
    AdmissibleSet,
    GGLProblem,
    JointEstimate,
    JointProblem,
    OracleSolution,
    PenaltyWeights,
    SolverConfig,
    ggl_objective,
    joint_objective,
    reference_oracle,
    solve_ggl,
    solve_gl,
    solve_joint_hidden,
    solve_lvgl,
)

__version__ = "0.1.0"
