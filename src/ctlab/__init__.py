"""Numerical laboratory for space-time Wasserstein contraction of heat
semigroups under curvature-dimension bounds.

The package provides closed-form comparison functions and contraction
coefficients, model geometries (Euclidean, spheres, hyperbolic space,
linear-drift space), coupled geodesic random walks, exact samplers of
the heat laws, exact optimal transport, the inf-convolution semigroup on finite metric
spaces, deterministic heat-semigroup backends with exact gradients and
generators, and a verification harness that turns each contraction
inequality into a pass/fail report.
"""

from .comparison import (
    CoefficientFamily,
    CurvatureDimension,
    ExponentPair,
    TimeReparam,
    bakry_ledoux,
    coeff_A,
    comp_c,
    comp_s,
    comp_t,
    duality_reparam,
    exp_weighted_j,
    j_measure,
    psi,
    psi_upper_bound,
    swc_reparam,
    tau_star,
    theta_exponent,
    wc_var_rhs,
)
from .geometry import (
    Euclidean,
    EuclideanOU,
    Hyperbolic,
    ModelSpace,
    Sphere,
    UnsupportedParameterError,
)
from .walk import (
    CoupledState,
    CoupledWalkPath,
    WalkConfig,
    run_coupled,
    sample_heat,
    sample_unit_ball,
    trajectory_rng,
)
from .transport import (
    ComparisonCost,
    CouplingMatrix,
    EmpiricalMeasure,
    PthPowerDistance,
    SupportSizeError,
    block_cost_estimate,
    exact_cost,
    gaussian_w2,
    wasserstein,
)
from .hopflax import (
    FiniteMetricSpace,
    hj_residual,
    hopf_lax,
    kantorovich_gap,
    lipschitz_properties_check,
)
from .heat import (
    CircleFourier,
    GaussHermite,
    SphereZonal,
    default_backend,
    heat_apply,
    heat_jet,
)
from .checks import (
    CHECKS,
    CheckSpec,
    DiameterError,
    VerificationReport,
    run_check,
    run_suite,
)

__version__ = "0.1.0"
