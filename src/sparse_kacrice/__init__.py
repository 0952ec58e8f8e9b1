"""Expected real zeros of sparse Gaussian exponential sums.

A sum E(x) = sum_a xi_a alpha_a e^{<a, x>} with standard normal xi has,
in expectation, a number of real zero sets governed by a Riemannian
metric built from the support A and weights alpha.  This package
computes that count two independent ways (x-space and Newton-polytope
quadrature), validates it by Monte Carlo in one variable, quantifies how
adjoining one exponent shifts the zero density, provides the tensor /
shared-variable product calculus of coefficient systems, and checks the
complex-coefficient density against the classical polytope-volume count.
"""

from .errors import (
    ConvergenceError,
    DegenerateMetricError,
    DomainError,
    InputError,
    SingularFormError,
    SparseKacRiceError,
)
from .geometry import (
    QuadForm,
    SupportSet,
    ball_sphere_constants,
    diameter,
    dual_form,
    exposed_face,
    form_det,
    hull_volume,
    interior_contains,
    support_function,
)
from .expsum import (
    EvalBundle,
    ExpSum,
    asymptotic_moment,
    density,
    density_many,
    evaluate,
    face_metric_limit,
    invert_moment,
    legendre_density,
    potential,
)
from .monotonicity import (
    Augmentation,
    PsiEval,
    RegionScan,
    augment,
    psi,
    ray_scan_unbounded,
    region_scan,
    witness_interior,
)
from .algebra import (
    aronszajn,
    aronszajn_power,
    kostlan,
    tensor,
)
from .integrate import (
    IntegralResult,
    Quadrature,
    esol_pspace,
    esol_region,
    esol_total,
    lower_bound_check,
)
from .mc_oracle import McConfig, estimate_esol, sample_zero_count
from .complexcase import ComplexExpSum, bkk_density, bkk_total, n_factorial_volume

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegenerateMetricError",
    "DomainError",
    "InputError",
    "SingularFormError",
    "SparseKacRiceError",
    "QuadForm",
    "SupportSet",
    "ball_sphere_constants",
    "diameter",
    "dual_form",
    "exposed_face",
    "form_det",
    "hull_volume",
    "interior_contains",
    "support_function",
    "EvalBundle",
    "ExpSum",
    "asymptotic_moment",
    "density",
    "density_many",
    "evaluate",
    "face_metric_limit",
    "invert_moment",
    "legendre_density",
    "potential",
    "Augmentation",
    "PsiEval",
    "RegionScan",
    "augment",
    "psi",
    "ray_scan_unbounded",
    "region_scan",
    "witness_interior",
    "aronszajn",
    "aronszajn_power",
    "kostlan",
    "tensor",
    "IntegralResult",
    "Quadrature",
    "esol_pspace",
    "esol_region",
    "esol_total",
    "lower_bound_check",
    "McConfig",
    "estimate_esol",
    "sample_zero_count",
    "ComplexExpSum",
    "bkk_density",
    "bkk_total",
    "n_factorial_volume",
    "__version__",
]
