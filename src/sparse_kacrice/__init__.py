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

from . import errors, geometry, expsum, monotonicity, algebra, integrate, mc_oracle, complexcase
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .expsum import *  # noqa: F401,F403
from .monotonicity import *  # noqa: F401,F403
from .algebra import *  # noqa: F401,F403
from .integrate import *  # noqa: F401,F403
from .mc_oracle import *  # noqa: F401,F403
from .complexcase import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += geometry.__all__
__all__ += expsum.__all__
__all__ += monotonicity.__all__
__all__ += algebra.__all__
__all__ += integrate.__all__
__all__ += mc_oracle.__all__
__all__ += complexcase.__all__
