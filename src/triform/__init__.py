"""triform: exact certification of invariant trilinear forms on GL2(Q_p).

The package constructs principal-series and Steinberg representations at
finite congruence level over the exact coefficient field
Q(zeta_M)(a, b, u)[r]/(r^2 - q), realizes the torus functional phi and two
independent evaluators of the invariant trilinear form ell, and certifies
test-vector statements as nonzero rational functions in the parameters.
"""

from .context import Context
from .errors import PoleError, TriformError
from .scalars import Scalar

__all__ = ["Context", "Scalar", "PoleError", "TriformError"]
__version__ = "0.1.0"
