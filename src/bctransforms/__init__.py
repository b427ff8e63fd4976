"""Bicomplex arithmetic, Bargmann-space transforms, and their verification.

The ring of bicomplex numbers Z = z1 + j z2 (two complex components, with a
second imaginary unit j commuting with i and j**2 = -1) splits along the
idempotents e+/- = (1 +/- ij)/2 into two independent complex channels.  Every
transform here exploits that splitting: Gauss-Hermite quadrature, Hermite
expansions, the holomorphic-kernel spaces on the ring, the coefficient and
integral forms of the Bargmann-type transform pair, and a two-parameter
fractional Fourier rotation diagonalized by that pair.

The :mod:`~bctransforms.verification` module and the ``bctransforms`` CLI
re-check the library's defining identities numerically.
"""

from . import bargmann, bicomplex, errors, frft, hermite, quadrature, transforms, verification
from .bicomplex import *
from .errors import *
from .quadrature import *
from .hermite import *
from .bargmann import *
from .transforms import *
from .frft import *
from .verification import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bicomplex, errors, quadrature, hermite, bargmann, transforms, frft, verification)
    for name in module.__all__
]
