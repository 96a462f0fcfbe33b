"""Exact computation of virtual Poincare polynomials of signature quadrics
and of naive/signed zeta functions of quadratic germs, with recovery of the
square counts (hence corank and index) from the T^2 zeta data.
"""

# The package republishes each module's public interface; the __all__ of
# the module is the one list of what that interface is.
from . import algebra, arcspace, errors, germ, scissor
from .algebra import *  # noqa: F403
from .arcspace import *  # noqa: F403
from .errors import *  # noqa: F403
from .germ import *  # noqa: F403
from .scissor import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*algebra.__all__, *scissor.__all__, *arcspace.__all__, *germ.__all__, *errors.__all__]
