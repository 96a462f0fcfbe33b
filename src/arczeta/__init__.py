"""Exact computation of virtual Poincare polynomials of signature quadrics
and of naive/signed zeta functions of quadratic germs, with recovery of the
square counts (hence corank and index) from the T^2 zeta data.
"""

import importlib

# The package republishes each module's public interface; the __all__ of
# the module is the one list of what that interface is.
from . import algebra, arcspace, errors, scissor
from .algebra import *  # noqa: F403
from .arcspace import *  # noqa: F403
from .errors import *  # noqa: F403
from .scissor import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str):
    """germ, its names and __all__, imported on first use (PEP 562).

    germ brings fractions, decimal and numbers with it, and zeta and beta
    never build a rational number, so `import arczeta, arczeta.cli` loads
    none of them.  from-imports and import * read names through here too.
    Any other name imports germ to look for it there: so does `from arczeta
    import cli`, which asks the package before it imports the submodule, where
    `import arczeta.cli` does not.
    """
    # import_module, not `from . import germ`: that looks germ up on the
    # package first, which would call this hook again
    germ = importlib.import_module(".germ", __name__)
    if name == "__all__":
        return [
            *algebra.__all__, *scissor.__all__, *arcspace.__all__, *germ.__all__, *errors.__all__
        ]
    if name == "germ":
        return germ
    if name in germ.__all__:
        return getattr(germ, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
