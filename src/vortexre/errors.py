"""Exception types shared across modules."""

import sys

# Where 1 + eps*sum(mu) is 0, its computed value is within a few units of
# roundoff u of 1 + |eps|*sum|mu| (2.5 u at worst at eps = -1/sum(mu), over
# equal weights of up to 39 entries and random mixed ones); up to 4 u it is 0
# and raises CirculationError.
CIRCULATION_NOISE = 4.0 * sys.float_info.epsilon / 2.0
# the message of every CirculationError, from dynamics and plotting alike
NO_CENTER = "total circulation 1 + eps*sum(mu) is 0: there is no center of vorticity"


class InputError(ValueError):
    """The problem as given has no answer: the caller's input is refused."""


class CollisionError(ValueError):
    """Two vortices coincide (or a configuration is collision-close)."""


class NotACriticalPointError(ValueError):
    """Classification was requested at a point where the gradient is not zero."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


class CirculationError(InputError):
    """The total circulation is zero, so there is no center of vorticity."""


class NonFiniteError(ValueError):
    """A configuration's circulations eps*mu or squared pair distances
    overflow to values that are not finite."""
