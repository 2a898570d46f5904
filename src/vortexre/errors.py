"""Exception types shared across modules."""


class CollisionError(ValueError):
    """Two vortices coincide (or a configuration is collision-close)."""


class NotACriticalPointError(ValueError):
    """Classification was requested at a point where the gradient is not zero."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


class CirculationError(ValueError):
    """The total circulation is zero, so there is no center of vorticity."""
