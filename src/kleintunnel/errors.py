"""Exception hierarchy for kleintunnel.

Every error raised by the library derives from :class:`KleinTunnelError`,
so callers can catch one base class at API boundaries (the CLI maps it to
exit code 1).
"""


class KleinTunnelError(Exception):
    """Base class for all kleintunnel errors."""


class DomainError(KleinTunnelError, ValueError):
    """A parameter is outside the domain an operation is defined on."""


class NonPropagatingError(DomainError):
    """Total energy E <= m: there is no propagating incident wave."""


class ZoneError(KleinTunnelError):
    """Operation invoked outside the energy zone it is defined for."""


class ZeroLengthError(KleinTunnelError):
    """L = 0: traversal time is 0 and the normalized ratio is 0/0."""


class ZoneCrossingError(KleinTunnelError):
    """The numeric phase-time oracle was asked for a point on a zone edge."""


class NonConvergentError(KleinTunnelError):
    """Iterative refinement (step halving) failed to converge."""


class QuadratureError(NonConvergentError):
    """Adaptive quadrature did not reach the requested tolerance."""


class SupportError(DomainError):
    """Spectrum support reaches k <= 0 (negative-momentum components)."""


class ClippedWindowError(KleinTunnelError):
    """Intensity argmax sits on the time-window boundary."""


class NoPeakError(KleinTunnelError):
    """Intensity has no interior local maximum in the window."""
