"""Exception types shared across the package."""


class LindcurError(Exception):
    """Base class for all package errors."""


class NotHermitian(LindcurError):
    """Input matrix fails the Hermiticity pre-check."""


class NoConvergence(LindcurError):
    """An underlying dense solver failed to converge."""


class DimensionMismatch(LindcurError):
    """Operands have incompatible shapes."""


class LengthMismatch(LindcurError):
    """A sequence has the wrong length for the lattice size."""


class IndexOutOfRange(LindcurError):
    """A site or bond index is outside the lattice."""


class BinCollision(LindcurError):
    """Frequency clustering produced bins closer than the tolerance."""


class PointwiseUndefined(LindcurError):
    """The kernel has no pointwise value (delta-correlated noise)."""


class MissingFrequency(LindcurError):
    """The half-Fourier table does not cover a required frequency."""


class PositivityViolation(LindcurError):
    """A dissipation rate 2 Re g in the bath table is negative."""


class StepTooCoarse(LindcurError):
    """Quadrature step is too coarse for the kernel or the fastest phase."""


class PositivityLost(LindcurError):
    """A density matrix developed a significantly negative eigenvalue."""


class DegenerateKernel(LindcurError):
    """The generator kernel is not one-dimensional."""


class ParseError(LindcurError):
    """Configuration file is not valid JSON."""


class ValidationError(LindcurError):
    """Configuration contents violate the schema."""
