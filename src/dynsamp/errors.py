"""Exception types shared across the package."""


class DynsampError(Exception):
    """Base class for all library errors."""


class NonDivisibleLength(DynsampError):
    """A decimation factor does not divide the signal length."""


class LengthMismatch(DynsampError):
    """Signal and filter lengths disagree."""


class MalformedSamples(DynsampError):
    """A sample set is malformed: a bad factor, non-finite values or a bad JSON field."""


class ShapeMismatch(DynsampError):
    """Matrix shape is wrong for the requested operation."""


class EvenM(DynsampError):
    """Operation requires an odd channel count m."""


class SingularSystem(DynsampError):
    """The per-frequency system is singular somewhere on the grid.

    ``indices`` holds the offending grid indices; recovery needs extra
    samples at those frequencies.
    """

    def __init__(self, indices, message=None):
        self.indices = list(indices)
        if message is None:
            shown = ", ".join(str(i) for i in self.indices[:8])
            message = (f"system singular at {len(self.indices)} grid "
                       f"frequencies (indices {shown}{'...' if len(self.indices) > 8 else ''})")
        super().__init__(message)


class RankDeficient(DynsampError):
    """A packet solve met a rank-deficient packet matrix."""

    def __init__(self, rho, message=None):
        self.rho = rho
        super().__init__(message or f"rank-deficient packet at grid index {rho}")


class PreconditionViolated(DynsampError):
    """Caller asked for a guarantee outside its validity regime."""


class TooLarge(DynsampError):
    """Problem size exceeds the cap for dense brute-force work."""


class CoincidentNodes(DynsampError):
    """Vandermonde nodes coincide; separation-based bounds are undefined."""


class GridMiss(DynsampError):
    """A required frequency is not representable on the current grid."""


class HypothesisViolated(DynsampError):
    """A stability bound was requested for inputs outside its hypotheses."""


class TailTooLarge(DynsampError):
    """Periodization truncation error exceeds the requested tolerance."""


class NoAdmissibleN(DynsampError):
    """No decimation factor up to the cap passes the difference test."""

    def __init__(self, n_max, violations=None, message=None):
        self.n_max = n_max
        self.violations = dict(violations or {})
        if message is None:
            parts = [f"n={n}: |diff {d:.6g}| = {k}/{n}" for n, (d, k) in sorted(self.violations.items())]
            message = f"no admissible n <= {n_max}; " + "; ".join(parts)
        super().__init__(message)
