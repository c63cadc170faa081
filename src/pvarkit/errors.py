"""Exception types shared across the toolkit."""


class PvarkitError(Exception):
    """Base class for every toolkit-specific error."""


class SpaceMismatch(PvarkitError):
    """Two vectors (or collections of vectors) live in different spaces."""


class PathInvariantError(PvarkitError):
    """A discrete path violates one of its construction invariants."""


class InvalidExponent(PvarkitError):
    """A variation exponent outside [1, inf), or an incompatible (p, q) pair."""


class TooLarge(PvarkitError):
    """Work refused for its size: brute force over a path with too many
    samples, or a coordinate embedding above ``spaces.MAX_EMBED_BYTES``."""


class NotASampleTime(PvarkitError):
    """A restriction endpoint is not one of the path's sample times."""


class DomainMismatch(PvarkitError):
    """A generator was applied to a vector outside its domain family."""


class TooFewPoints(PvarkitError):
    """A pairwise scan needs at least two distinct points."""


class InvalidAlpha(PvarkitError):
    """A Holder exponent outside (0, 1] was supplied."""


class GapConditionViolated(PvarkitError):
    """A supplied pair breaks a precondition of the spike-block construction."""


class BlockTooLarge(PvarkitError):
    """Strict mode refused a spike block whose raw count exceeds the cap."""


class SpikeOverflow(PvarkitError):
    """The spike-count formula exceeded the configured cap."""


class NoViolatorFound(PvarkitError):
    """No candidate pair beats the required growth gap at some index.

    This is the expected outcome when the generator actually is Holder
    continuous with the tested exponent on the candidate set, so callers
    should treat it as a diagnostic rather than a crash.
    """

    def __init__(self, n, message=None):
        self.n = n
        if message is None:
            message = (
                "no candidate pair violates the growth gap at index n=%d; "
                "the generator may be Holder continuous on this candidate set" % n
            )
        super().__init__(message)
