"""Exception hierarchy shared by all icelab modules."""


class IcelabError(Exception):
    """Base class; every condition we guard against derives from it."""


class NonzeroRemainder(IcelabError):
    """Polynomial division left a remainder that should have been zero."""


class ZeroConstantTerm(IcelabError):
    """Series inversion requested for a series vanishing at its center."""


class PoleHit(IcelabError):
    """A denominator of a formula vanishes at the supplied parameters."""


class CoincidingParameters(PoleHit):
    """Parameters that must be pairwise distinct coincide."""


class PoleInPhi(PoleHit):
    """A Boltzmann weight a or b vanishes where 1/(a*b) is needed."""


class PoleCollision(IcelabError):
    """A singularity not declared by a contour landed on its center."""


class JetOrderInsufficient(IcelabError):
    """A truncated expansion was too short to extract the requested limit."""


class WidthMismatch(IcelabError):
    """Row states of different widths were combined."""


class PositionsOutOfRange(IcelabError):
    """Arrow positions are not strictly increasing inside 1..N."""


class DegenerateWeights(PoleHit):
    """Vertex weights with a=0, b=0 or c=0 were supplied to a formula."""


class SamplingExhausted(IcelabError):
    """Rejection sampling failed to find an admissible draw."""


class ConfigError(IcelabError):
    """Suite configuration violates a documented bound."""


class UsageError(IcelabError):
    """Command line could not be parsed."""
