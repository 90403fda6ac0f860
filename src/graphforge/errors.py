"""Exception taxonomy shared across the library.

Budget-style errors carry enough context to report which resource ran out;
audits catch them and downgrade verdicts to `inconclusive` rather than crash.
"""


class ForgeError(Exception):
    """Base class for all library errors."""


class MalformedWord(ForgeError):
    """A word contains a symbol that is not a generator of the group."""


class BudgetExceeded(ForgeError):
    """A bounded search ran out of budget before reaching a decision."""

    def __init__(self, message, *, budget=None):
        super().__init__(message)
        self.budget = budget


class MismatchedAmbient(ForgeError):
    """A subgroup query was made with a word over the wrong group."""


class MonomorphismUnverified(ForgeError):
    """A construction refused an injection that could not be certified."""


class StableLetterCollision(ForgeError):
    """The chosen stable letter already names a generator of the base."""


class StabilizerNotContained(ForgeError):
    """An orbit stabilizer is not contained in the acting subgroup."""


class GroupMismatch(ForgeError):
    """Two objects that must share a group do not."""


class NotAStabilizer(ForgeError):
    """chain_factorize was asked about an element that moves the point."""


class FixedPointViolation(ForgeError):
    """The edge group does not fix the chosen gluing vertex."""


class SameOrbitViolation(ForgeError):
    """Coalescence hypotheses require the two vertices in distinct orbits."""


class ProvenanceMissing(ForgeError):
    """The graph was not produced by a construction that records provenance."""


class WindowTooSmall(ForgeError):
    """The materialized ball is too small for the requested audit."""


class CombinatorialBlowup(ForgeError):
    """A path enumeration exceeded its configured cap."""


class KLNotDistinct(ForgeError):
    """The HNN presentation rewrite requires K and L to be distinct."""


class SpecError(ForgeError):
    """A pipeline spec file failed validation."""
