"""Exception hierarchy.

Every error raised by the library derives from SynckitError so the CLI can
map any domain failure to a usage-style exit code.
"""


class SynckitError(Exception):
    """Base class for all synckit errors."""


class UnknownMonoid(SynckitError):
    """Monoid kind name not registered."""


class MalformedDocument(SynckitError):
    """Network document violates the JSON schema."""


class DuplicateCellId(MalformedDocument):
    """Two cells in a network document share an id."""


class UnknownCellInEdge(MalformedDocument):
    """An edge references a cell id that was never declared."""


class UnknownCell(SynckitError):
    """Cell id or index not present in the network."""


class DomainMismatch(SynckitError):
    """Partitions defined on different cell sets."""


class PartitionDomainMismatch(DomainMismatch):
    """Partition does not cover the network's cell set."""


class NotTypeRefining(SynckitError):
    """Partition mixes cells of different types where forbidden."""


class NotBalanced(SynckitError):
    """Operation requires a balanced partition."""


class NotInLattice(SynckitError):
    """Partition is not an element of the given lattice."""


class TooLarge(SynckitError):
    """Enumeration refused: network exceeds the configured cell cap."""


class UnsupportedMonoid(SynckitError):
    """Numerical dynamics require integer-addition weights."""


class NumericalBlowup(SynckitError):
    """A simulated state exceeded the overflow guard."""


class EmptyColor(SynckitError):
    """Classification of an empty cell set requested."""


class MalformedPartitionSpec(SynckitError):
    """Partition spec string could not be parsed."""
