"""Exception types and shared limits."""

# Largest query set accepted by default.  A k-respecting cut size reads C(k, 2)
# pairwise values, each one O(m) edge pass when not cached, and the oracle
# enumerates all 2**k - 1 subsets, so this is a safety valve, not a hard
# mathematical bound.  Callers can override it per call; the command line
# reads RESPECTING_CUTS_MAX_K.
DEFAULT_MAX_K = 16


class GraphInputError(ValueError):
    """Invalid vertex count or edge list handed to graph construction."""

    def __init__(self, message, edge_index=None):
        super().__init__(message)
        self.edge_index = edge_index


class EndpointRangeError(GraphInputError):
    """An edge endpoint is not an integer or falls outside the vertex
    range."""


class SelfLoopError(GraphInputError):
    """An edge joins a vertex to itself."""


class EdgeWeightError(GraphInputError):
    """An edge weight is not an integer, is below one, or the total weight
    is too large for exact int64 sums."""


class TreeStructureError(ValueError):
    """Chosen edges do not form a spanning tree rooted where requested."""


class QueryError(ValueError):
    """A query set violates its preconditions (root member, duplicate,
    non-integer or out-of-range vertex, empty or improper set), or a size
    limit is not an integer of at least 1."""


class KLimitExceeded(QueryError):
    """Query set larger than the configured size limit.

    Carries the offending size so callers can fall back to a direct
    computation instead.
    """

    def __init__(self, k, limit):
        super().__init__(
            f"query set of size {k} exceeds the configured limit of {limit}"
        )
        self.k = k
        self.limit = limit


class UniverseMismatchError(ValueError):
    """Sets handed to an elementwise operation disagree with the declared
    universe."""
