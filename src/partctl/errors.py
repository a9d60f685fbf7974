"""Exception types shared across the package."""


class PartctlError(Exception):
    """Base class for all partctl errors."""


class SelfLoopError(PartctlError):
    pass


class DuplicateEdgeError(PartctlError):
    pass


class VertexOutOfRangeError(PartctlError):
    pass


class EmptySetError(PartctlError):
    pass


class DisconnectedError(PartctlError):
    pass


class NotBiconnectedError(PartctlError):
    pass


class OutOfRangeError(PartctlError):
    pass


class TooLargeError(PartctlError):
    """An exact solver was asked to exceed its configured budget."""


class TooSmallError(PartctlError):
    pass


class SizeMismatchError(PartctlError):
    pass


class InfeasibleDensityError(PartctlError):
    pass


class PackingInfeasibleError(PartctlError):
    """Raised when k edge-disjoint spanning trees do not exist.

    Carries the final forests reached by the augmentation as a partial
    witness in ``forests``: a list of edge bitmasks in the edge ids of the
    graph that was packed, which for ``packing_partitions`` is its input
    graph (each forest lies inside the dense core's edges).
    """

    def __init__(self, msg, forests=None):
        super().__init__(msg)
        self.forests = forests or []


class ConstructionFailedError(PartctlError):
    """A heuristic construction step failed a post-hoc validation."""


class ParseError(PartctlError):
    pass
