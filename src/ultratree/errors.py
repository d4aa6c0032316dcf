"""Exception hierarchy.

Every error carries the witness that triggered it (vertex, edge, triple, ...)
both in the message and as an attribute, so callers and the CLI can report
exactly what went wrong.
"""

from __future__ import annotations


class UltratreeError(Exception):
    """Base class for all library errors."""


# --- labeled-tree validation ------------------------------------------------

class TreeValidationError(UltratreeError):
    pass


class NotConnected(TreeValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"tree is not connected: vertex {vertex!r} is unreachable")


class HasCycle(TreeValidationError):
    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"graph has a cycle through edge {self.edge!r}")


class MissingLabel(TreeValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} has no label")


class NegativeLabel(TreeValidationError):
    def __init__(self, vertex, value):
        self.vertex = vertex
        self.value = value
        super().__init__(f"vertex {vertex!r} has negative label {value}")


class DuplicateVertex(TreeValidationError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} listed more than once")


class UnknownVertex(UltratreeError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"unknown vertex {vertex!r}")


class DegenerateLabeling(UltratreeError):
    """Some edge has both endpoint labels equal to zero."""

    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"degenerate labeling: both ends of edge {self.edge!r} have label 0")


class NotABall(UltratreeError):
    def __init__(self, subset):
        self.subset = frozenset(subset)
        super().__init__(f"vertex set {sorted(self.subset)!r} is not an open ball of the tree's space")


# --- exact distance-matrix validation ---------------------------------------

class MetricValidationError(UltratreeError):
    pass


class NotSymmetric(MetricValidationError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"matrix is not symmetric at pair {self.pair!r}")


class DuplicatePoint(MetricValidationError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"point {point!r} listed more than once")


class NonzeroDiagonal(MetricValidationError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"diagonal entry for point {point!r} is not zero")


class NonpositiveOffDiagonal(MetricValidationError):
    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"off-diagonal entry for pair {self.pair!r} is not positive")


class StrongTriangleViolation(MetricValidationError):
    def __init__(self, triple):
        self.triple = tuple(triple)
        x, y, z = self.triple
        super().__init__(
            f"strong triangle inequality fails on triple ({x!r}, {y!r}, {z!r})"
        )


class UnknownPoint(UltratreeError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"unknown point {point!r}")


class EmptySubset(UltratreeError):
    def __init__(self):
        super().__init__("subset must be non-empty")


class NonpositiveRadius(UltratreeError):
    def __init__(self, radius, kind="open"):
        self.radius = radius
        self.kind = kind
        what = "positive" if kind == "open" else "non-negative"
        super().__init__(f"{kind} ball radius must be {what}, got {radius}")


class NotCompleteMultipartite(UltratreeError):
    """The input graph cannot come from a valid ultrametric space."""

    def __init__(self, detail):
        super().__init__(f"graph is not complete multipartite: {detail}")


class TooSmall(UltratreeError):
    pass


# --- p-adic -------------------------------------------------------------------

class NotPrime(UltratreeError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"{value} is not a prime number")


class DuplicateValue(UltratreeError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"sample value {value} appears more than once")


class NegativeInput(UltratreeError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"input must be non-negative, got {value}")


# --- enumeration / campaigns ---------------------------------------------------

class TooLarge(UltratreeError):
    """A capacity fence was hit; the operation refuses rather than degrade."""

    def __init__(self, what, n, fence):
        self.what = what
        self.n = n
        self.fence = fence
        super().__init__(f"{what}: n={n} exceeds the capacity fence {fence}")


class FewerThanTwoBlocks(UltratreeError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"partition must have at least 2 blocks, got {k}")


class EmptyPool(UltratreeError):
    def __init__(self, detail="label pool is empty"):
        super().__init__(detail)


# --- file formats ---------------------------------------------------------------

class FormatError(UltratreeError):
    pass
