"""Exception hierarchy.

Every error carries the witness that triggered it (vertex, edge, triple, ...)
as its ``args`` and as the attributes its class's ``fields`` name, and its
class's ``message`` template is formatted from them when it is printed (a
class with none keeps ``Exception``'s message). So every error pickles, and
one raised in a ``--jobs`` worker reaches the parent as itself.
"""

from __future__ import annotations


class UltratreeError(Exception):
    """Base class for all library errors."""

    fields: tuple[str, ...] = ()
    message: str | None = None

    def __init__(self, *args):
        if self.message is not None and len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {len(self.fields)} values")
        super().__init__(*args)
        for name, value in zip(self.fields, args):
            setattr(self, name, value)

    def __str__(self):
        if self.message is None:
            return super().__str__()
        return self.message.format(**dict(zip(self.fields, self.args)))


# --- labeled-tree validation ------------------------------------------------

class TreeValidationError(UltratreeError):
    pass


class NotConnected(TreeValidationError):
    fields = ("vertex",)
    message = "tree is not connected: vertex {vertex!r} is unreachable"


class HasCycle(TreeValidationError):
    fields = ("edge",)
    message = "graph has a cycle through edge {edge!r}"


class MissingLabel(TreeValidationError):
    fields = ("vertex",)
    message = "vertex {vertex!r} has no label"


class NegativeLabel(TreeValidationError):
    fields = ("vertex", "value")
    message = "vertex {vertex!r} has negative label {value}"


class DuplicateVertex(TreeValidationError):
    fields = ("vertex",)
    message = "vertex {vertex!r} listed more than once"


class UnknownVertex(UltratreeError):
    fields = ("vertex",)
    message = "unknown vertex {vertex!r}"


class DegenerateLabeling(UltratreeError):
    """Some edge has both endpoint labels equal to zero."""

    fields = ("edge",)
    message = "degenerate labeling: both ends of edge {edge!r} have label 0"


class NotABall(UltratreeError):
    fields = ("subset",)
    message = "vertex set {subset!r} is not an open ball of the tree's space"

    def __init__(self, subset):
        super().__init__(frozenset(subset))

    def __str__(self):
        return self.message.format(subset=sorted(self.subset))


# --- exact distance-matrix validation ---------------------------------------

class MetricValidationError(UltratreeError):
    pass


class NotSymmetric(MetricValidationError):
    fields = ("pair",)
    message = "matrix is not symmetric at pair {pair!r}"


class DuplicatePoint(MetricValidationError):
    fields = ("point",)
    message = "point {point!r} listed more than once"


class NonzeroDiagonal(MetricValidationError):
    fields = ("point",)
    message = "diagonal entry for point {point!r} is not zero"


class NonpositiveOffDiagonal(MetricValidationError):
    fields = ("pair",)
    message = "off-diagonal entry for pair {pair!r} is not positive"


class StrongTriangleViolation(MetricValidationError):
    fields = ("triple",)
    message = "strong triangle inequality fails on triple {triple!r}"


class UnknownPoint(UltratreeError):
    fields = ("point",)
    message = "unknown point {point!r}"


class EmptySubset(UltratreeError):
    message = "subset must be non-empty"


class NonpositiveRadius(UltratreeError):
    fields = ("radius", "kind")

    def __init__(self, radius, kind="open"):
        super().__init__(radius, kind)

    def __str__(self):
        what = "positive" if self.kind == "open" else "non-negative"
        return f"{self.kind} ball radius must be {what}, got {self.radius}"


class NotCompleteMultipartite(UltratreeError):
    """The input graph cannot come from a valid ultrametric space."""

    fields = ("detail",)
    message = "graph is not complete multipartite: {detail}"


class TooSmall(UltratreeError):
    pass


# --- p-adic -------------------------------------------------------------------

class NotPrime(UltratreeError):
    fields = ("value",)
    message = "{value} is not a prime number"


class DuplicateValue(UltratreeError):
    fields = ("value",)
    message = "sample value {value} appears more than once"


class NegativeInput(UltratreeError):
    fields = ("value",)
    message = "input must be non-negative, got {value}"


# --- enumeration / campaigns ---------------------------------------------------

class TooLarge(UltratreeError):
    """A capacity fence was hit; the operation refuses rather than degrade."""

    fields = ("what", "n", "fence")
    message = "{what}: n={n} exceeds the capacity fence {fence}"


class FewerThanTwoBlocks(UltratreeError):
    fields = ("k",)
    message = "partition must have at least 2 blocks, got {k}"


class EmptyPool(UltratreeError):
    def __init__(self, detail="label pool is empty"):
        super().__init__(detail)


# --- file formats ---------------------------------------------------------------

class FormatError(UltratreeError):
    pass
