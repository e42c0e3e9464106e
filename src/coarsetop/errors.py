"""Error types shared across the package, and the default resource caps.

Every hard failure carries a short machine-readable code (used by the CLI
report writer) alongside the human message.
"""

from __future__ import annotations

# Defaults of caps.max_vertices (points of a ball or fixture, WindowTooLargeError)
# and caps.max_simplices (simplices of a Rips complex, ComplexTooLargeError).
MAX_VERTICES = 200_000
MAX_SIMPLICES = 5_000_000


class CoarseTopError(Exception):
    """Base error; ``code`` is a short stable identifier like "empty-subset"."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


class EmptySubsetError(CoarseTopError):
    def __init__(self, message: str = "operation requires a nonempty subset"):
        super().__init__("empty-subset", message)


class WindowTooLargeError(CoarseTopError):
    def __init__(self, estimate: int, cap: int):
        self.estimate = estimate
        self.cap = cap
        super().__init__("window-too-large", f"estimated {estimate} vertices exceeds cap {cap}")


class ComplexTooLargeError(CoarseTopError):
    def __init__(self, counts: dict, cap: int):
        self.counts = counts
        self.cap = cap
        super().__init__("complex-too-large", f"per-dimension simplex counts {counts} exceed cap {cap}")


class BadSubgroupSpecError(CoarseTopError):
    def __init__(self, message: str):
        super().__init__("bad-subgroup-spec", message)


class NotASubcomplexError(CoarseTopError):
    def __init__(self, message: str):
        super().__init__("not-a-subcomplex", message)


class NotACycleError(CoarseTopError):
    def __init__(self, message: str = "boundary of the input chain is nonzero"):
        super().__init__("not-a-cycle", message)


class NotAChainMapError(CoarseTopError):
    def __init__(self, message: str = "matrices do not commute with the boundary maps"):
        super().__init__("not-chain-map", message)


class ScheduleExhaustedError(CoarseTopError):
    def __init__(self, simplex):
        self.simplex = simplex
        super().__init__("schedule-exhausted", f"cannot fill boundary image of simplex {simplex}")


class WindowTooSmallError(CoarseTopError):
    def __init__(self, message: str):
        super().__init__("window-too-small", message)


class CollarViolationError(CoarseTopError):
    def __init__(self, message: str):
        super().__init__("collar-violation", message)


class UnknownFixtureError(CoarseTopError):
    def __init__(self, name: str, known):
        super().__init__("unknown-fixture", f"{name!r}; known fixtures: {sorted(known)}")
