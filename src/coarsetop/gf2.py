"""Sparse bit-packed GF(2) linear algebra.

Matrices store columns as Python ints (bit i of column j = entry (i, j)).
Elimination picks pivots at the highest nonzero row of each column (found
by ``bit_length``, O(1), where the lowest set bit costs O(size)), and one
reduction loop (:meth:`GF2Subspace._reduce`) serves rank, solve,
kernel/image bases and the two-scale homology image ranks used throughout
the package. Streaming membership solves (:class:`ColumnSolve`) stop
pulling columns once the right-hand side lies in their span and can be
resumed with more columns.

Matrices are immutable after construction. A GF2Subspace or ColumnSolve
is filled by the one elimination that owns it, so independent eliminations
may run in parallel.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence


def lowbit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


def bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while x:
        b = lowbit(x)
        yield b
        x &= x - 1


def popcount(x: int) -> int:
    return x.bit_count()


def vector_from_indices(idxs: Iterable[int]) -> int:
    v = 0
    for i in idxs:
        v |= 1 << i
    return v


class GF2Matrix:
    """A rows x cols matrix over GF(2) with bit-packed columns."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: Optional[Sequence[int]] = None):
        if columns is None:
            columns = [0] * cols
        if len(columns) != cols:
            raise ValueError("column count mismatch")
        self.rows = rows
        self.cols = cols
        self.columns = list(columns)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GF2Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        cols = [0] * nc
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if e & 1:
                    cols[j] |= 1 << i
        return cls(nr, nc, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    def to_rows(self) -> list[list[int]]:
        return [[(self.columns[j] >> i) & 1 for j in range(self.cols)] for i in range(self.rows)]

    def transpose(self) -> "GF2Matrix":
        cols = [0] * self.rows
        for j, c in enumerate(self.columns):
            for i in bits(c):
                cols[i] |= 1 << j
        return GF2Matrix(self.cols, self.rows, cols)

    def matvec(self, x: int) -> int:
        """Matrix times column vector (x over cols), as XOR of selected columns."""
        out = 0
        for j in bits(x):
            out ^= self.columns[j]
        return out

    def matmul(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return GF2Matrix(self.rows, other.cols, [self.matvec(c) for c in other.columns])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.columns)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"


class GF2Subspace:
    """A subspace in column-echelon form: the one elimination of the package.

    ``pivots`` maps each pivot row to a basis vector with no bits above that
    row, so pivot rows are distinct. With ``track=True`` every inserted
    vector is numbered in insertion order and each basis vector carries its
    combination mask over those numbers, so solves return witnesses and
    dependent insertions return kernel combinations. Untracked, only pivots
    are stored, which keeps feasibility solves over very large column
    streams light.
    """

    __slots__ = ("ambient", "pivots", "combos", "inserted")

    def __init__(self, ambient: int, track: bool = False):
        self.ambient = ambient
        self.pivots: dict[int, int] = {}  # pivot row -> basis vector
        self.combos: Optional[dict[int, int]] = {} if track else None  # pivot row -> combination
        self.inserted = 0

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, v: int, m: int, full: bool) -> tuple[int, int, int]:
        """Eliminate v against the pivots, highest set bit first.

        Returns (rest, m, row), with the combination masks of the pivots used
        XORed into ``m``. With ``full``, rest is the residue of v (no bit at a
        pivot row) and row is -1. Otherwise elimination stops at the first bit
        without a pivot: rest still holds it and row names it; rest is 0 and
        row -1 when v lies in the span.
        """
        pivots, combos = self.pivots, self.combos
        out = 0
        while v:
            p = v.bit_length() - 1
            col = pivots.get(p)
            if col is None:
                if not full:
                    return v, m, p
                bit = 1 << p
                out |= bit
                v ^= bit
            else:
                v ^= col
                if combos is not None:
                    m ^= combos[p]
        return out, m, -1

    def reduce(self, v: int) -> int:
        """Residue of v modulo the subspace (deterministic).

        Pivot vectors have no bits above their pivot row, so a bit with no
        pivot can never be cleared and lands in the residue.
        """
        return self._reduce(v, 0, True)[0]

    def contains(self, v: int) -> bool:
        return self._reduce(v, 0, False)[0] == 0

    def insert(self, v: int) -> Optional[int]:
        """Add the next vector: None if it enlarged the space, else its combination.

        The combination of a dependent vector (0 when untracked) has its own
        bit and those of the earlier vectors it is the sum of: a kernel vector.
        """
        m = 1 << self.inserted if self.combos is not None else 0
        self.inserted += 1
        v, m, p = self._reduce(v, m, False)
        if v == 0:
            return m
        self.pivots[p] = v
        if self.combos is not None:
            self.combos[p] = m
        return None

    def extend(self, v: int) -> bool:
        """Insert the next vector; True if it enlarged the space."""
        return self.insert(v) is None


class ColumnSolve:
    """A solve of A x = b that pulls columns of A only while it must.

    b is reduced first and its residue kept. After each inserted column the
    residue's reduction continues only if that column created the pivot at
    the residue's top row, and no column is pulled once the residue is 0.
    :meth:`feed` may be called again with further columns; the solution is
    the unique combination over the greedy-independent columns fed so far,
    as a tracked elimination of every column would give.
    """

    __slots__ = ("space", "rest", "x", "row")

    def __init__(self, b: int, track: bool = True):
        self.space = GF2Subspace(0, track)
        self.rest, self.x, self.row = self.space._reduce(b, 0, False)

    def feed(self, columns: Iterable[int]) -> Optional[int]:
        """Insert columns until b lies in their span; the solution, or None."""
        space, pivots = self.space, self.space.pivots
        rest, x, row = self.rest, self.x, self.row
        if rest:
            for c in columns:
                if space.insert(c) is None and row in pivots:
                    rest, x, row = space._reduce(rest, x, False)
                    if not rest:
                        break
        self.rest, self.x, self.row = rest, x, row
        return None if rest else x

    def drop_witness(self) -> None:
        """Stop tracking combinations; a feasible solve then returns 0."""
        self.space.combos = None
        self.x = 0


def _echelon(columns: Iterable[int], ambient: int = 0) -> GF2Subspace:
    space = GF2Subspace(ambient)
    for c in columns:
        space.insert(c)
    return space


def rank(A: GF2Matrix) -> int:
    return _echelon(A.columns).dim


def rank_of_columns(columns: Iterable[int]) -> int:
    return _echelon(columns).dim


def solve(A: GF2Matrix, b: int) -> Optional[int]:
    """One solution x (bitmask over columns) of A x = b, or None if inconsistent."""
    return solve_columns(A.columns, b, want_witness=True)


def solve_columns(columns: Iterable[int], b: int, want_witness: bool = True) -> Optional[int]:
    """Streaming solve over a column iterable, stopping once b is reached.

    With want_witness=False only feasibility is decided (0 is returned for a
    feasible system), which avoids storing combination masks for very large
    systems.
    """
    return ColumnSolve(b, want_witness).feed(columns)


def kernel_basis(A: GF2Matrix) -> list[int]:
    """Basis (bitmasks over columns) of the null space of A."""
    space = GF2Subspace(A.rows, track=True)
    return [m for m in map(space.insert, A.columns) if m is not None]


def image_basis(A: GF2Matrix) -> GF2Subspace:
    return _echelon(A.columns, A.rows)


def span_of(vectors: Iterable[int], ambient: int) -> GF2Subspace:
    return _echelon(vectors, ambient)


def quotient_image_rank(
    inner_cycles: Sequence[int],
    f_images: Sequence[int],
    outer_boundaries: Iterable[int],
    outer_dim: int,
) -> tuple[int, list[int]]:
    """Rank of (span(f(cycles)) + B) / B and indices of representative cycles.

    ``inner_cycles[t]`` and ``f_images[t]`` are aligned: the t-th inner cycle
    and its image in the outer chain group. Returns (rank, reps) where reps
    lists the positions t whose images form a basis of the image modulo the
    outer boundary space.
    """
    space = span_of(outer_boundaries, outer_dim)
    reps: list[int] = []
    for t, img in enumerate(f_images):
        if space.extend(img):
            reps.append(t)
    return len(reps), reps


__all__ = [
    "GF2Matrix",
    "GF2Subspace",
    "ColumnSolve",
    "bits",
    "lowbit",
    "popcount",
    "vector_from_indices",
    "rank",
    "rank_of_columns",
    "solve",
    "solve_columns",
    "kernel_basis",
    "image_basis",
    "span_of",
    "quotient_image_rank",
]
