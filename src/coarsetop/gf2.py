"""Sparse bit-packed GF(2) linear algebra, in two elimination forms.

Matrices store columns as Python ints (bit i of column j = entry (i, j)).
Elimination picks pivots at the highest nonzero row of each column (found
by ``bit_length``, O(1), where the lowest set bit costs O(size)).

The plain form, :class:`GF2Subspace` and its reduction loop
(:meth:`GF2Subspace._reduce`), serves the GF2Matrix work: rank, ``solve``,
kernel and image bases, ``span_of`` (the Rips boundary spaces), homology
image ranks modulo such a span (:func:`quotient_image_rank`) and the
cochain coboundaries. A tracked echelon of columns inserted in order also
answers the solve over the same columns with a set of rows masked to zero
(:meth:`GF2Subspace.solve_masked`): it re-reduces only the pivots the mask
touches, so a family of masked solves shares one elimination.

The banded form, :class:`BandedEchelon`, serves the streaming membership
solves over Rips boundary columns (:class:`ColumnSolve`), which stop
pulling columns once the right-hand side lies in their span and can be
resumed with more columns. Columns come as the builder makes them
(``RipsComplex.iter_banded_columns``): ``(packed, lo)`` pairs standing for
the column with bit ``lo`` set and a bit at ``lo + f`` for each 32-bit
field f of ``packed``, the largest offset in the lowest field, so the
column's top row is ``lo + (packed & FIELD_MASK)`` (see :func:`unpack`). A
column that enters without a reduction step, the rule for boundary columns
fed in index order (33,058 of the 33,481 columns of the largest fig2 R=10
essential solve), is stored as its facet offsets in flat int arrays
indexed by its pivot row, a few machine words a pivot and no Python object,
and its band is built only when a reduction or the residue uses it. The
few reduced pivots stay in a dict, shifted down to their lowest set bit,
and the residue and combination masks carry their own offsets, so a vector
costs the span of its rows, not its top row (on the essential probe's
targets, a few thousand rows against about twenty thousand). Values, pivot
rows, stopping columns and witnesses are those of the plain form fed the
same columns as ints.

Matrices are immutable after construction. A GF2Subspace, BandedEchelon
or ColumnSolve is filled by the one elimination that owns it, so
independent eliminations may run in parallel.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Optional, Sequence


FIELD = 32  # bits per facet offset of a packed column
FIELD_MASK = (1 << FIELD) - 1


def unpack(packed: int) -> int:
    """The band of a packed column: bit 0 and a bit at each field's offset."""
    band = 1
    while packed:
        band |= 1 << (packed & FIELD_MASK)
        packed >>= FIELD
    return band


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

    def __init__(self, rows: int, cols: int, columns: Sequence[int]):
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
    """A subspace in column-echelon form, reduced by the plain loop of the package.

    ``pivots`` maps each pivot row to a basis vector with no bits above that
    row, so pivot rows are distinct. With ``track=True`` every inserted
    vector is numbered in insertion order and each basis vector carries its
    combination mask over those numbers, so solves return witnesses and
    dependent insertions return kernel combinations. Untracked, only pivots
    are stored, which keeps feasibility solves over very large column
    streams light.
    """

    __slots__ = ("pivots", "combos", "inserted")

    def __init__(self, *, track: bool = False):
        self.pivots: dict[int, int] = {}  # pivot row -> basis vector
        self.combos: Optional[dict[int, int]] = {} if track else None  # pivot row -> combination
        self.inserted = 0

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _reduce(self, v: int, m: Optional[int], full: bool) -> tuple[int, Optional[int], int]:
        """Eliminate v against the pivots, highest set bit first.

        Returns (rest, m, row), with the combination masks of the pivots used
        XORed into ``m``; with ``m`` None none is kept. With ``full``, rest is
        the residue of v (no bit at a pivot row) and row is -1. Otherwise
        elimination stops at the first bit without a pivot: rest still holds
        it and row names it; rest is 0 and row -1 when v lies in the span.
        """
        pivots, combos = self.pivots, (self.combos if m is not None else None)
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
        return self._reduce(v, None, True)[0]

    def contains(self, v: int) -> bool:
        return self._reduce(v, None, False)[0] == 0

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

    def solve_masked(self, b: int, rows: Sequence[int]) -> Optional[int]:
        """The solution over the columns masked to ``c & ~M`` of b & ~M, or None; M the mask of ``rows``.

        The space is the tracked echelon of the columns inserted in order,
        read only. The top bit of ``combos[p]`` is the column that created
        pivot p, and a pivot off M keeps its row under the mask. So only the
        pivots on M, and any later pivot whose row a re-reduced vector lands
        on, are re-reduced in column order against the masked pivots of
        earlier columns. One that vanishes marks its column dependent, and
        its combination replaces that column in the solution of b & ~M: the
        unique one over the columns that a tracked elimination of the masked
        columns in order keeps independent.
        """
        pivots, combos = self.pivots, self.combos
        keep = ~vector_from_indices(rows)
        moved: dict[int, tuple[int, int]] = {}  # row -> re-reduced (vector, combination)
        dependent: dict[int, int] = {}  # column -> combination summing to 0 under the mask

        def reduce(v: int, m: int, j: int) -> tuple[int, int, int]:
            """Reduce v against the masked pivots of the columns before j: (v, m, top row)."""
            while v:
                q = v.bit_length() - 1
                hit = moved.get(q)
                if hit is None:
                    u = pivots.get(q)
                    if u is None or combos[q].bit_length() - 1 > j:
                        return v, m, q
                    hit = (u & keep, combos[q])
                v ^= hit[0]
                m ^= hit[1]
            return 0, m, -1

        queue = [(combos[p].bit_length() - 1, p) for p in rows if p in pivots]
        heapify(queue)
        while queue:
            j, p = heappop(queue)
            v, m, q = reduce(pivots[p] & keep, combos[p], j)
            if not v:
                dependent[j] = m
                continue
            moved[q] = (v, m)
            if q in pivots:  # a later column's pivot row: that pivot moves on too
                heappush(queue, (combos[q].bit_length() - 1, q))
        v, x, _ = reduce(b & keep, 0, self.inserted)
        if v:
            return None
        for j in sorted(dependent, reverse=True):
            if x >> j & 1:
                x ^= dependent[j]
        return x


class BandedEchelon:
    """The echelon of a solve fed packed columns, in flat arrays indexed by pivot row.

    A column that enters without a reduction step is stored at its top row
    p of ``array('i')`` columns: ``lows[p]`` is its lo, and
    ``offsets[j][p]`` the offset above lo of field j + 1 of its packed form
    (0: the column has fewer fields). Field 0 is ``p - lo`` and is not
    stored; offsets are below 2^31 (see ``FIELD``), and a larger one raises
    OverflowError. The arrays grow on demand: in length with the highest
    row stored, in number with the widest column fed. ``lows[p]`` is -1
    where row p has no pivot and -2 where it has a reduced one, kept in
    ``reduced`` shifted down to its lowest set bit: a band ``bits`` that
    stands for ``bits << (p + 1 - bits.bit_length())``. With tracking,
    ``numbers[p]`` is the inserted number of the column stored at p, which
    is that column's whole combination mask, and ``combos`` maps a reduced
    pivot row to its mask over the inserted column numbers as a
    ``(bits, off)`` pair. The reduction is :meth:`GF2Subspace._reduce`'s,
    highest set bit first, on shifted operands; a stored column's band is
    built each time a step uses it and never kept. On the 17,247 pivots of
    an all-columns solve over fig2_plane_fin R=6's kept triangles this is
    10 bytes a pivot untracked and 15 tracked, where a dict entry per
    pivot took about 102 and 218.
    """

    __slots__ = ("lows", "offsets", "numbers", "reduced", "combos", "inserted")

    def __init__(self, track: bool = False):
        self.lows = array("i")  # pivot row -> lo of the column stored there, -1 or -2
        self.offsets: list[array] = []  # field j + 1 -> pivot row -> its facet offset, or 0
        self.numbers: Optional[array] = array("i") if track else None  # pivot row -> stored column's number
        self.reduced: dict[int, int] = {}  # pivot row -> reduced basis vector >> its lowest set bit
        self.combos: Optional[dict[int, tuple[int, int]]] = {} if track else None  # reduced pivot row -> mask
        self.inserted = 0

    def _reduce(self, v: int, off: int, m: int, mo: int) -> tuple[int, int, int, int, int]:
        """Eliminate v << off until its top bit has no pivot.

        The masks of the pivots used are XORed into m << mo. Returns
        (v, off, m, mo, row), where row is the top row left, or -1 and v = 0
        when the vector lies in the span.
        """
        lows, offsets, numbers, reduced, combos = self.lows, self.offsets, self.numbers, self.reduced, self.combos
        size = len(lows)
        while v:
            p = off + v.bit_length() - 1
            lo = lows[p] if p < size else -1
            if lo == -1:
                return v, off, m, mo, p
            if lo >= 0:  # a stored column: build its band
                u = 1 | 1 << (p - lo)
                for field in offsets:
                    o = field[p]
                    if not o:
                        break
                    u |= 1 << o
                d = lo - off
                if combos is not None:
                    c, co = 1, numbers[p]
            else:
                u = reduced[p]
                d = p + 1 - u.bit_length() - off
                if combos is not None:
                    c, co = combos[p]
            # d is u's offset relative to v's
            if d >= 0:
                v ^= u << d
            else:
                v = (v << -d) ^ u
                off += d
            if combos is not None:
                d = co - mo
                if d >= 0:
                    m ^= c << d
                else:
                    m = (m << -d) ^ c
                    mo = co
        return 0, 0, m, mo, -1

    def extend(self, packed: int, lo: int) -> int:
        """Insert the next packed column; the row of the pivot it created, or -1 if none."""
        n = self.inserted
        self.inserted = n + 1
        lows = self.lows
        p = lo + (packed & FIELD_MASK)
        try:
            free = lows[p] == -1
        except IndexError:  # past the arrays' end: no pivot there yet
            self._grow(p)
            free = True
        if free:  # enters unreduced: stored as it came
            lows[p] = lo
            packed >>= FIELD
            for field in self.offsets:
                field[p] = packed & FIELD_MASK
                packed >>= FIELD
            while packed:  # more fields than any column before
                field = array("i", bytes(4 * len(lows)))
                self.offsets.append(field)
                field[p] = packed & FIELD_MASK
                packed >>= FIELD
            if self.numbers is not None:
                self.numbers[p] = n
            return p
        v, off, m, mo, p = self._reduce(unpack(packed), lo, 1, n)
        if v == 0:
            return -1
        lows[p] = -2
        self.reduced[p] = v >> ((v & -v).bit_length() - 1)
        if self.combos is not None:
            shift = (m & -m).bit_length() - 1
            self.combos[p] = (m >> shift, mo + shift)
        return p

    def _grow(self, p: int) -> None:
        """Lengthen every row array past row p, by an eighth more for the rows still to come."""
        k = p + 1 + (p >> 3) - len(self.lows)
        self.lows.frombytes(b"\xff" * (4 * k))
        for field in self.offsets:
            field.frombytes(bytes(4 * k))
        if self.numbers is not None:
            self.numbers.frombytes(bytes(4 * k))


class ColumnSolve:
    """A solve of A x = b over packed columns that pulls them only while it must.

    b is reduced first and its residue kept. After each inserted column the
    residue's reduction continues only if that column created the pivot at
    the residue's top row, and no column is pulled once the residue is 0.
    :meth:`feed` may be called again with further columns; the solution is
    the unique combination over the greedy-independent columns fed so far,
    as a tracked elimination of every column would give. The echelon is a
    :class:`BandedEchelon`, and the residue ``rest << off`` and the
    combination ``x << xoff`` carry their own offsets.
    """

    __slots__ = ("space", "rest", "off", "x", "xoff", "row")

    def __init__(self, b: int, track: bool = True):
        self.space = BandedEchelon(track)
        self.off = lowbit(b) if b else 0
        self.rest = b >> self.off
        self.x = self.xoff = 0
        self.row = b.bit_length() - 1  # no pivot yet: b's top row stops the reduction

    def feed(self, columns: Iterable[tuple[int, int]]) -> Optional[int]:
        """Insert ``(packed, lo)`` columns until b lies in their span; the solution, or None."""
        if self.rest:
            space = self.space
            rest, off, x, xoff, row = self.rest, self.off, self.x, self.xoff, self.row
            for c, lo in columns:
                if space.extend(c, lo) == row:
                    rest, off, x, xoff, row = space._reduce(rest, off, x, xoff)
                    if not rest:
                        break
            self.rest, self.off, self.x, self.xoff, self.row = rest, off, x, xoff, row
        return None if self.rest else self.x << self.xoff

    def drop_witness(self) -> None:
        """Stop tracking combinations; a feasible solve then returns 0."""
        self.space.combos = self.space.numbers = None
        self.x = 0


def _echelon(columns: Iterable[int], track: bool = False) -> GF2Subspace:
    space = GF2Subspace(track=track)
    for c in columns:
        space.insert(c)
    return space


def rank(A: GF2Matrix) -> int:
    return _echelon(A.columns).dim


def rank_of_columns(columns: Iterable[int]) -> int:
    return _echelon(columns).dim


def solve(A: GF2Matrix, b: int) -> Optional[int]:
    """The solution x (bitmask over columns) of A x = b over the greedy-independent columns, or None.

    Read off the tracked echelon of A's columns (:func:`image_basis`).
    """
    return image_basis(A).solve_masked(b, ())


def solve_columns(columns: Iterable[tuple[int, int]], b: int) -> Optional[int]:
    """Streaming witnessed solve over ``(packed, lo)`` columns, stopping once b is reached (:class:`ColumnSolve`)."""
    return ColumnSolve(b).feed(columns)


def kernel_basis(A: GF2Matrix) -> list[int]:
    """Basis (bitmasks over columns) of the null space of A."""
    space = GF2Subspace(track=True)
    return [m for m in map(space.insert, A.columns) if m is not None]


def image_basis(A: GF2Matrix) -> GF2Subspace:
    """The tracked echelon of A's columns, inserted in index order (see ``solve_masked``)."""
    return _echelon(A.columns, track=True)


def span_of(vectors: Iterable[int]) -> GF2Subspace:
    return _echelon(vectors)


def quotient_image_rank(f_images: Sequence[int], boundaries: GF2Subspace) -> tuple[int, list[int]]:
    """Rank of (span(f_images) + B) / B and the positions of representative images.

    ``f_images[t]`` is the image of the t-th inner cycle in the outer chain
    group and ``boundaries`` is B, the outer boundary space, read only.
    Reduction mod B is linear with kernel B, so image t is kept when its
    residue extends the span of the residues kept before it: the positions
    that extending B itself by the images in order would keep.
    """
    residues = GF2Subspace()
    reps = [t for t, img in enumerate(f_images) if residues.extend(boundaries.reduce(img))]
    return len(reps), reps


__all__ = [
    "GF2Matrix",
    "GF2Subspace",
    "BandedEchelon",
    "ColumnSolve",
    "FIELD",
    "FIELD_MASK",
    "bits",
    "lowbit",
    "popcount",
    "vector_from_indices",
    "unpack",
    "rank",
    "rank_of_columns",
    "solve",
    "solve_columns",
    "kernel_basis",
    "image_basis",
    "span_of",
    "quotient_image_rank",
]
