"""Bit-packed GF(2) engine against the dense textbook oracle."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsetop import gf2
from coarsetop.gf2 import GF2Matrix

from oracles import (
    dense_rank_gf2,
    dense_solve_gf2,
    echelon_entries,
    pack_offsets,
    quotient_image_rank_by_extension,
    reference_feeds,
    stored_pivots,
    tracked_full_solve,
    two_feeds,
    unpacked,
)


def random_matrix(rng, rows, cols, density=0.3):
    entries = [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return entries, GF2Matrix.from_rows(entries)


def identity(n):
    return GF2Matrix(n, n, [1 << i for i in range(n)])


def test_rank_identity():
    assert gf2.rank(identity(3)) == 3


def test_solve_zero_rhs_trivially_consistent():
    _, A = random_matrix(random.Random(0), 8, 5)
    assert gf2.solve(A, 0) == 0


def test_rank_matches_dense_on_random_40x40():
    rng = random.Random(1234)
    for _ in range(25):
        entries, A = random_matrix(rng, 40, 40)
        assert gf2.rank(A) == dense_rank_gf2(entries)


def test_rank_transpose_invariance():
    rng = random.Random(77)
    for _ in range(10):
        _, A = random_matrix(rng, 17, 31)
        assert gf2.rank(A) == gf2.rank(A.transpose())


def test_solve_matches_dense():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 25), rng.randint(1, 25)
        entries, A = random_matrix(rng, rows, cols)
        b = gf2.vector_from_indices(i for i in range(rows) if rng.random() < 0.4)
        x = gf2.solve(A, b)
        dense = dense_solve_gf2(entries, [(b >> i) & 1 for i in range(rows)])
        if x is None:
            assert dense is None
        else:
            assert dense is not None
            assert A.matvec(x) == b


def test_kernel_basis_annihilates_and_has_right_dimension():
    rng = random.Random(9)
    for _ in range(25):
        entries, A = random_matrix(rng, 15, 20)
        ker = gf2.kernel_basis(A)
        for v in ker:
            assert A.matvec(v) == 0
        assert len(ker) == A.cols - dense_rank_gf2(entries)
        # kernel vectors are linearly independent
        assert gf2.rank_of_columns(ker) == len(ker)


def test_image_basis_membership():
    rng = random.Random(11)
    entries, A = random_matrix(rng, 12, 18)
    im = gf2.image_basis(A)
    assert im.dim == dense_rank_gf2(entries)
    for j in range(A.cols):
        assert im.contains(A.columns[j])
    x = gf2.vector_from_indices([0, 3, 7])
    assert im.contains(A.matvec(x))


def test_rank_plus_kernel_dim_is_cols():
    rng = random.Random(21)
    for _ in range(15):
        _, A = random_matrix(rng, rng.randint(1, 30), rng.randint(1, 30))
        assert gf2.rank(A) + len(gf2.kernel_basis(A)) == A.cols


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6), min_size=1, max_size=12))
def test_rank_hypothesis_vs_dense(rows):
    A = GF2Matrix.from_rows(rows)
    assert gf2.rank(A) == dense_rank_gf2(rows)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 1), min_size=5, max_size=5), min_size=1, max_size=10),
    st.integers(0, 31),
)
def test_solve_soundness_hypothesis(rows, bmask):
    A = GF2Matrix.from_rows(rows)
    b = bmask & ((1 << A.rows) - 1)
    x = gf2.solve(A, b)
    if x is not None:
        assert A.matvec(x) == b


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 1), min_size=7, max_size=7), min_size=1, max_size=9),
    st.integers(0, 127),
)
def test_subspace_reduce_idempotent_and_membership(rows, vmask):
    A = GF2Matrix.from_rows(rows)
    space = gf2.image_basis(A)
    v = vmask & ((1 << A.rows) - 1)
    r = space.reduce(v)
    assert space.reduce(r) == r
    assert space.contains(v ^ r)
    # reduction residue is zero exactly on members
    assert space.contains(v) == (r == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 10), st.integers(4, 10))
def test_kernel_image_dimensions_hypothesis(seed, rows, cols):
    rng = random.Random(seed)
    entries = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
    A = GF2Matrix.from_rows(entries)
    im = gf2.image_basis(A)
    ker = gf2.kernel_basis(A)
    assert im.dim + len(ker) == cols
    for v in ker:
        assert A.matvec(v) == 0


def test_tracking_is_keyword_only():
    # a subspace has no dimension argument: a positional one fails instead of turning tracking on
    with pytest.raises(TypeError):
        gf2.GF2Subspace(5)
    assert gf2.GF2Subspace().combos is None and gf2.GF2Subspace(track=True).combos == {}


def test_quotient_image_rank_simple():
    # boundary space spanned by e0+e1; cycles e0+e1 (dies), e2 (survives)
    images = [0b011, 0b100]
    r, reps = gf2.quotient_image_rank(images, gf2.span_of([0b011]))
    assert r == 1
    assert reps == [1]


def test_quotient_image_rank_reads_the_span_only():
    # the residues mod B keep the positions that extending B in place keeps,
    # and B's pivots are left as they were
    rng = random.Random(13)
    for trial in range(200):
        width = rng.randint(1, 12)
        columns = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
        images = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
        images += [columns[0] ^ images[0]] if columns and images else []  # an image equal to another mod B
        B = gf2.span_of(columns)
        pivots = dict(B.pivots)
        assert gf2.quotient_image_rank(images, B) == quotient_image_rank_by_extension(images, columns), trial
        assert B.pivots == pivots, trial


def test_matmul_and_transpose_consistency():
    rng = random.Random(3)
    _, A = random_matrix(rng, 6, 4)
    _, B = random_matrix(rng, 4, 5)
    C = A.matmul(B)
    Ct = B.transpose().matmul(A.transpose())
    assert C.transpose() == Ct


def test_shape_mismatch_raises():
    A = identity(3)
    B = identity(4)
    with pytest.raises(ValueError):
        A.matmul(B)


small_systems = st.integers(1, 9).flatmap(
    lambda rows: st.tuples(
        st.lists(st.integers(0, (1 << rows) - 1), min_size=0, max_size=12),
        st.integers(0, (1 << rows) - 1),
        st.just(rows),
    )
)


def _dense(columns, rows):
    return [[(c >> i) & 1 for c in columns] for i in range(rows)]


@settings(max_examples=80, deadline=None)
@given(small_systems, st.integers(0, 511), st.integers(0, 511))
def test_pivots_are_top_bits_and_reduce_is_linear(system, u, v):
    columns, _, rows = system
    space = gf2.span_of(columns)
    for p, vec in space.pivots.items():
        assert vec.bit_length() - 1 == p
    u &= (1 << rows) - 1
    v &= (1 << rows) - 1
    r = space.reduce(u)
    assert all(not (r >> p) & 1 for p in space.pivots)
    assert space.reduce(u ^ v) == r ^ space.reduce(v)


@st.composite
def packed_systems(draw):
    """Packed columns (packed, lo) with 0-5 distinct offsets, and b: a sum of some columns, maybe plus one row.

    Columns of one stream come in mixed widths: fewer fields than a
    triangle's, a tetrahedron's, or more.
    """
    offsets = st.lists(st.integers(1, 40), max_size=5, unique=True)
    columns = draw(st.lists(st.tuples(offsets.map(pack_offsets), st.integers(0, 24)), max_size=12))
    chosen = draw(st.integers(0, (1 << len(columns)) - 1))
    b = 0
    for t, (c, lo) in enumerate(columns):
        if (chosen >> t) & 1:
            b ^= unpacked(c, lo)
    if draw(st.booleans()):
        b ^= 1 << draw(st.integers(0, 70))
    return columns, b


@settings(max_examples=80, deadline=None)
@given(small_systems)
@example(([0, 0b11, 0b01, 0b10], 0b10, 2))
def test_solve_returns_the_reference_witness(system):
    # the very witness of the plain reference, zero columns, b = 0 and
    # infeasible b included; in the example column 3 alone also sums to b,
    # but it enters dependent, so the witness is columns 1 and 2
    columns, b, rows = system
    assert gf2.solve(GF2Matrix(rows, len(columns), columns), b) == tracked_full_solve(columns, b)


@settings(max_examples=60, deadline=None)
@given(packed_systems())
def test_solve_witnessless_agrees_on_feasibility(system):
    columns, b = system
    w = gf2.solve_columns(columns, b)
    f = gf2.ColumnSolve(b, track=False).feed(columns)
    assert (w is None) == (f is None)


@settings(max_examples=80, deadline=None)
@given(packed_systems(), st.integers(0, 12))
@example(([(0, 1), (0, 0)], 0b11), 1)
def test_early_exit_and_resumed_solves_match_dense(system, split):
    columns, b = system
    split %= len(columns) + 1
    plain = [unpacked(c, lo) for c, lo in columns]
    rows = max([b, *plain]).bit_length()
    rhs = [(b >> i) & 1 for i in range(rows)]
    feasible = dense_solve_gf2(_dense(plain, rows), rhs) is not None if columns else b == 0
    for x in (gf2.solve_columns(iter(columns), b), gf2.ColumnSolve(b, track=False).feed(iter(columns))):
        assert (x is not None) == feasible
    # the fallback of the essential probe: drop the witness after a failed prefix
    resumed = gf2.ColumnSolve(b)
    if resumed.feed(iter(columns[:split])) is None:
        resumed.drop_witness()
        assert resumed.feed(iter(columns[split:])) == (0 if feasible else None)
    else:
        assert feasible


@settings(max_examples=80, deadline=None)
@given(packed_systems(), st.integers(0, 12))
def test_witnessed_early_exit_matches_tracked_full_elimination(system, split):
    columns, b = system
    split %= len(columns) + 1
    plain = [unpacked(c, lo) for c, lo in columns]
    x = gf2.solve_columns(iter(columns), b)
    assert x == tracked_full_solve(plain, b)
    if x is not None:
        assert gf2.GF2Matrix(0, len(plain), plain).matvec(x) == b
    # a solve fed in two parts gives the same witness
    resumed = gf2.ColumnSolve(b)
    resumed.feed(iter(columns[:split]))
    assert resumed.feed(iter(columns[split:])) == x


@settings(max_examples=80, deadline=None)
@given(packed_systems())
def test_early_exit_pulls_no_column_after_reaching_b(system):
    columns, b = system
    pulled = []
    x = gf2.solve_columns((pulled.append(c) or c for c in columns), b)
    if x is not None:
        # the last column pulled is the one that completed the witness
        assert x.bit_length() == len(pulled)


@settings(max_examples=150, deadline=None)
@given(packed_systems(), st.integers(0, 12), st.booleans(), st.booleans())
@example(([(pack_offsets([1]), 3), (0, 0), (pack_offsets([2]), 1)], 0b1011), 1, True, True)
@example(([(pack_offsets([2, 1]), 0), (pack_offsets([2]), 0), (pack_offsets([1]), 1)], 0b110), 3, False, False)
@example(
    ([(pack_offsets([5, 3, 1]), 0), (pack_offsets([5]), 0), (pack_offsets([2]), 1), (pack_offsets([9, 8, 6, 4, 2]), 3)],
     0b1101010000011),
    2, True, False,
)
def test_banded_solve_matches_plain_solve(system, split, track, drop):
    # the stream fed as (packed, lo) pairs to a ColumnSolve and as plain
    # ints to the plain reference: the same solutions, residue row and
    # columns pulled, and the same echelon and combination masks once each
    # stored pivot is built (stored columns unpacked, reduced bands shifted
    # up)
    columns, b = system
    banded, banded_out = two_feeds(b, columns, split, track, drop)
    want_out, want_rest, want_entries = reference_feeds(b, [unpacked(c, lo) for c, lo in columns], split, track, drop)
    assert banded_out == want_out
    assert banded.rest << banded.off == want_rest
    _, reduced = stored_pivots(banded.space)
    assert all(u & 1 and (m is None or m[0] & 1) for u, m in reduced.values())
    assert echelon_entries(banded.space) == want_entries


def test_unpack_builds_the_band_of_a_packed_column():
    assert gf2.unpack(0) == 1
    assert gf2.unpack(pack_offsets([5, 2])) == 0b100101
    packed = pack_offsets([1000, 7, 1])
    assert gf2.unpack(packed) == unpacked(packed, 0) == 1 | 2 | 1 << 7 | 1 << 1000
    # the top offset sits in the lowest field; an index below 2^31 fills no more than its field
    assert pack_offsets([2**31 - 1, 3]) & gf2.FIELD_MASK == 2**31 - 1
    assert pack_offsets([2**31 - 1, 3]) >> gf2.FIELD == 3


def test_a_solve_takes_its_columns_in_one_form():
    # (packed, lo) pairs only: a plain int column does not unpack
    with pytest.raises(TypeError):
        gf2.ColumnSolve(0b110).feed([0b100])


@st.composite
def masked_systems(draw):
    """Columns with planted dependencies, their tracked echelon, a row mask and b.

    Masks are empty, every row, pivot rows only, or random; b is a sum of
    columns off the mask (feasible) or any vector (often not).
    """
    rows = draw(st.integers(1, 10))
    full = (1 << rows) - 1
    columns: list[int] = []
    for _ in range(draw(st.integers(0, 14))):
        if columns and draw(st.booleans()):
            c = 0
            for i in draw(st.lists(st.integers(0, len(columns) - 1), max_size=4)):
                c ^= columns[i]
            c ^= draw(st.integers(0, full)) & draw(st.sampled_from([0, full]))
        else:
            c = draw(st.integers(0, full))
        columns.append(c)
    space = gf2.image_basis(GF2Matrix(rows, len(columns), columns))
    kind = draw(st.sampled_from(["empty", "all", "pivots", "random"]))
    if kind in ("empty", "all"):
        masked = list(range(rows)) if kind == "all" else []
    else:
        pool = sorted(space.pivots) if kind == "pivots" else range(rows)
        masked = sorted(draw(st.sets(st.sampled_from(pool)))) if pool else []
    b = draw(st.integers(0, full))
    if draw(st.booleans()):
        b &= gf2.vector_from_indices(masked)
        for t in gf2.bits(draw(st.integers(0, (1 << len(columns)) - 1))):
            b ^= columns[t]
    return columns, space, masked, b


@settings(max_examples=400, deadline=None)
@given(masked_systems())
@example(([0b110, 0b010, 0b011], gf2.image_basis(GF2Matrix(3, 3, [0b110, 0b010, 0b011])), [2], 0b011))
@example(([0b110, 0b010, 0b011], gf2.image_basis(GF2Matrix(3, 3, [0b110, 0b010, 0b011])), [2], 0b010))
def test_masked_solve_on_a_tracked_echelon_matches_the_masked_solve(system):
    # the echelon of the unmasked columns answers the solve over the masked
    # columns bit for bit: same feasibility, same combination of columns.
    # In the examples, masking row 2 sends column 0 onto column 1's pivot
    # row, so column 1 turns dependent under the mask
    columns, space, masked, b = system
    keep = ~gf2.vector_from_indices(masked)
    before = (dict(space.pivots), dict(space.combos))
    assert space.solve_masked(b, masked) == tracked_full_solve([c & keep for c in columns], b & keep)
    assert (space.pivots, space.combos) == before
