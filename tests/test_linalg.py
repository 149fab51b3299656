from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from udmg.errors import AmbientMismatchError, FieldMismatchError
from udmg.fields import FieldSpec, make_field
from udmg.linalg import (
    FqMatrix,
    Subspace,
    complement,
    first_columns,
    inverse,
    kernel_basis,
    quotient_map,
    rank,
    right_divide,
    rref,
    rref_rows,
    span_columns,
    span_vectors,
    subspace_sum,
)

F2, F3, F5 = make_field(2), make_field(3), make_field(5)


def mat(field, rows):
    return FqMatrix.from_rows(field, rows)


def small_matrix(draw):
    field = draw(st.sampled_from([F2, F3, F5]))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, field.q - 1),
                            min_size=nrows * ncols, max_size=nrows * ncols))
    return FqMatrix(field, nrows, ncols, tuple(entries))


matrices = st.composite(lambda draw: small_matrix(draw))()


def test_rref_identity():
    R, rk, piv = rref(FqMatrix.identity(F5, 3))
    assert rk == 3 and piv == (0, 1, 2)


def test_rref_counterexample_matrix():
    # rows printed as the failing 3x3 minor of the near-miss family
    M = mat(F5, [(1, 1, 1), (3, 2, 2), (1, 4, 4)])
    assert rank(M) == 2


def test_rref_zero():
    R, rk, piv = rref(FqMatrix.zeros(F5, 2, 4))
    assert rk == 0 and piv == ()


def test_kernel_identity_trivial():
    assert kernel_basis(FqMatrix.identity(F3, 4)).dim == 0


def test_kernel_matches_enumeration():
    M = mat(F5, [(1, 4)])
    ker = kernel_basis(M)
    brute = [(a, b) for a in range(5) for b in range(5) if (a + 4 * b) % 5 == 0]
    assert ker.dim == 1
    assert all(M.matvec(v) == (0,) for v in ker.vectors)
    assert len(brute) == 5  # q^dim
    assert ker.contains_vector((1, 1))


def test_kernel_zero_matrix():
    assert kernel_basis(FqMatrix.zeros(F5, 3, 3)).dim == 3


def test_complement_standard_cases():
    e1 = Subspace.from_vectors(F5, 3, [(1, 0, 0)])
    W = complement(e1)
    assert W.vectors == ((0, 1, 0), (0, 0, 1))
    triv = Subspace.trivial(F2, 4)
    assert complement(triv).dim == 4
    diag = Subspace.from_vectors(F2, 2, [(1, 1)])
    W2 = complement(diag)
    assert W2.vectors == ((0, 1),)
    assert subspace_sum([diag, W2]).dim == 2


def test_quotient_map_cases():
    triv = Subspace.trivial(F5, 3)
    assert quotient_map(triv).to_rows() == FqMatrix.identity(F5, 3).to_rows()
    full = Subspace.full(F5, 2)
    Q = quotient_map(full)
    assert Q.rows == 0 and Q.cols == 2
    e1 = Subspace.from_vectors(F5, 3, [(1, 0, 0)])
    Q = quotient_map(e1)
    assert Q.matvec((1, 0, 0)) == (0, 0)
    assert Q.matvec((0, 1, 0)) == (1, 0)
    assert Q.matvec((0, 0, 1)) == (0, 1)


def test_subspace_sum_examples():
    a = Subspace.from_vectors(F2, 2, [(1, 0)])
    b = Subspace.from_vectors(F2, 2, [(0, 1)])
    assert subspace_sum([a, b]).dim == 2
    v = Subspace.from_vectors(F2, 3, [(1, 0, 1)])
    assert subspace_sum([v, v]) == v
    spans = [Subspace.from_vectors(F2, 3, [v])
             for v in [(1, 0, 1), (0, 1, 1), (1, 1, 0)]]
    assert subspace_sum(spans).dim == 2


def test_subspace_sum_ambient_mismatch():
    a = Subspace.trivial(F2, 2)
    b = Subspace.trivial(F2, 3)
    with pytest.raises(AmbientMismatchError):
        subspace_sum([a, b])


def test_inverse_round_trip():
    M = mat(F5, [(1, 2, 0), (0, 1, 4), (3, 0, 2)])
    assert M.matmul(inverse(M)).to_rows() == FqMatrix.identity(F5, 3).to_rows()


def test_inverse_rejects_singular():
    M = mat(F5, [(1, 2, 0), (0, 1, 4), (3, 0, 1)])  # det = 25 = 0 mod 5
    with pytest.raises(ZeroDivisionError):
        inverse(M)


def test_non_integer_entries_refused_not_coerced():
    # from_rows once truncated 2.9 to 2 and True to 1; the constructor kept 2.5
    with pytest.raises(TypeError):
        FqMatrix(F5, 1, 2, (1, 2.5))
    for entry in (2.9, 2.0, True):
        with pytest.raises(TypeError):
            mat(F5, [(1, entry)])
    assert mat(F5, [(1, 4)]).entries == (1, 4)


def test_hstack_and_prefix():
    A = mat(F3, [(1, 2), (0, 1)])
    H = mat(F3, [(1, 2, 2), (0, 1, 2)])
    assert H.prefix_cols(2).to_rows() == A.to_rows()


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_rank_transpose_invariant(M):
    assert rank(M) == rank(M.transpose())


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_rank_nullity(M):
    assert kernel_basis(M).dim + rank(M) == M.cols


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_complement_properties(M):
    B = kernel_basis(M)
    W = complement(B)
    assert B.dim + W.dim == M.cols
    assert subspace_sum([B, W]).dim == M.cols


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_quotient_map_properties(M):
    B = kernel_basis(M)
    Q = quotient_map(B)
    K = M.cols
    assert Q.rows == K - B.dim
    for v in B.vectors:
        assert not any(Q.matvec(v))
    # Q restricted to the complement is a bijection
    W = complement(B)
    if W.dim:
        images = [Q.matvec(v) for v in W.vectors]
        assert rank(FqMatrix.from_rows(M.field, images)) == W.dim


def test_enumerate_vectors_counts():
    S = Subspace.from_vectors(F3, 3, [(1, 0, 0), (0, 1, 0)])
    vecs = S.enumerate_vectors()
    assert len(vecs) == 9 and len(set(vecs)) == 9
    assert all(S.contains_vector(v) for v in vecs)


def test_span_vectors_commutes_with_a_linear_map():
    F9 = make_field(3, 2)
    S = Subspace.from_vectors(F9, 3, [(1, 4, 0), (0, 7, 2)])
    M = FqMatrix.from_rows(F9, [(1, 2, 3, 0), (5, 0, 8, 1), (0, 6, 4, 7)])
    images = span_vectors(F9, [M.vecmat(b) for b in S.vectors], 4)
    assert images == [M.vecmat(v) for v in S.enumerate_vectors()]
    assert len(set(S.enumerate_vectors())) == 81


def test_contains_vector_refuses_a_wrong_length():
    S = Subspace.from_vectors(F5, 2, [[1, 0]])
    assert S.contains_vector((3, 0)) and not S.contains_vector((0, 1))
    for v in [(1, 0, 3), (1,), ()]:
        with pytest.raises(AmbientMismatchError):
            S.contains_vector(v)


def test_zero_row_matrices_keep_their_column_count():
    R = rref(FqMatrix(F5, 0, 3, ())).matrix
    assert (R.rows, R.cols) == (0, 3)
    T = FqMatrix(F5, 3, 0, ()).transpose()
    assert (T.rows, T.cols) == (0, 3)
    P = FqMatrix(F5, 0, 3, ()).matmul(FqMatrix.zeros(F5, 3, 2))
    assert (P.rows, P.cols) == (0, 2)


def test_prefix_cols_keeps_the_shape_of_zero_row_matrices():
    assert FqMatrix(F5, 0, 3, ()).prefix_cols(2) == FqMatrix(F5, 0, 2, ())
    assert FqMatrix(F5, 2, 3, (1, 2, 3, 4, 0, 1)).prefix_cols(0) == FqMatrix(F5, 2, 0, ())


@pytest.mark.parametrize("nrows, ncols, entries, error", [
    (-1, -1, (1,), ValueError),  # (-1) * (-1) = 1 entry once passed the count
    (-2, -3, (1,) * 6, ValueError),
    (0, -1, (), ValueError),
    (2, -1, (), ValueError),
    (2.0, 1, (1, 1), TypeError),
    (True, 1, (1,), TypeError),
    (1, False, (), TypeError),
])
def test_matrix_shapes_are_non_negative_ints(nrows, ncols, entries, error):
    with pytest.raises(error):
        FqMatrix(F5, nrows, ncols, entries)
    with pytest.raises(error):
        FqMatrix.zeros(F5, nrows, ncols)
    assert FqMatrix(F5, 1, 1, (1,)).entries == (1,)
    assert FqMatrix(F5, 0, 0, ()) == FqMatrix.zeros(F5, 0, 0)


@pytest.mark.parametrize("dim, error", [(-1, ValueError), (-2, ValueError), (2.0, TypeError),
                                        (True, TypeError), (False, TypeError), ("2", TypeError)])
def test_subspace_ambient_dims_are_non_negative_ints(dim, error):
    for build in (Subspace.trivial, Subspace.full, lambda f, n: Subspace.from_vectors(f, n, [])):
        with pytest.raises(error, match="ambient dimension"):
            build(F5, dim)
    with pytest.raises(error, match="ambient dimension"):
        Subspace(F5, dim, ())
    assert Subspace.full(F5, 0) == Subspace.trivial(F5, 0) == Subspace(F5, 0, ())
    assert Subspace.full(F5, 2).vectors == ((1, 0), (0, 1))


def test_matvec_and_vecmat_refuse_wrong_lengths_and_reps():
    M = mat(F5, [[1, 2, 3], [4, 0, 1]])
    assert M.vecmat((1, 0)) == (1, 2, 3) and M.vecmat([1, 1]) == (0, 2, 4)
    assert M.matvec((1, 0, 0)) == (1, 4) and M.matvec([1, 1, 1]) == (1, 0)
    for v in [(), (1,), (1, 1, 1)]:  # vecmat needs rows = 2 entries
        with pytest.raises(ValueError):
            M.vecmat(v)
    for v in [(), (1,), (1, 1), (1, 1, 1, 1)]:  # matvec needs cols = 3
        with pytest.raises(ValueError):
            M.matvec(v)
    for v in [(6, 0), (5, 0), (-1, 0)]:  # (6, 0) once read as (1, 0)
        with pytest.raises(ValueError):
            M.vecmat(v)
    with pytest.raises(ValueError):
        M.matvec((0, 0, 5))
    for bad in (True, 1.0, 1.5, None):
        with pytest.raises(TypeError):
            M.vecmat((bad, 0))
        with pytest.raises(TypeError):
            M.matvec((0, bad, 0))
    assert FqMatrix(F5, 0, 2, ()).vecmat(()) == (0, 0)
    assert FqMatrix(F5, 2, 0, ()).matvec(()) == (0, 0)


def test_quotient_map_by_the_whole_space_has_zero_rows():
    Q = quotient_map(Subspace.from_vectors(F5, 3, [[1, 2, 0], [0, 1, 4], [3, 1, 1]]))
    assert Q == FqMatrix(F5, 0, 3, ())
    Q = quotient_map(Subspace.from_vectors(F5, 2, []))
    assert Q == FqMatrix.identity(F5, 2)


def gauss_jordan_rows(field, rows):
    """Oracle: Gauss-Jordan elimination with row swaps, clearing each pivot column
    above and below as it goes; in place, returns (rank, pivot columns)."""
    if not rows:
        return 0, ()
    ncols = len(rows[0])
    sub, mul, inv = field.sub, field.mul, field.inv
    rank_ = 0
    pivots = []
    for col in range(ncols):
        pivot = None
        for r in range(rank_, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        prow = rows[rank_]
        lead = prow[col]
        if lead != 1:
            s = inv(lead)
            for j in range(col, ncols):
                if prow[j]:
                    prow[j] = mul(s, prow[j])
        for r in range(len(rows)):
            if r != rank_ and rows[r][col]:
                f = rows[r][col]
                rr = rows[r]
                for j in range(col, ncols):
                    if prow[j]:
                        rr[j] = sub(rr[j], mul(f, prow[j]))
        pivots.append(col)
        rank_ += 1
        if rank_ == len(rows):
            break
    return rank_, tuple(pivots)


def assert_rref_matches_gauss_jordan(field, rows):
    mine, want = [list(r) for r in rows], [list(r) for r in rows]
    assert rref_rows(field, mine) == gauss_jordan_rows(field, want)
    assert mine == want


# prime, table p = 2, table odd p, and above the table limit for p = 2 and odd p
RREF_FIELDS = [make_field(7), make_field(2, 4), make_field(5, 2), make_field(2, 13), make_field(3, 8)]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rref_rows_matches_gauss_jordan(data):
    field = data.draw(st.sampled_from(RREF_FIELDS))
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 7))
    # 0, 1 and -1 often, so dependent rows and zero columns come up as well as random ones
    entries = st.one_of(st.sampled_from([0, 1, field.q - 1]), st.integers(0, field.q - 1))
    rows = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    assert_rref_matches_gauss_jordan(field, rows)


@pytest.mark.parametrize("field, nrows, ncols", [(F3, 2, 3), (make_field(2, 2), 2, 2)])
def test_rref_rows_matches_gauss_jordan_exhaustively(field, nrows, ncols):
    for entries in product(range(field.q), repeat=nrows * ncols):
        rows = [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]
        assert_rref_matches_gauss_jordan(field, rows)


def span_by_vectors(field, basis, length):
    """span_vectors' order built one whole vector at a time by field.add and field.mul."""
    vecs = [(0,) * length]
    for bvec in basis:
        ext = []
        for c in range(1, field.q):
            scaled = tuple(field.mul(c, x) for x in bvec)
            ext.extend(tuple(map(field.add, v, scaled)) for v in vecs)
        vecs.extend(ext)
    return vecs


def assert_span_matches(field, basis, length):
    want = span_by_vectors(field, basis, length)
    cols = span_columns(field, basis, length)
    assert len(cols) == length and all(len(col) == len(want) for col in cols)
    assert [tuple(col[i] for col in cols) for i in range(len(want))] == want
    assert span_vectors(field, basis, length) == want


def test_span_columns_exhaustive_at_small_size():
    for field, most in [(F2, 4), (F3, 4), (make_field(2, 2), 4), (F5, 3), (make_field(3, 2), 2)]:
        for dim, length in product(range(3), range(3)):
            if dim * length <= most:
                for entries in product(range(field.q), repeat=dim * length):
                    basis = [entries[j * length:(j + 1) * length] for j in range(dim)]
                    assert_span_matches(field, basis, length)


def test_span_columns_above_the_table_limit():
    for field in RREF_FIELDS[3:]:  # one enumeration of q vectors takes a good part of a second
        for basis in [[], [()], [(0, field.q - 2)]]:
            assert_span_matches(field, basis, len(basis[0]) if basis else 2)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_span_columns_match_the_vector_enumeration(data):
    field = data.draw(st.sampled_from(RREF_FIELDS[:3]))
    dim, length = data.draw(st.integers(0, 4 if field.q < 16 else 2)), data.draw(st.integers(0, 3))
    entry = st.integers(0, field.q - 1)
    basis = data.draw(st.lists(st.lists(entry, min_size=length, max_size=length),
                               min_size=dim, max_size=dim))
    assert_span_matches(field, basis, length)


def test_span_columns_call_the_field_no_more_than_the_vector_enumeration(monkeypatch):
    calls = []
    for op in ("add", "mul"):
        fn = FieldSpec.__dict__[op]
        monkeypatch.setattr(FieldSpec, op, lambda self, a, b, fn=fn, op=op: calls.append(op)
                            or fn(self, a, b))
    for field, basis in [(make_field(3, 2), [(1, 4, 0), (0, 7, 2)]), (make_field(2, 13), [(5, 0)]),
                         (F5, [(1, 2), (3, 4)])]:
        counts = []
        for span in (span_by_vectors, span_columns):
            calls.clear()
            span(field, basis, len(basis[0]))
            counts.append((calls.count("add"), calls.count("mul")))
        assert counts[1] == (counts[0] if field.m > 1 else (0, 0)), field


def test_first_columns_puts_the_first_column_of_matrix_j_in_column_j():
    mats = [FqMatrix.from_rows(F5, [[1, 2], [3, 4], [0, 1]]),
            FqMatrix.from_rows(F5, [[4, 0], [2, 2], [1, 3]]),
            FqMatrix.from_rows(F5, [[0], [0], [2]])]
    G = first_columns(mats)
    assert G == FqMatrix.from_rows(F5, [[1, 4, 0], [3, 2, 0], [0, 1, 2]])
    assert [G.col(j) for j in range(3)] == [M.col(0) for M in mats]


# -- matmul and right_divide against triple-loop oracles ---------------------------
#
# prime below and above the inverse table, table p = 2, table odd p, and above the
# table limit for p = 2 and odd p
PRODUCT_FIELDS = [F2, make_field(13), make_field(4099), make_field(2, 4), make_field(5, 2),
                  make_field(2, 13), make_field(3, 8)]


def matmul_by_loops(A, B):
    """Oracle: entry (i, j) summed term by term with field.add and field.mul."""
    f = A.field
    out = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = 0
            for k in range(A.cols):
                acc = f.add(acc, f.mul(A[i, k], B[k, j]))
            out.append(acc)
    return FqMatrix(f, A.rows, B.cols, tuple(out))


def draw_matrix(data, field, nrows, ncols):
    # 0, 1 and -1 often, so sparse and structured matrices come up beside random ones
    entry = st.one_of(st.sampled_from([0, 1, field.q - 1]), st.integers(0, field.q - 1))
    return FqMatrix(field, nrows, ncols, tuple(data.draw(
        st.lists(entry, min_size=nrows * ncols, max_size=nrows * ncols))))


def draw_invertible(data, field, n):
    """P L U with L unit lower and U upper triangular with a nonzero diagonal: every
    invertible n x n matrix has this form, whatever the field."""
    L, U = draw_matrix(data, field, n, n).to_rows(), draw_matrix(data, field, n, n).to_rows()
    for i in range(n):
        L[i][i + 1:] = [0] * (n - i - 1)
        L[i][i] = 1
        U[i][:i] = [0] * i
        U[i][i] = U[i][i] or data.draw(st.integers(1, field.q - 1))
    LU = matmul_by_loops(mat(field, L), mat(field, U)).to_rows()
    return mat(field, data.draw(st.permutations(LU)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_matmul_matches_the_triple_loop(data):
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    A, B = draw_matrix(data, field, n, k), draw_matrix(data, field, k, m)
    assert A.matmul(B) == matmul_by_loops(A, B)


@pytest.mark.parametrize("field", PRODUCT_FIELDS)
@pytest.mark.parametrize("n, k, m", [(2, 0, 3), (0, 0, 0), (0, 3, 2), (2, 3, 0), (0, 2, 0),
                                     (1, 1, 1), (1, 4, 1), (4, 1, 4)])
def test_matmul_matches_the_triple_loop_at_edge_shapes(field, n, k, m):
    A = FqMatrix(field, n, k, tuple((3 * i + 1) % field.q for i in range(n * k)))
    B = FqMatrix(field, k, m, tuple((5 * i + 2) % field.q for i in range(k * m)))
    P = A.matmul(B)
    assert P == matmul_by_loops(A, B)
    assert (P.rows, P.cols) == (n, m)
    if k == 0:
        assert P == FqMatrix.zeros(field, n, m)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_right_divide_matches_inverse_then_matmul(data):
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n, m = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    B = draw_invertible(data, field, n)
    A = draw_matrix(data, field, m, n)
    X = right_divide(A, B)
    assert X == A.matmul(inverse(B)) == matmul_by_loops(A, inverse(B))
    assert matmul_by_loops(X, B) == A


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_right_divide_refuses_a_singular_divisor_as_inverse_does(data):
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n = data.draw(st.integers(1, 8))
    rows = draw_invertible(data, field, n).to_rows()
    # the last row becomes a combination of the others (zero when n = 1)
    coeffs = [data.draw(st.integers(0, field.q - 1)) for _ in range(n - 1)]
    rows[-1] = list(matmul_by_loops(mat(field, [coeffs]), mat(field, rows[:-1])).row(0)) \
        if n > 1 else [0]
    B = mat(field, data.draw(st.permutations(rows)))
    A = draw_matrix(data, field, data.draw(st.integers(0, 8)), n)
    with pytest.raises(ZeroDivisionError):
        inverse(B)
    with pytest.raises(ZeroDivisionError):
        right_divide(A, B)


def test_right_divide_refuses_mismatched_shapes_and_fields():
    with pytest.raises(FieldMismatchError):
        right_divide(FqMatrix.identity(F5, 2), FqMatrix.identity(F3, 2))
    with pytest.raises(ValueError):
        right_divide(FqMatrix.identity(F5, 2), FqMatrix.zeros(F5, 2, 3))
    with pytest.raises(ValueError):
        right_divide(FqMatrix.zeros(F5, 2, 3), FqMatrix.identity(F5, 2))


# -- one column reader, and no index that reads another row's entry --------------

def entry(M, i, j):
    """Oracle: entry (i, j) read off the row-major entries by their definition."""
    return M.entries[i * M.cols + j]


def test_accessors_refuse_the_indices_that_used_to_read_another_entry():
    # M[0, 3] read M[1, 0] = 4, M[0, -1] read M[1, 2] = 1, col(-1) read (1, 3),
    # and row(2) and row(-1) read ()
    M = mat(F5, [[1, 2, 3], [4, 0, 1]])
    for ij in [(0, 3), (0, -1), (2, 0), (-1, 0)]:
        with pytest.raises(IndexError):
            M[ij]
    for i in (2, -1):
        with pytest.raises(IndexError):
            M.row(i)
    for j in (3, -1):
        with pytest.raises(IndexError):
            M.col(j)
    assert (M[0, 2], M[1, 0], M.row(1), M.col(2)) == (3, 4, (4, 0, 1), (3, 1))


@pytest.mark.parametrize("nrows, ncols", [(2, 3), (1, 1), (0, 3), (2, 0), (0, 0)])
def test_accessors_on_both_sides_of_each_bound(nrows, ncols):
    M = FqMatrix(F5, nrows, ncols, tuple(i % 5 for i in range(1, nrows * ncols + 1)))
    for i in range(-1, nrows + 1):
        if 0 <= i < nrows:
            assert M.row(i) == tuple(entry(M, i, j) for j in range(ncols))
        else:
            with pytest.raises(IndexError):
                M.row(i)
        for j in range(-1, ncols + 1):
            if 0 <= i < nrows and 0 <= j < ncols:
                assert M[i, j] == entry(M, i, j)
            else:
                with pytest.raises(IndexError):
                    M[i, j]
    for j in range(-1, ncols + 1):
        if 0 <= j < ncols:
            assert M.col(j) == tuple(entry(M, i, j) for i in range(nrows))
        else:
            with pytest.raises(IndexError):
                M.col(j)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_columns_transpose_and_vecmat_match_index_by_index(data):
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n, k = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    M = draw_matrix(data, field, n, k)
    assert [M.col(j) for j in range(k)] == [tuple(entry(M, i, j) for i in range(n))
                                            for j in range(k)]
    T = M.transpose()
    assert (T.rows, T.cols) == (k, n)
    assert all(entry(T, j, i) == entry(M, i, j) for i in range(n) for j in range(k))
    v = draw_matrix(data, field, 1, n).entries
    want = []
    for j in range(k):
        acc = 0
        for i in range(n):
            acc = field.add(acc, field.mul(v[i], entry(M, i, j)))
        want.append(acc)
    assert M.vecmat(v) == tuple(want)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_right_divide_solves_index_by_index(data):
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    B, A = draw_invertible(data, field, n), draw_matrix(data, field, m, n)
    X = right_divide(A, B)
    assert (X.rows, X.cols) == (m, n)
    for i in range(m):  # X B = A entry by entry; B is invertible, so X is the only solution
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = field.add(acc, field.mul(entry(X, i, k), entry(B, k, j)))
            assert acc == entry(A, i, j)


def old_kernel_basis(M):
    """Oracle: the null space read entry by entry off the rref matrix, eliminated again."""
    R, _, pivots = rref(M)
    vectors = []
    for j in (j for j in range(M.cols) if j not in pivots):
        v = [0] * M.cols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = M.field.neg(R[r, j])
        vectors.append(v)
    return Subspace.from_vectors(M.field, M.cols, vectors)


def old_quotient_map(B):
    """Oracle: e_j minus the pivot entries of column j, by field.sub, for each free column j."""
    f, K = B.field, B.ambient_dim
    pivots = [next(i for i, x in enumerate(v) if x) for v in B.vectors]
    entries = []
    for j in (j for j in range(K) if j not in pivots):
        row = [0] * K
        row[j] = 1
        for k, pc in enumerate(pivots):
            row[pc] = f.sub(row[pc], B.vectors[k][j])
        entries.extend(row)
    return FqMatrix(f, K - len(pivots), K, tuple(entries))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_layer_matches_the_eliminating_routes(data):
    # kernel_basis and quotient_map share one null-space builder; complement and
    # full hold unit vectors without an elimination; the two containment tests
    # share one rank test.  Each against an eliminating oracle.
    field = data.draw(st.sampled_from(PRODUCT_FIELDS))
    n, k = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
    M = draw_matrix(data, field, n, k)
    B = kernel_basis(M)
    assert B == old_kernel_basis(M)
    S = Subspace.from_vectors(field, k, M.to_rows())
    for X in (B, S):
        assert quotient_map(X) == old_quotient_map(X)
        W = complement(X)
        assert W == Subspace.from_vectors(field, k, W.vectors)
        assert subspace_sum([X, W]).dim == k
    units = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    assert Subspace.full(field, k) == Subspace.from_vectors(field, k, units)
    v = draw_matrix(data, field, 1, k).entries
    assert S.contains_vector(v) == S.contains(Subspace.from_vectors(field, k, [v]))
    assert S.contains_vector(v) == (rank(FqMatrix.from_rows(field, [*S.vectors, v])) == S.dim)
    assert S.contains(B) == all(S.contains_vector(b) for b in B.vectors)
