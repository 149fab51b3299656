import pytest
from hypothesis import given, settings, strategies as st

from udmg.errors import AmbientMismatchError
from udmg.fields import make_field
from udmg.linalg import (
    FqMatrix,
    Subspace,
    complement,
    hstack,
    inverse,
    kernel_basis,
    quotient_map,
    rank,
    rref,
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
    B = mat(F3, [(2,), (2,)])
    H = hstack([A, B])
    assert H.cols == 3 and H.col(2) == (2, 2)
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
