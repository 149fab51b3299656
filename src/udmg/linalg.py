"""Exact linear algebra over GF(q): echelon forms, kernels, subspaces,
complements, and quotient-space coordinate maps.

Subspaces are stored canonically as the reduced row echelon basis of their
spanning vectors, so subspace equality is plain tuple equality.  The public
basis view presents those vectors as matrix columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import AmbientMismatchError, FieldMismatchError
from .fields import FieldSpec


@dataclass(frozen=True)
class FqMatrix:
    """Immutable matrix; entries is the row-major tuple of element reps."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        q = self.field.q
        for e in self.entries:
            if type(e) is not int:  # bool and 2.0 are refused, not coerced
                raise TypeError(f"entry {e!r} is not an integer")
            if not 0 <= e < q:
                raise FieldMismatchError(f"entry {e} outside field of order {q}")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "FqMatrix":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(field, len(rows), ncols, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FqMatrix":
        return cls.from_rows(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "FqMatrix":
        return cls(field, rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "FqMatrix":
        return FqMatrix.from_rows(self.field, [self.col(j) for j in range(self.cols)])

    def prefix_cols(self, k: int) -> "FqMatrix":
        return FqMatrix.from_rows(self.field, [self.row(i)[:k] for i in range(self.rows)])

    def matmul(self, other: "FqMatrix") -> "FqMatrix":
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        dot = self.field.dot
        ocols = [other.col(j) for j in range(other.cols)]
        out = [[dot(r, c) for c in ocols] for r in map(self.row, range(self.rows))]
        return FqMatrix.from_rows(self.field, out)

    def matvec(self, v) -> tuple:
        dot = self.field.dot
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def vecmat(self, v) -> tuple:
        dot = self.field.dot
        return tuple(dot(v, self.col(j)) for j in range(self.cols))


def hstack(blocks) -> FqMatrix:
    """Concatenate matrices with equal row counts left to right."""
    blocks = list(blocks)
    field = blocks[0].field
    nrows = blocks[0].rows
    if any(b.rows != nrows or b.field != field for b in blocks):
        raise ValueError("row count or field mismatch")
    rows = [sum((list(b.row(i)) for b in blocks), []) for i in range(nrows)]
    return FqMatrix.from_rows(field, rows)


def rref_rows(field: FieldSpec, rows) -> tuple:
    """In-place reduced row echelon form; returns (rank, pivot columns)."""
    if not rows:
        return 0, ()
    ncols = len(rows[0])
    sub, mul, inv = field.sub, field.mul, field.inv
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        lead = prow[col]
        if lead != 1:
            s = inv(lead)
            for j in range(col, ncols):
                if prow[j]:
                    prow[j] = mul(s, prow[j])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rr = rows[r]
                for j in range(col, ncols):
                    if prow[j]:
                        rr[j] = sub(rr[j], mul(f, prow[j]))
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, tuple(pivots)


class RrefResult(NamedTuple):
    matrix: FqMatrix
    rank: int
    pivots: tuple


def rref(M: FqMatrix) -> RrefResult:
    rows = M.to_rows()
    rank, pivots = rref_rows(M.field, rows)
    return RrefResult(FqMatrix.from_rows(M.field, rows), rank, pivots)


def rank(M: FqMatrix) -> int:
    rows = M.to_rows()
    return rref_rows(M.field, rows)[0]


def inverse(M: FqMatrix) -> FqMatrix:
    if M.rows != M.cols:
        raise ValueError("inverse needs a square matrix")
    n = M.rows
    aug = [list(M.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    _, pivots = rref_rows(M.field, aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return FqMatrix.from_rows(M.field, [row[n:] for row in aug])


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_q^K held as canonical rref basis rows (tuple of tuples)."""

    field: FieldSpec
    ambient_dim: int
    vectors: tuple

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient_dim: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise AmbientMismatchError("vector length differs from ambient dimension")
        rank_, _ = rref_rows(field, rows)
        return cls(field, ambient_dim, tuple(tuple(r) for r in rows[:rank_]))

    @classmethod
    def trivial(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(field, ambient_dim,
                                [[1 if i == j else 0 for j in range(ambient_dim)]
                                 for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> FqMatrix:
        """K x dim matrix whose columns are the canonical basis vectors."""
        return FqMatrix.from_rows(
            self.field,
            [[v[i] for v in self.vectors] for i in range(self.ambient_dim)])

    def contains_vector(self, v) -> bool:
        rows = [list(r) for r in self.vectors] + [list(v)]
        return rref_rows(self.field, rows)[0] == self.dim

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("ambient dimensions differ")
        rows = [list(r) for r in self.vectors] + [list(r) for r in other.vectors]
        return rref_rows(self.field, rows)[0] == self.dim

    def enumerate_vectors(self):
        """All q^dim vectors of the subspace, zero first (desk scale only)."""
        return span_vectors(self.field, self.vectors, self.ambient_dim)


def span_vectors(field: FieldSpec, basis, length: int) -> list:
    """Every sum_k c_k basis[k], at index sum_k c_k q^k (c_k a rep): the order depends
    only on the coefficients, so the basis's images under a linear map give theirs."""
    vecs = [(0,) * length]
    for bvec in basis:
        ext = []
        for c in range(1, field.q):
            scaled = tuple(field.mul(c, x) for x in bvec)
            ext.extend(tuple(map(field.add, v, scaled)) for v in vecs)
        vecs.extend(ext)
    return vecs


def subspace_sum(spaces) -> Subspace:
    spaces = list(spaces)
    first = spaces[0]
    for s in spaces[1:]:
        if s.ambient_dim != first.ambient_dim or s.field != first.field:
            raise AmbientMismatchError("subspace sum needs one ambient space")
    vectors = [v for s in spaces for v in s.vectors]
    return Subspace.from_vectors(first.field, first.ambient_dim, vectors)


def kernel_basis(M: FqMatrix) -> Subspace:
    """Right null space {v : M v = 0}."""
    R, rank_, pivots = rref(M)
    f = M.field
    free = [j for j in range(M.cols) if j not in pivots]
    vectors = []
    for j in free:
        v = [0] * M.cols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(R[r, j])
        vectors.append(v)
    return Subspace.from_vectors(f, M.cols, vectors)


def complement(B: Subspace) -> Subspace:
    """Deterministic complement: standard basis vectors at non-pivot positions."""
    pivots = {next(i for i, x in enumerate(v) if x) for v in B.vectors}
    vecs = []
    for j in range(B.ambient_dim):
        if j not in pivots:
            e = [0] * B.ambient_dim
            e[j] = 1
            vecs.append(e)
    return Subspace.from_vectors(B.field, B.ambient_dim, vecs)


def quotient_map(B: Subspace) -> FqMatrix:
    """Surjection Q: F_q^K -> F_q^(K-dim B) with kernel exactly B.

    Writing x = b + w with b in B and w in the standard complement, Q reads
    off w's coordinates, so Q restricted to complement(B) is the identity.
    """
    f = B.field
    K = B.ambient_dim
    pivots = [next(i for i, x in enumerate(v) if x) for v in B.vectors]
    free = [j for j in range(K) if j not in pivots]
    rows = []
    for j in free:
        row = [0] * K
        row[j] = 1
        for k, pc in enumerate(pivots):
            row[pc] = f.sub(row[pc], B.vectors[k][j])
        rows.append(row)
    if not rows:
        return FqMatrix(f, 0, K, ())
    return FqMatrix.from_rows(f, rows)


def image_subspace(Q: FqMatrix, S: Subspace) -> Subspace:
    """Image of S under the linear map given by Q (columns indexed by ambient)."""
    vectors = [Q.matvec(v) for v in S.vectors]
    return Subspace.from_vectors(Q.field, Q.rows, vectors)
