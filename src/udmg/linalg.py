"""Exact linear algebra over GF(q): echelon forms, kernels, subspaces,
complements, and quotient-space coordinate maps.

One forward elimination, echelon_rows, is the package's only loop that
eliminates given rows: rref_rows is that pass plus back-substitution (inverse
and right_divide are one rref_rows each, and kernel_basis, which gives codes'
distance certificate, reads the null space off one), rank and subspace
containment use the forward pass alone, and curves builds its increasing zero
bases on it.  Rows update by fields.row_ops' axpy, as in core's scan.
FqMatrix.col is the one reader of a column; no accessor takes an index outside
the shape, and no product a vector of the wrong length or outside the field.

Subspaces are stored canonically as the reduced row echelon basis of their
spanning vectors, so subspace equality is plain tuple equality.  The public
basis view presents those vectors as matrix columns.  kernel_basis and
quotient_map write null spaces with one builder, _null_vectors; complement and
Subspace.full hold unit vectors, canonical already, with no elimination.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import AmbientMismatchError, FieldMismatchError
from .fields import FieldSpec, row_ops
from .records import record


@record
class FqMatrix:
    """Immutable matrix; entries is the row-major tuple of element reps."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if type(self.rows) is not int or type(self.cols) is not int:  # refuses bool and 2.0
            raise TypeError(f"shape {self.rows!r} x {self.cols!r} is not a pair of integers")
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"shape {self.rows} x {self.cols} is negative")
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
        return cls.from_rows(field, _units(n, ()))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "FqMatrix":
        return cls(field, rows, cols, (0,) * (rows * cols))

    # An index outside [0, n) raises IndexError: on row-major entries it would read another row.
    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside [0, {self.cols})")
        return self.row(i)[j]

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside [0, {self.rows})")
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        """Column j: the one strided read of entries."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside [0, {self.cols})")
        return self.entries[j::self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.field, self.cols, self.rows,
                        tuple(e for j in range(self.cols) for e in self.col(j)))

    def prefix_cols(self, k: int) -> "FqMatrix":
        return FqMatrix(self.field, self.rows, k,
                        tuple(e for i in range(self.rows) for e in self.row(i)[:k]))

    def matmul(self, other: "FqMatrix") -> "FqMatrix":
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        dot = self.field.dot
        ocols = [other.col(j) for j in range(other.cols)]  # () for each when other has no rows
        return FqMatrix(self.field, self.rows, other.cols,
                        tuple(dot(r, c) for r in map(self.row, range(self.rows)) for c in ocols))

    def _vector(self, v, n: int) -> tuple:
        """v as n field elements: field.check refuses bool, 1.5 and reps outside the field."""
        if len(v := tuple(map(self.field.check, v))) != n:
            raise ValueError(f"vector of length {len(v)} where {n} is needed")
        return v

    def matvec(self, v) -> tuple:
        v, dot = self._vector(v, self.cols), self.field.dot
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def vecmat(self, v) -> tuple:
        v, dot = self._vector(v, self.rows), self.field.dot
        return tuple(dot(v, self.col(j)) for j in range(self.cols))


def first_columns(matrices) -> FqMatrix:
    """The matrix whose column j is the first column of matrices[j], all of one height."""
    return FqMatrix.from_rows(matrices[0].field, zip(*(M.col(0) for M in matrices)))


def _clear(axpy, prow, col: int, rows, targets) -> None:
    """Subtract from each rows[i], i in targets, its entry at col times prow (prow[col] = 1),
    from col on, in place; axpy is row_ops' row update, built once per elimination."""
    tail = prow[col:]
    for i in targets:
        row = rows[i]
        if row[col]:
            row[col:] = axpy(row[col], tail, row[col:])


def echelon_rows(ops, rows, width: int) -> tuple:
    """Forward elimination over the first width columns, in place; rows are not moved.

    Each column's pivot is the first remaining row, in input order, with a
    nonzero entry there.  It is scaled to lead with 1 and cleared from the
    remaining rows across the whole row, so columns past width (a transform,
    say) follow the row operations.  Returns (used, pivots, remaining): the
    pivot rows' indices in pivot-column order, their pivot columns, and the
    indices of the rows that received no pivot.  ops is fields.row_ops(field).
    """
    mul, div, axpy, _ = ops
    used, pivots, remaining = [], [], list(range(len(rows)))
    for col in range(width):
        for hit in remaining:
            if rows[hit][col]:
                break
        else:
            continue
        remaining.remove(hit)
        row = rows[hit]
        if row[col] != 1:
            s = div(1, row[col])
            row[col:] = [mul(s, x) if x else 0 for x in row[col:]]
        _clear(axpy, row, col, rows, remaining)
        used.append(hit)
        pivots.append(col)
        if not remaining:
            break
    return used, pivots, remaining


def rref_rows(field: FieldSpec, rows) -> tuple:
    """In-place reduced row echelon form; returns (rank, pivot columns).

    echelon_rows over every column, the pivot rows moved to the top in pivot
    order, then back-substitution clears each pivot column above its pivot.
    """
    if not rows:
        return 0, ()
    ops = row_ops(field)
    used, pivots, remaining = echelon_rows(ops, rows, len(rows[0]))
    rows[:] = [rows[i] for i in used + remaining]
    for r in range(len(used) - 1, 0, -1):
        _clear(ops[2], rows[r], pivots[r], rows, range(r))
    return len(used), tuple(pivots)


RrefResult = namedtuple("RrefResult", "matrix rank pivots")


def rref(M: FqMatrix) -> RrefResult:
    rows = M.to_rows()
    rank, pivots = rref_rows(M.field, rows)
    return RrefResult(FqMatrix(M.field, M.rows, M.cols, tuple(e for r in rows for e in r)),
                      rank, pivots)


def rank(M: FqMatrix) -> int:
    return len(echelon_rows(row_ops(M.field), M.to_rows(), M.cols)[0])


def inverse(M: FqMatrix) -> FqMatrix:
    if M.rows != M.cols:
        raise ValueError("inverse needs a square matrix")
    n = M.rows
    aug = [list(M.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    _, pivots = rref_rows(M.field, aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return FqMatrix.from_rows(M.field, [row[n:] for row in aug])


def right_divide(A: FqMatrix, B: FqMatrix) -> FqMatrix:
    """A B^-1 from one rref_rows of [B^T | A^T], since X B = A is B^T X^T = A^T: no
    inverse, no product.  A singular B raises ZeroDivisionError, as inverse does."""
    if A.field != B.field:
        raise FieldMismatchError("matrices over different fields")
    if B.rows != B.cols or A.cols != B.rows:
        raise ValueError("right division needs a square divisor as wide as the dividend")
    n = B.rows
    aug = [list(B.col(i) + A.col(i)) for i in range(n)]
    _, pivots = rref_rows(B.field, aug)
    if pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    cols = [row[n:] for row in aug]  # X^T: row j is column j of X
    return FqMatrix(B.field, A.rows, n, tuple(c[i] for i in range(A.rows) for c in cols))


@record
class Subspace:
    """Subspace of F_q^K held as canonical rref basis rows (tuple of tuples)."""

    field: FieldSpec
    ambient_dim: int
    vectors: tuple

    def __post_init__(self):
        if type(self.ambient_dim) is not int:  # refuses bool and 2.0
            raise TypeError(f"ambient dimension {self.ambient_dim!r} is not an integer")
        if self.ambient_dim < 0:
            raise ValueError(f"ambient dimension {self.ambient_dim} is negative")

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
        return complement(cls.trivial(field, ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> FqMatrix:
        """K x dim matrix whose columns are the canonical basis vectors."""
        return FqMatrix.from_rows(
            self.field,
            [[v[i] for v in self.vectors] for i in range(self.ambient_dim)])

    def _spans_all(self, vectors) -> bool:
        """Whether vectors, each ambient_dim long, lie in the subspace: they keep the rank."""
        rows = [list(r) for r in self.vectors] + [list(v) for v in vectors]
        return len(echelon_rows(row_ops(self.field), rows, self.ambient_dim)[0]) == self.dim

    def contains_vector(self, v) -> bool:
        v = list(v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatchError("vector length differs from ambient dimension")
        return self._spans_all([v])

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError("ambient dimensions differ")
        return self._spans_all(other.vectors)

    def enumerate_vectors(self):
        """All q^dim vectors of the subspace, zero first (desk scale only)."""
        return span_vectors(self.field, self.vectors, self.ambient_dim)


def span_columns(field: FieldSpec, basis, length: int) -> list:
    """Entry k of every sum_j c_j basis[j], at index sum_j c_j q^j, as one list per k < length.
    Prime fields sum integers mod p; others make q - 1 muls per basis entry, one add per entry."""
    q, add, mul = field.q, field.add, field.mul
    cols = [[0] for _ in range(length)]
    for bvec in basis:
        for k, (col, x) in enumerate(zip(cols, bvec)):
            if field.m == 1:
                cols[k] = [(y + s) % q for s in [c * x for c in range(q)] for y in col]
            else:
                cols[k] = col + [add(y, s) for s in [mul(c, x) for c in range(1, q)] for y in col]
    return cols


def span_vectors(field: FieldSpec, basis, length: int) -> list:
    """Every sum_k c_k basis[k] at index sum_k c_k q^k, span_columns read row by row: the
    order depends only on the coefficients, so the basis's images under a linear map give theirs."""
    return list(zip(*span_columns(field, basis, length))) or [()] * field.q ** len(basis)


def subspace_sum(spaces) -> Subspace:
    spaces = list(spaces)
    first = spaces[0]
    for s in spaces[1:]:
        if s.ambient_dim != first.ambient_dim or s.field != first.field:
            raise AmbientMismatchError("subspace sum needs one ambient space")
    vectors = [v for s in spaces for v in s.vectors]
    return Subspace.from_vectors(first.field, first.ambient_dim, vectors)


def _units(n: int, skip) -> tuple:
    """The unit vectors e_j of length n, j not in skip, in increasing order: a canonical basis."""
    return tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n) if j not in skip)


def _pivots(B: Subspace) -> list:
    """The pivot column of each canonical basis row of B: its first nonzero entry."""
    return [next(i for i, x in enumerate(v) if x) for v in B.vectors]


def _null_vectors(field: FieldSpec, rows, pivots, n: int) -> list:
    """e_j - sum_k rows[k][j] e_(pivots[k]) for each column j < n outside pivots: with rows
    reduced, row k leading at pivots[k], a basis of their null space."""
    at = dict(zip(pivots, rows))
    return [[field.neg(at[i][j]) if i in at else 1 if i == j else 0 for i in range(n)]
            for j in range(n) if j not in at]


def kernel_basis(M: FqMatrix) -> Subspace:
    """Right null space {v : M v = 0}, read off M's reduced rows."""
    rows = M.to_rows()
    _, pivots = rref_rows(M.field, rows)
    return Subspace.from_vectors(M.field, M.cols, _null_vectors(M.field, rows, pivots, M.cols))


def complement(B: Subspace) -> Subspace:
    """Deterministic complement: standard basis vectors at non-pivot positions."""
    return Subspace(B.field, B.ambient_dim, _units(B.ambient_dim, _pivots(B)))


def quotient_map(B: Subspace) -> FqMatrix:
    """Surjection Q: F_q^K -> F_q^(K-dim B) with kernel exactly B.

    Writing x = b + w with b in B and w in the standard complement, Q reads
    off w's coordinates, so Q restricted to complement(B) is the identity.
    Its rows are _null_vectors of B's canonical rows, so Q b = 0 for b in B.
    """
    K = B.ambient_dim
    rows = _null_vectors(B.field, B.vectors, _pivots(B), K)
    return FqMatrix(B.field, len(rows), K, tuple(e for row in rows for e in row))

