"""Matrix sets with the genus-g universal decodability property.

A set of L matrices over F_q, each with K rows, is universally decodable of
genus g when every allowable choice of initial-column prefixes (lambda_i
columns from matrix i, 0 <= lambda_i <= N_i, sum = K + g) spans F_q^K.
This module holds the data model, exhaustive verification, minimal-genus
search, truncation, the subspace-chain realization, and chain quotients.
Rank is tested on images: the scan carries the values at every column ahead
of the functionals vanishing on the chosen columns, which span F_q^K once
none is left.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import (
    HypothesisUnmetError,
    InvalidInputError,
    LengthMismatchError,
    NotProperSubError,
)
from .fields import FieldSpec, row_ops
from .linalg import (
    FqMatrix,
    Subspace,
    quotient_map,
    rref_rows,
)
from .records import record


def _check_height_and_genus(K, g) -> None:
    """The height and genus rule of Udmg and Udvsg alike."""
    if type(K) is not int or type(g) is not int:  # refuses bool and 3.0, not coerced
        raise TypeError(f"K = {K!r} and g = {g!r} must be integers")
    if g < 0:
        raise ValueError("genus must be non-negative")
    if K < 0:
        raise ValueError("height K must be non-negative")


@record
class Udmg:
    """An ordered set of K-row matrices over one field with a declared genus.

    The declared genus is a claim, not necessarily minimal; verify() checks it.
    """

    field: FieldSpec
    K: int
    g: int
    matrices: tuple

    def __post_init__(self):
        _check_height_and_genus(self.K, self.g)
        for M in self.matrices:
            if M.rows != self.K:
                raise LengthMismatchError("matrix height differs from K")
            if M.field != self.field:
                raise LengthMismatchError("matrix over the wrong field")

    @property
    def L(self) -> int:
        return len(self.matrices)

    @property
    def lengths(self) -> tuple:
        return tuple(M.cols for M in self.matrices)

    @property
    def total_length(self) -> int:
        return sum(self.lengths)

    @property
    def is_square(self) -> bool:
        return all(n == self.K for n in self.lengths)

    @property
    def is_nondegenerate(self) -> bool:
        bound = self.K + self.g
        return (self.total_length >= bound
                and all(n <= bound for n in self.lengths)
                and self.K >= 2)

    def with_genus(self, g: int) -> "Udmg":
        return Udmg(self.field, self.K, g, self.matrices)


@record
class VerifyReport:
    valid: bool
    witness: tuple | None
    checked: int
    vacuous: bool = False


def allowable_vectors(lengths, K: int, g: int):
    """Capped compositions of K + g, in lexicographic order."""
    total = K + g
    L = len(lengths)

    def rec(i, remaining, prefix):
        if i == L:
            if remaining == 0:
                yield tuple(prefix)
            return
        tail_cap = sum(lengths[i + 1:])
        lo = max(0, remaining - tail_cap)
        hi = min(lengths[i], remaining)
        for v in range(lo, hi + 1):
            prefix.append(v)
            yield from rec(i + 1, remaining - v, prefix)
            prefix.pop()

    if total < 0:
        return iter(())
    return rec(0, total, [])


def _spans(u: Udmg, lam) -> bool:
    """Rank test of one allowable vector; the oracle verify_naive uses it.

    The chosen columns are ranked as rows, since rank is transpose-invariant.
    """
    rows = [list(M.col(j)) for M, k in zip(u.matrices, lam) for j in range(k)]
    return rref_rows(u.field, rows)[0] == u.K


def _count_allowable(lengths, total: int) -> int:
    """Number of allowable vectors: a member of n steps sums windows of n + 1 counts, by
    running sums.  A total negative or past sum(lengths) allows none, at once."""
    if not 0 <= total <= sum(lengths):
        return 0
    ways = [1] + [0] * total
    for n in lengths:
        run = list(accumulate(ways))
        ways = run[:n + 1] + [a - b for a, b in zip(run[n + 1:], run)]
    return ways[total]


def _images(K: int, matrices) -> list:
    """The scan's root rows: row r holds row r of every member, so entry c is coordinate r
    of the c-th column, members in order."""
    return [[x for M in matrices for x in M.row(r)] for r in range(K)]


def _scan(field: FieldSpec, K: int, g: int, matrices) -> VerifyReport:
    """Rank check of every allowable vector, sharing work between prefixes.

    Allowable vectors are walked depth-first in lexicographic order, one column a
    step.  Each depth carries K - rank rows, the images of every column from
    member i on under functionals vanishing on the span so far (at the root,
    _images' coordinates).  A new column's first nonzero row is the pivot and
    is dropped, each later row nonzero there takes one axpy, and a dependent
    column none.  A descent slices off the member left (at three rows, where no
    row is updated again, it moves the column offset at instead).  Once k <= 2
    rows are left, the subtree is decided in one pass: a completion fails iff
    its images lie on one line of F_q^k (k = 1: are all zero).  The 3 -> 2
    elimination hands the tail the pivot row and factors, and the tail forms
    each image it reads by sub_mul.  Over each member's columns, capped at the
    budget R left, a counts the leading zero images and, for k = 2, the first
    nonzero image fixes the one line the member can stay on (keyed by slope, -1
    if vertical) and e counts the columns on it, up to the first image off it.
    It fails iff sum(a) plus the e on some line reaches R; the least failure,
    over such lines, takes from each member only what later ones cannot cover.
    Slopes and row updates are fields.row_ops', built once per scan: no image
    is a dot product.
    """
    lengths = [M.cols for M in matrices]
    checked = _count_allowable(lengths, K + g)
    if not checked:
        return VerifyReport(True, None, 0, vacuous=True)
    mul, div, axpy, sub_mul = row_ops(field)
    L = len(matrices)
    tails = [sum(lengths[i:]) for i in range(L + 1)]
    starts = [0, *accumulate(lengths)]  # starts[i]: the root's first entry of member i
    blank = [0] * starts[-1]  # the pivot row of a tail with no elimination left to apply

    def tail(i, v, rows, remaining, at, pivot=blank, fs=(0, 0)):
        """Least failing completion with member i at offset v, given k <= 2 rows less fs * pivot."""
        if not rows:
            return None
        budget, line = remaining - v, len(rows) == 2
        (phi, psi), (f, h) = (rows if line else (rows[0], blank)), fs
        prof, o, zeros, along = [], v, 0, {}
        for j in range(i, L):
            base, slope, top = starts[j] - at, None, min(lengths[j], o + budget)
            for c in range(base + o, base + top):
                x, y = phi[c], psi[c]
                if t := pivot[c]:
                    x, y = sub_mul(x, f, t), sub_mul(y, h, t)
                if not (x or y):
                    continue
                if slope is None and line:
                    slope, first = (div(y, x) if x else -1), c - base
                elif not line or (x if slope == -1 else mul(slope, x) != y):
                    top = c - base  # a nonzero image for k = 1, or one off the line
                    break
            a = (top if slope is None else first) - o
            prof.append((a, top - o - a, slope))
            zeros, along[slope], o = zeros + a, along.get(slope, 0) + top - o - a, 0
        best = None
        for slope, run in along.items():
            if zeros + run < budget:
                continue
            z = [a + (e if s == slope else 0) for a, e, s in prof]
            rest, room, lam = budget, sum(z), []
            for j, zj in enumerate(z):
                room -= zj
                x = max(0, rest - room)
                rest -= x
                lam.append((0 if j else v) + x)
            best = min(best or lam, lam)
        return None if best is None else tuple(best)

    def walk(i, rows, remaining, at):
        """Least failing completion from member i on, or None, given k >= 3 rows."""
        if remaining == 0:
            return (0,) * (L - i)
        base = starts[i] - at
        for v in range(min(lengths[i], remaining) + 1):
            if v:
                c = base + v - 1
                for k, pivot in enumerate(rows):
                    if t := pivot[c]:  # else the column is dependent
                        fs = [div(d, t) if (d := row[c]) else 0 for row in rows[k + 1:]]
                        if len(rows) == 3 and any(fs):
                            return tail(i, v, rows[:k] + rows[k + 1:], remaining, at, pivot, [0] * k + fs)
                        rows = rows[:k] + [axpy(f, pivot, row) if f else row
                                           for f, row in zip(fs, rows[k + 1:])]
                        if len(rows) == 2:
                            return tail(i, v, rows, remaining, at)
                        break
            if v >= remaining - tails[i + 1]:
                cut = starts[i + 1] - at if len(rows) > 3 else 0
                rest = walk(i + 1, [row[cut:] for row in rows] if cut else rows, remaining - v, at + cut)
                if rest is not None:
                    return (v,) + rest
        return None

    rows = _images(K, matrices)
    witness = tail(0, 0, rows, K + g, 0) if K <= 2 else walk(0, rows, K + g, 0)
    walk = None  # walk's own closure cell holds walk: cleared, the scan is freed without gc
    return VerifyReport(witness is None, witness, checked)


def verify(u: Udmg, threads: int = 1) -> VerifyReport:
    """Check every allowable vector; the witness is the least failure.

    threads is accepted for compatibility and ignored.
    """
    return _scan(u.field, u.K, u.g, u.matrices)


_verify_fast = verify  # every scan of the genus search, by the name perfbench/tracer.py spans


def verify_naive(u: Udmg) -> VerifyReport:
    """Oracle variant: checks every capped vector with sum >= K + g.

    Column supersets cannot lose rank, so this must agree with verify(); the
    equivalence of the two enumerations is asserted by tests, not assumed.
    """
    lengths = u.lengths
    total = u.total_length
    target = u.K + u.g
    checked = 0
    failures = []
    for s in range(target, total + 1):
        for lam in allowable_vectors(lengths, s, 0):
            checked += 1
            if not _spans(u, lam):
                failures.append(lam)
    if total < target:
        return VerifyReport(True, None, 0, vacuous=True)
    if failures:
        return VerifyReport(False, min(failures), checked)
    return VerifyReport(True, None, checked)


def minimal_genus(u: Udmg, valid_at: int | None = None, start: int = 0) -> tuple:
    """Least genus at which the matrices verify, plus a vacuity flag.

    The declared genus of u is ignored.  Validity is monotone in the genus,
    and once K + g exceeds the total length the check is vacuous, so the scan
    terminates.  A caller that already knows a genus valid_at to verify, or
    every genus below start to fail, passes it, and those genera are not
    scanned again.  The search, _least_genus, is codes.min_distance's too.
    """
    g, _ = _least_genus(u, valid_at, start)
    return g, u.K + g > u.total_length


def _least_genus(u: Udmg, valid_at: int | None = None, start: int = 0) -> tuple:
    """(g, failed): the least genus g >= start at which u verifies, or valid_at once
    reached; failed is the report of the failing scan at g - 1, None when g == start."""
    g, failed = start, None
    while g != valid_at and not (rep := _verify_fast(u.with_genus(g))).valid:
        g, failed = g + 1, rep
    return g, failed


def truncate(u: Udmg, new_lengths) -> Udmg:
    """Keep the first N'_i columns of each matrix, dropping emptied matrices."""
    new_lengths = tuple(new_lengths)
    if len(new_lengths) != u.L:
        raise LengthMismatchError("truncation vector has wrong length")
    for n, old in zip(new_lengths, u.lengths):
        if not 0 <= n <= old:
            raise LengthMismatchError(f"cannot keep {n} of {old} columns")
    kept = tuple(M.prefix_cols(n) for M, n in zip(u.matrices, new_lengths) if n > 0)
    return Udmg(u.field, u.K, u.g, kept)


# -- vector space realization -------------------------------------------------

@record
class Chain:
    """Ordered nested subspaces V_1 <= ... <= V_N of one ambient space."""

    subspaces: tuple

    def __post_init__(self):
        if not self.subspaces:
            raise ValueError("a chain has at least one subspace")

    @property
    def length(self) -> int:
        return len(self.subspaces)

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    @property
    def dims(self) -> tuple:
        return tuple(V.dim for V in self.subspaces)

    def is_closely_nested(self) -> bool:
        dims = self.dims
        if dims[0] > 1 or any(not 0 <= b - a <= 1 for a, b in zip(dims, dims[1:])):
            return False
        return all(b.contains(a) for a, b in zip(self.subspaces, self.subspaces[1:]))


@record
class Udvsg:
    """Coordinate-free form: one closely nested chain per matrix, the only chains of
    F_q^K that a matrix's column-prefix spans make (chain_matrix builds one)."""

    field: FieldSpec
    K: int
    g: int
    chains: tuple

    def __post_init__(self):
        _check_height_and_genus(self.K, self.g)
        for chain in self.chains:
            foreign = any(V.field != self.field or V.ambient_dim != self.K for V in chain.subspaces)
            if foreign or not chain.is_closely_nested():
                raise InvalidInputError(f"no matrix of height {self.K} over the collection's field"
                                        f" realizes the chain of dimensions {chain.dims}")

    @property
    def L(self) -> int:
        return len(self.chains)

    @property
    def lengths(self) -> tuple:
        return tuple(c.length for c in self.chains)


def realize(u: Udmg) -> Udvsg:
    """Chains of spans of column prefixes, one per matrix; a matrix with no columns has none."""
    chains = []
    for i, M in enumerate(u.matrices):
        if not M.cols:
            raise HypothesisUnmetError(f"matrix {i} has no columns, so no chain")
        cols = [M.col(j) for j in range(M.cols)]
        chains.append(Chain(tuple(Subspace.from_vectors(u.field, u.K, cols[:j])
                                  for j in range(1, M.cols + 1))))
    return Udvsg(u.field, u.K, u.g, tuple(chains))


def prune(chain: Chain, mode: str = "reduced") -> Chain:
    """Drop leading zero subspaces; irredundant mode also drops repeats."""
    if mode not in ("reduced", "irredundant"):
        raise ValueError("mode is 'reduced' or 'irredundant'")
    subs = [V for V in chain.subspaces if V.dim > 0]
    if mode == "irredundant":
        out = []
        for V in subs:
            if not out or V != out[-1]:
                out.append(V)
        subs = out
    if not subs:
        subs = [chain.subspaces[-1]]  # all-zero chain reduces to its last entry
    return Chain(tuple(subs))


def verify_chains(v: Udvsg) -> VerifyReport:
    """UDVSG check: allowable partial sums of chain subspaces fill F_q^K, read off the
    matrix realization, whose column-prefix spans the chains are."""
    return verify(matrices_from_chains(v))


@record
class QuotientResult:
    quotient: Udvsg
    d: int
    r: int
    B_dim: int


def quotient(v: Udvsg, truncation, check: bool = True) -> QuotientResult:
    """Quotient of a chain collection by the proper sub-collection at truncation.

    On the matrix realization M_i: B, the sum of the truncated heads V^i_{N'_i}, is the
    span of the first N'_i columns of each M_i.  Q kills B, so Q M_i less those columns
    realizes the image chain Q(V^i_{N'_i + 1}) <= ..., and realize returns the chains:
    parameters (L, N - N', d + r, q, g - d), where dim B = (K - r) - d.
    """
    truncation = tuple(truncation)
    if len(truncation) != v.L:
        raise NotProperSubError("truncation vector has wrong length")
    for n, old in zip(truncation, v.lengths):
        if type(n) is not int:  # refuses bool and 1.0, as Udmg and FqMatrix do
            raise TypeError(f"truncated length {n!r} is not an integer")
        if not 0 <= n < old:
            raise NotProperSubError("each truncated length must stay below the original")
    if check and not (rep := verify_chains(v)).valid:
        raise InvalidInputError("input fails verification at its declared genus")

    u = matrices_from_chains(v)
    B = Subspace.from_vectors(v.field, v.K, [M.col(j) for M, n in zip(u.matrices, truncation)
                                             for j in range(n)])
    r = max(v.K - sum(truncation), 0)
    d = (v.K - r) - B.dim
    if check and not 0 <= d <= min(v.K - r, v.g):
        if rep.vacuous:  # valid only for want of allowable vectors: the law does not hold
            raise InvalidInputError(f"input is valid only vacuously (total length below K + g ="
                                    f" {v.K + v.g}), and its quotient defect {d} passes g = {v.g}")
        raise AssertionError("quotient defect outside the guaranteed range")
    Q = quotient_map(B)
    mats = tuple(FqMatrix(v.field, Q.rows, M.cols - n, tuple(  # explicit shape: Q may have no rows
        v.field.dot(Q.row(i), M.col(j)) for i in range(Q.rows) for j in range(n, M.cols)))
        for M, n in zip(u.matrices, truncation))
    out = Udmg(v.field, d + r, v.g - d, mats)  # d > g, unchecked, is refused here
    if check and not verify(out).valid:
        raise AssertionError("quotient failed re-verification")
    return QuotientResult(realize(out), d, r, B.dim)


def chain_matrix(chain: Chain, field: FieldSpec) -> FqMatrix:
    """A matrix whose column-prefix spans realize the chain.

    Dimension jumps contribute the first canonical basis vector of the larger
    space outside the smaller one; repeats contribute a zero column, which
    lies in the current space as required.
    """
    K = chain.ambient_dim
    cols, prev = [], Subspace.trivial(field, K)
    for V in chain.subspaces:
        cols.append((0,) * K if V.dim == prev.dim
                    else next(r for r in V.vectors if not prev.contains_vector(r)))
        prev = V
    return FqMatrix(field, K, len(cols), tuple(c[i] for i in range(K) for c in cols))


def matrices_from_chains(v: Udvsg) -> Udmg:
    """Any matrix-set realization of the chain collection (up to isomorphism)."""
    mats = tuple(chain_matrix(c, v.field) for c in v.chains)
    return Udmg(v.field, v.K, v.g, mats)
