"""Linear vector codes attached to decodable matrix sets, plus size bounds.

The first-column code of a valid matrix set with L >= K + g members is an
[L, K] code of Singleton defect at most g.  Its n columns, read as one-column
matrices, verify at genus g' exactly when d >= n - k + 1 - g', so the least
such g' (at most g), found by core's genus search as minimal_genus's is, gives
d = n - k + 1 - g'; one codeword, whose message spans the kernel
(linalg.kernel_basis) of the columns of the search's failing witness at g' - 1,
certifies that d is attained.  Any other full-rank code is valid at genus n - k,
so min_distance reads every code this way.  The bounds report collects all the
arithmetic caps on L in terms of (K, q, g) and the lengths.
"""

from __future__ import annotations

import math

from .core import Udmg, _least_genus, _verify_fast
from .errors import (
    HypothesisUnmetError,
    InvalidInputError,
    RankDeficientError,
    TooLargeError,
    TooShortError,
)
from .linalg import FqMatrix, first_columns, kernel_basis, rank
from .records import record

MAX_PARTITION_BITS = 100_000  # cap on the bits of the partition bound's right-hand side


@record
class LinearCode:
    """[n, k] code given by a full-rank generator matrix; d filled on demand."""

    field: object
    n: int
    k: int
    generator: FqMatrix
    d: int = None

    def __post_init__(self):
        if self.generator.rows != self.k or self.generator.cols != self.n:
            raise ValueError("generator shape disagrees with (k, n)")

    @property
    def defect(self) -> int:
        if self.d is None:
            raise ValueError("minimum distance not computed yet")
        return self.n + 1 - self.d - self.k


def min_distance(code: LinearCode, valid_at: int | None = None) -> int:
    """Minimum Hamming weight over the nonzero codewords; 0 if G is rank deficient.

    The columns of G, read as n one-column matrices, verify at genus g' exactly
    when d >= n - k + 1 - g'.  valid_at is a genus at which they are known to
    verify (the convention of core.minimal_genus); it defaults to n - k, where
    every full-rank G does.  core's genus search scans genera 0, 1, ... below
    it up to the first valid one, g', and d = n - k + 1 - g'.  Its failing witness
    at g' - 1 (any k - 1 columns when g' = 0) leaves one message y up to scale
    whose codeword vanishes on it: the kernel (linalg.kernel_basis) of the
    matrix whose rows are the witness columns.  AssertionError is raised unless
    y*G has weight d, which proves d attained, while validity at g' bounds
    every weight below.  The zero code (k = 0) reads n + 1.
    """
    f, n, k, G = code.field, code.n, code.k, code.generator
    if valid_at is not None and valid_at < 0:
        raise ValueError("valid_at must be a non-negative genus")
    if rank(G) < k:
        return 0
    if k == 0:
        return n + 1
    cols = [G.col(j) for j in range(n)]
    ones = Udmg(f, k, 0, tuple(FqMatrix(f, k, 1, c) for c in cols))
    g, failed = _least_genus(ones, n - k if valid_at is None else valid_at)
    zeros = [j for j, v in enumerate(failed.witness) if v] if failed else range(k - 1)
    d = n - k + 1 - g
    witness = FqMatrix(f, len(zeros), k, tuple(e for j in zeros for e in cols[j]))
    y = kernel_basis(witness).vectors[0]
    weight = n - G.vecmat(y).count(0)
    if weight != d:
        raise AssertionError(f"certificate codeword has weight {weight}, not d = {d}")
    return d


def first_column_code(u: Udmg, compute_distance: bool = True,
                      verified: bool = False) -> LinearCode:
    """[L, K] code generated by the first columns of a valid matrix set.

    Requires L >= K + g and a column in every member; the generator then has
    rank K, which is asserted.  The first columns verify at genus g too, so
    min_distance scans only the genera below g and the Singleton defect is at
    most g.  verified=True skips the scan of a set the caller has already
    verified at its genus.
    """
    if u.K < 1:
        raise HypothesisUnmetError("a code needs K >= 1")
    if u.L < u.K + u.g:
        raise TooShortError(f"need L >= K + g = {u.K + u.g}, have {u.L}")
    empty = next((j for j, M in enumerate(u.matrices) if M.cols == 0), None)
    if empty is not None:
        raise HypothesisUnmetError(f"matrix {empty} has no columns, so no first column")
    if not (verified or _verify_fast(u).valid):
        raise InvalidInputError("matrix set fails verification at its genus")
    G = first_columns(u.matrices)
    if rank(G) != u.K:
        raise RankDeficientError("first-column generator is rank deficient")
    code = LinearCode(u.field, u.L, u.K, G)
    if compute_distance:
        # every allowable choice of first columns is one of the set's own
        code = LinearCode(u.field, u.L, u.K, G, min_distance(code, valid_at=u.g))
    return code


def duplicated(u: Udmg, g: int) -> Udmg:
    """Repeat each matrix of a genus-0 set g+1 times, declaring genus g.

    This is the sharpness construction: applied to a (q+1, 2, 2, q, 0) set it
    meets the class-1 cap (g+1)(q+1) with equality.
    """
    if u.g != 0:
        raise HypothesisUnmetError("duplication starts from a genus-0 set")
    if g < 0:
        raise ValueError("genus must be non-negative")
    mats = tuple(M for M in u.matrices for _ in range(g + 1))
    return Udmg(u.field, u.K, g, mats)


@record
class BoundReport:
    """Arithmetic caps on the size L of a nondegenerate matrix set.

    defect_bound      : L <= K - 2 + (g+1)(q+1), always applicable (K >= 2).
    class1_bound      : L <= (g+1)(q+1) when sum(N_i - 1) >= K - 2.
    class2_range      : (g+3, floor((K-2)/(gamma-1))) otherwise.
    partition_bound   : largest L with C(K-2+L, K-1) <= C(K+g-1, K-1)(q^K-1)/(q-1),
                        valid when every N_i >= K - 1.
    asmds_bound       : length cap n <= k - 2 + (q+1)(s+1) for an [n, k] code of
                        Singleton defect s (reported when n, k, s are supplied).
    """

    K: int
    q: int
    g: int
    lengths: tuple
    defect_bound: int
    code_class: int  # 1, 2, or 0 when no length vector qualifies
    class1_bound: int
    class2_range: tuple
    gamma: int
    partition_bound: int
    asmds_bound: int
    asmds_holds: bool
    notes: tuple


def _iroot(n: int, m: int) -> int:
    """Largest x with x^m <= n, for n >= 0 and m >= 1.

    A root of at most 64 bits is bisected.  A longer one starts Newton's step
    from above, at the root of n's top half shifted back, so a few steps end it.
    """
    b = -(-n.bit_length() // m)  # the root is below 2^b
    if b <= 64:
        lo, hi = 0, 1 << b
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid ** m <= n else (lo, mid)
        return lo
    t = b // 2
    x = (_iroot(n >> (m * t), m) + 1) << t
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def partition_bound(K: int, q: int, g: int) -> int:
    """Largest L with C(K-2+L, K-1) <= rhs = C(K+g-1, K-1)(q^K-1)/(q-1).

    The count rises with L, and L = 1 always passes, so L is bracketed between
    one L that passes and one that fails.  With m = K - 1, m! C(K-2+L, m) is
    L (L+1) ... (L+m-1), between L^m and (L+m-1)^m, so L <= rhs^(1/m) m has
    at most 64 + log2(m) + 1 bits when rhs has at most 64 m; there doubling
    brackets it.  Else the integer m-th root r of m! rhs brackets it: L lies in
    [r - m + 1, r].  Bisection narrows the bracket to 1024, and the count is
    then stepped up one L at a time, C(K-1+L, m) = C(K-2+L, m) (K-1+L) / L.
    Inputs whose rhs could pass MAX_PARTITION_BITS bits are refused.
    """
    if K < 2 or q < 2 or g < 0:
        raise HypothesisUnmetError("the partition bound needs K >= 2, q >= 2, g >= 0")
    m = K - 1
    if min(m, g) * (K + g - 1).bit_length() + K * (q - 1).bit_length() > MAX_PARTITION_BITS:
        raise TooLargeError("the partition bound's right-hand side may pass "
                            f"MAX_PARTITION_BITS = {MAX_PARTITION_BITS} bits")
    rhs = math.comb(K + g - 1, m) * (q ** K - 1) // (q - 1)

    def fits(L):
        return math.comb(K - 2 + L, m) <= rhs

    if rhs.bit_length() <= 64 * m:
        lo, hi = 1, 2
        while fits(hi):
            lo, hi = hi, 2 * hi
    else:
        r = _iroot(math.factorial(m) * rhs, m)
        lo, hi = max(1, r - m + 1), r + 1
    while hi - lo > 1024:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    count = math.comb(K - 2 + lo, m)
    while lo + 1 < hi:
        count = count * (K - 1 + lo) // lo
        if count > rhs:
            break
        lo += 1
    return lo


def bounds(K: int, q: int, g: int, lengths=None, nks=None) -> BoundReport:
    """Populate every applicable bound; unmet hypotheses are named in notes."""
    lengths, nks = (None if v is None else tuple(v) for v in (lengths, nks))
    if any(type(v) is not int for v in (K, q, g, *(lengths or ()), *(nks or ()))):
        raise TypeError("K, q, g, lengths and nks take integers only, not bool or float")
    if lengths == ():
        raise HypothesisUnmetError("lengths must hold at least one value")
    if nks is not None and len(nks) != 3:
        raise HypothesisUnmetError(f"nks must hold three values n, k, s, not {len(nks)}")
    if K < 2:
        raise HypothesisUnmetError("size bounds need K >= 2")
    if q < 2:
        raise HypothesisUnmetError("alphabet cardinality must be >= 2")
    if g < 0:
        raise HypothesisUnmetError("genus must be >= 0")
    notes = []
    defect_bound = K - 2 + (g + 1) * (q + 1)
    code_class = 0
    class1 = (g + 1) * (q + 1)
    class2 = None
    gamma = 0
    part = None
    if lengths is not None:
        if any(n < 1 for n in lengths):
            raise HypothesisUnmetError("lengths must be positive")
        gamma = min(lengths)
        if gamma < 2:
            notes.append("class split needs every N_i >= 2")
        else:
            code_class = 1 if sum(n - 1 for n in lengths) >= K - 2 else 2
            if code_class == 2:
                class2 = (g + 3, (K - 2) // (gamma - 1))
        if gamma >= K - 1:
            part = partition_bound(K, q, g)
        else:
            notes.append("partition bound needs every N_i >= K - 1")
    else:
        notes.append("no length vector supplied; class bounds not evaluated")
    asmds = 0
    asmds_holds = True
    if nks is not None:
        n, k, s = nks
        if s < 0:
            raise HypothesisUnmetError("Singleton defect must be >= 0")
        asmds = k - 2 + (q + 1) * (s + 1)
        asmds_holds = n <= asmds
    return BoundReport(
        K=K, q=q, g=g, lengths=lengths or (),
        defect_bound=defect_bound,
        code_class=code_class,
        class1_bound=class1,
        class2_range=class2 or (),
        gamma=gamma,
        partition_bound=part if part is not None else 0,
        asmds_bound=asmds,
        asmds_holds=asmds_holds,
        notes=tuple(notes))
