"""Gapped PAM modulation and square-matrix-set coding schemes, audited exactly.

All modulation arithmetic is exact.  The PAM value is defined in integer
form: scaled_weights gives W_i, _scaled_form the coefficients C_k and the
offset, and mu0_scaled the value 2qN * mu0.  The public Fractions (weights,
mu0) divide those integers, and the audits run on them directly, so no
inequality can be blurred by rounding.

Orientation note: a message row vector v is encoded per subchannel as v * M_i
(vector times matrix).  With that orientation, two distinct messages whose
encodings agree in long prefixes would exhibit an allowable column set of the
matrix family that fails to span, so validity of the matrix set caps the
total agreement sum at N + g - 1.  That cap is what the product-distance
audit leans on.  Encoding is linear, so two messages agree on a channel in
exactly the leading zeros of their difference's encoding: the audit reads
every pair's agreement off the nonzero messages' own encodings and seeks the
least product one difference class at a time.  Each message's scaled value,
agreement and class bound on a channel are looked up in tables over the
symbols of a block of coordinates (_block_tables), built once per audit and
shared by every channel.  The gap lemma it rests on is an exact identity in
the weights, checked once per modulator (_lex_steps).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from itertools import compress
from operator import add, mul, sub

from .core import Udmg, verify
from .errors import (
    EqualInputsError,
    HypothesisUnmetError,
    InvalidInputError,
    NotSquareError,
    SymbolOutOfRangeError,
    TooLargeError,
)
from .linalg import Subspace, complement, kernel_basis, span_columns, subspace_sum
from .records import record

MAX_PAIR_SQUARE = 1 << 24


@record
class Modulator:
    """Weighted q^N-PAM over symbol vectors in {0, ..., q-1}^N.

    Weight i (1-based symbol position) is W_i/(qN) = 1 + ((q-1)(N+1-i)+1)/(qN),
    which always lies in [1, 2]; the weights open a gap of more than q^(N-m-1)/N
    between modulated vectors that agree in exactly their first m symbols
    (the gap lemma, _lex_steps).
    """

    q: int
    N: int

    def __post_init__(self):
        if type(self.q) is not int or type(self.N) is not int:  # refuses bool and 2.5, not coerced
            raise TypeError(f"q = {self.q!r} and N = {self.N!r} must be integers")
        if self.q < 2:
            raise ValueError("alphabet needs q >= 2")
        if self.N < 1:
            raise ValueError("block length needs N >= 1")

    @property
    def weights(self) -> tuple:
        w = tuple(Fraction(W, self.q * self.N) for W in self.scaled_weights())
        assert all(1 <= wi <= 2 for wi in w)
        return w

    def scaled_weights(self) -> tuple:
        """Integer weights W_i = qN + (q-1)(N+1-i) + 1, which define weights as W_i/(qN)."""
        q, N = self.q, self.N
        return tuple(q * N + (q - 1) * (N + 1 - i) + 1 for i in range(1, N + 1))

    def check_symbols(self, a) -> tuple:
        a = tuple(a)
        if len(a) != self.N:
            raise SymbolOutOfRangeError(f"expected {self.N} symbols")
        for x in a:
            if type(x) is not int:  # refuses bool and 1.5, not coerced
                raise TypeError(f"symbol {x!r} is not an integer")
            if not 0 <= x < self.q:
                raise SymbolOutOfRangeError(f"symbol {x} outside [0, {self.q})")
        return a


def mu0(mod: Modulator, a) -> Fraction:
    """Exact gapped-PAM value of one symbol vector: mu0_scaled(a) / (2qN)."""
    return Fraction(mu0_scaled(mod, a), 2 * mod.q * mod.N)


def mu0_scaled(mod: Modulator, a) -> int:
    """2qN * mu0(a), always an integer; the audits' scaled value."""
    a = mod.check_symbols(a)
    C, offset = _scaled_form(mod)
    return 2 * sum(map(mul, C, a)) - offset


def _scaled_form(mod: Modulator) -> tuple:
    """(C, offset) with 2qN * mu0(a) = 2 sum_k C_k a_k - offset: C_k = q^(N-1-k) W_k."""
    q, N = mod.q, mod.N
    C = tuple(q ** (N - 1 - k) * w for k, w in enumerate(mod.scaled_weights()))
    return C, (q - 1) * sum(C)


@record
class GapCheck:
    agreement: int       # length of the common prefix
    gap: Fraction        # |mu0(a) - mu0(b)|
    floor: Fraction      # q^(N-m-1)/N
    passed: bool


def _common_prefix(a, b) -> int:
    m = 0
    for x, y in zip(a, b):
        if x != y:
            break
        m += 1
    return m


def gap_check(mod: Modulator, a, b) -> GapCheck:
    """Exact comparison of one pair against its gap floor (a theorem; a
    failure would flag an implementation bug)."""
    a = mod.check_symbols(a)
    b = mod.check_symbols(b)
    if a == b:
        raise EqualInputsError("gap check needs two distinct vectors")
    m = _common_prefix(a, b)
    gap = abs(mu0(mod, a) - mu0(mod, b))
    floor = Fraction(mod.q ** (mod.N - m - 1), mod.N)
    return GapCheck(m, gap, floor, gap > floor)


@record
class GapAudit:
    pairs_checked: int
    all_passed: bool
    min_gap_by_prefix: dict  # m -> exact minimum gap over pairs agreeing in m


def _lex_steps(mod: Modulator) -> list:
    """[step_m for m < N], the gap lemma checked: step_m is the scaled rise from any
    (p, x, (q-1)^(N-m-1)) to its lex successor (p, x + 1, 0^(N-m-1)), 2 (C_m - (q-1)
    sum_{k>m} C_k) with C from _scaled_form, and it must clear the scaled floor 2q^(N-m).

    With j = N-1-m and W_m = qN + (q-1)(j+1) + 1, C_m - (q-1) sum_{k>m} C_k =
    W_m + q^(j+1) - (j+1)q + j = q^(N-m) + qN, so step_m = 2q^(N-m) + 2qN always clears
    it.  A step that does not names its first neighbour pair in lex order (largest m).
    """
    q, N = mod.q, mod.N
    C, _ = _scaled_form(mod)
    steps = [2 * (C[m] - (q - 1) * sum(C[m + 1:])) for m in range(N)]
    for m in reversed(range(N)):
        if steps[m] <= 2 * q ** (N - m):
            a, b = (0,) * (m + 1) + (q - 1,) * (N - m - 1), (0,) * m + (1,) + (0,) * (N - m - 1)
            raise AssertionError(
                f"scaled step {steps[m]} from {a} to {b} misses its floor {2 * q ** (N - m)}")
    return steps


def gap_audit_exhaustive(mod: Modulator) -> GapAudit:
    """Every unordered pair of symbol vectors, decided in closed form from the N lex steps.

    Every step is positive, so the values rise in lex order and a pair with common prefix m
    spans a neighbour step with that prefix: the least gap at prefix m is step_m, which
    clears its floor (_lex_steps).
    """
    q, N = mod.q, mod.N
    n = q ** N
    return GapAudit(n * (n - 1) // 2, True,
                    {m: Fraction(step, 2 * q * N) for m, step in enumerate(_lex_steps(mod))})


# -- coding schemes --------------------------------------------------------------

@record
class CodeScheme:
    """Square-matrix-set scheme: messages live in a complement of the kernels.

    Encoding sends a message row vector v to (v M_1, ..., v M_L); each map is
    injective on the message space because the kernel span was quotiented
    away.  The rate is (N - delta) log2 q bits per timeslot.
    """

    udmg: Udmg
    modulator: Modulator
    kernels: tuple
    kernel_span: Subspace
    delta: int
    message_space: Subspace

    @property
    def N(self) -> int:
        return self.udmg.K

    @property
    def L(self) -> int:
        return self.udmg.L

    @property
    def rate_symbols(self) -> int:
        return self.N - self.delta

    @property
    def rate_bits(self) -> float:
        return self.rate_symbols * math.log2(self.udmg.field.q)

    def messages(self):
        return self.message_space.enumerate_vectors()

    def encode(self, v) -> list:
        """The L symbol vectors v * M_i."""
        return [M.vecmat(v) for M in self.udmg.matrices]


def build_scheme(u: Udmg, verified: bool = False) -> CodeScheme:
    """Check the square hypotheses, split off the kernel span, fix messages.

    verified=True skips the scan of a set already verified at its genus.
    """
    if u.K < 1:
        raise HypothesisUnmetError("scheme needs N = K >= 1")
    if not u.is_square:
        raise NotSquareError("scheme needs eta-regular square matrices with eta = K")
    N = u.K
    if u.L * (N - u.g) < N:
        raise HypothesisUnmetError(
            f"need L(N - g) >= N, have {u.L}*({N}-{u.g}) < {N}")
    if not (verified or verify(u).valid):
        raise InvalidInputError("matrix set fails verification at its genus")
    kernels = tuple(kernel_basis(M.transpose()) for M in u.matrices)
    for ker in kernels:
        if ker.dim > u.g:
            raise AssertionError("kernel dimension exceeded the genus")
    span = subspace_sum(kernels)
    if span.dim > u.g * u.L:
        raise AssertionError("kernel span exceeded g*L")
    W = complement(span)
    return CodeScheme(u, Modulator(u.field.q, N), kernels, span, span.dim, W)


@record
class ModulationBounds:
    alpha: Fraction
    beta: Fraction


def modulation_bounds(q: int, g: int, L: int) -> ModulationBounds:
    if q % 2 == 1:
        alpha = Fraction(L, 6 * q ** (2 * g * L + 2))
    else:
        alpha = Fraction(L, 2 * q ** (g * L + 4))
    return ModulationBounds(alpha, Fraction(L * q ** (L * g)))


@record
class SnrReport:
    snr: Fraction
    bounds: ModulationBounds
    lower: Fraction
    upper: Fraction
    within: bool


def snr(scheme: CodeScheme) -> SnrReport:
    """Exact average power over the message space, with its sandwich bounds.

    Channel i adds E[(sum_k C_k d(u_k))^2], u uniform on U_i = W M_i, C from _scaled_form,
    d(x) = 2x - (q-1); columns on one line give u_k = s_k y, y uniform; lines are independent.
    """
    f = scheme.udmg.field
    q, N, L = f.q, scheme.N, scheme.L
    C, _ = _scaled_form(scheme.modulator)
    images = [scheme.encode(v) for v in scheme.message_space.vectors]
    total = 0  # q times the mean of (2qN mu0)^2 over the messages, summed over channels
    for i in range(L):
        lines = {}  # normalised column -> [(C_k, s_k)]; zero columns (s_k = 0) share key None
        for k in range(N):
            col = [img[i][k] for img in images]
            lead = next((x for x in col if x), 0)
            key = tuple(f.div(x, lead) for x in col) if lead else None
            lines.setdefault(key, []).append((C[k], lead))
        for line in lines.values():  # E[d(u_k) d(u_l)] = 0 across lines, as E[d(y)] = 0
            total += sum(sum(c * (2 * f.mul(s, y) - q + 1) for c, s in line) ** 2 for y in range(q))
    value = Fraction(total, q * (2 * q * N) ** 2)
    b = modulation_bounds(q, scheme.udmg.g, L)
    lower = b.alpha * q ** (2 * N) / N ** 2
    upper = b.beta * q ** (2 * N)
    return SnrReport(value, b, lower, upper, lower <= value <= upper)


@record
class AuditReport:
    pairs_checked: int
    min_product: Fraction
    floor: Fraction
    passed: bool
    worst_pair: tuple
    max_agreement: int
    vacuous: bool


def audit_product_distance(scheme: CodeScheme) -> AuditReport:
    """Exact product-distance floor over every distinct message pair.

    For each pair the per-channel agreement lengths must sum to at most
    N + g - 1 (the matrix-set property in row orientation) and the product of
    squared modulated differences must clear q^(2(LN-(N+g-1)-L))/N^(2L).

    Nothing Python-level runs once per pair:
    - Encoding is linear, so only the basis messages are encoded, and a pair
      agrees on channel c in exactly the leading zeros of encode(v_j - v_i)[c]:
      the nonzero messages' own encodings give every agreement sum.
    - Symbols are built column-wise (span_columns) and read in blocks of w = dim(W)
      coordinates from N - 1 down, the last block maybe narrower (_read_messages): a
      block's symbols fold into one index (_block_index) into its tables (q^w <= n
      entries each, _block_tables), built once per audit and shared by the L channels,
      which give each message's scaled value, leading zeros and class bound with no
      symbol tuple.  The lowest block carries no tail, so at delta = 0 (one block) a
      channel costs one span, one fold and three lookups.
    - By the gap lemma, an identity (_lex_steps), distinct symbol vectors with
      common prefix m differ by more than q^(N-m-1)/N, so a pair with no equal
      channel symbols clears its own floor, the product of squared channel
      floors; one with equal symbols has product 0.  The audit passes iff the
      least product clears the floor.
    - The minimum product is found by difference class, in ascending order of
      a bound per class (_least_product); the least worst pair (i, j) is first.
    """
    q, N, L, g = scheme.modulator.q, scheme.N, scheme.L, scheme.udmg.g
    f = scheme.udmg.field
    if f.q ** (2 * scheme.message_space.dim) > MAX_PAIR_SQUARE:
        raise TooLargeError("message pair count exceeds the audit guard")
    n = f.q ** scheme.message_space.dim
    if n < 2:
        return AuditReport(0, Fraction(0), Fraction(0), True, (), 0, True)
    _lex_steps(scheme.modulator)
    C, offset = _scaled_form(scheme.modulator)
    images = [scheme.encode(b) for b in scheme.message_space.vectors]
    cols, lam, bounds = _read_messages(f, C, offset, scheme.message_space.dim, images)
    agreement_cap = N + g - 1
    max_agree = max(lam[1:])
    if max_agree > agreement_cap:  # message 0 is zero, so row 0 holds the first such pair
        k = next(k for k in range(1, n) if lam[k] > agreement_cap)
        raise AssertionError(f"agreement sum {lam[k]} exceeded N+g-1 for "
                             f"{_message(scheme, 0)} vs {_message(scheme, k)}")
    best, (wi, wj) = _least_product(f, scheme.message_space.dim, cols, bounds)
    scale = (2 * q * N) ** (2 * L)  # converts scaled integer products to mu0 units
    floor = Fraction(q) ** (2 * (L * N - (N + g - 1) - L)) / N ** (2 * L)
    min_product = Fraction(best * best, scale)
    return AuditReport(n * (n - 1) // 2, min_product, floor, min_product >= floor,
                       (_message(scheme, wi), _message(scheme, wj)), max_agree, False)


def _read_messages(field, C, offset, dim, images) -> tuple:
    """(cols, lam, bounds) for the messages sum_j c_j images[j] at index sum_j c_j q^j:
    cols[c] their scaled values on channel c, lam their leading zeros summed over the
    channels, bounds their class bounds multiplied over the channels (_least_product).

    Each channel's symbols are read block by block from coordinate N - 1 down, through
    tables built here once for every channel and dropped on return (_block_tables): a
    block folds its symbols into one index (_block_index) and looks up val, lead, bnd and,
    above the lowest block, tail, so at delta = 0 a channel costs one span, one fold and
    three lookups.  lam and bounds start as channel 0's lists.
    """
    q, N = field.q, len(C)
    top, *lower = _block_tables(field, C, offset, dim)
    cols = []
    for c in range(len(images[0])):
        syms = span_columns(field, [im[c] for im in images], N)
        a, b, *tables = top
        idx = _block_index(q, syms[a:b])
        val, lead, bnd, tail = (t and list(map(t.__getitem__, idx)) for t in tables)
        for a, b, tval, tlead, tbnd, ttail in lower:
            idx = _block_index(q, syms[a:b])
            val = list(map(add, val, map(tval.__getitem__, idx)))
            lead = [tlead[i] if i else z for i, z in zip(idx, lead)]  # first nonzero k
            bnd = [tbnd[i] - t if i else z for i, t, z in zip(idx, tail, bnd)]
            if ttail:  # None in the lowest block
                tail = list(map(add, tail, map(ttail.__getitem__, idx)))
        cols.append(val)
        lam, bounds = (list(map(add, lam, lead)), list(map(mul, bounds, bnd))) if c else (lead, bnd)
    return cols, lam, bounds


def _message(scheme, index) -> tuple:
    """scheme.messages()[index] without the list: sum_k c_k basis[k] for index sum_k c_k q^k."""
    space, q = scheme.message_space, scheme.modulator.q
    coeffs = [index // q ** k % q for k in range(space.dim)]
    return tuple(space.field.dot(coeffs, col) for col in zip(*space.vectors))


def _least_product(field, dim, cols, bounds) -> tuple:
    """(least |prod_c (t_i[c] - t_j[c])| over message pairs, least such (i, j), i < j).

    The pairs {v, v + d} of a nonzero message d form a class whose channel-c symbols
    differ by e = encode(d)[c]; with m the first nonzero entry of e, |t(a + e) - t(a)| >=
    2 (C_m lo(e_m) - sum_{k>m} C_k hi(e_k)), at least step_m > 0 as lo(x) >= 1 and
    hi(x) <= q - 1 (_step_bounds), and 0 where e = 0.  bounds[d] is the product of these
    channel bounds; classes (d and -d as one) are scanned in ascending (bound, d) until the
    bound exceeds the least product.  The first class's least product caps every later
    one scanned, so only the classes with bounds at most that cap are sorted.
    """
    q, n = field.q, len(cols[0])
    negs = _digit_map(q, [[field.neg(c) for c in range(q)]] * dim)

    def scan(d):
        digits = [d // q ** k % q for k in range(dim)]
        shift = _digit_map(q, [[field.add(c, x) for c in range(q)] for x in digits])  # v -> v + d
        return _scan_class(cols, shift)

    classes = [d for d in range(1, n) if d <= negs[d]]
    first = min(classes, key=bounds.__getitem__)
    best, pair = scan(first)
    for d in sorted((d for d in classes if bounds[d] <= best and d != first),
                    key=bounds.__getitem__):
        if bounds[d] > best:
            break
        least, key = scan(d)
        if (least, key) < (best, pair):
            best, pair = least, key
    return best, pair


def _step_bounds(field) -> tuple:
    """Tables lo, hi: the least and greatest |int(y + x) - int(y)| over y, for each x.

    Reps pack base-p digits added digit by digit, so the difference is sum_i p^i d_i,
    y picking each d_i in {x_i, x_i - p} (x_i != 0).  The greatest has one sign
    throughout (y = 0, -x); the least gives the top digit p^h the other sign from
    the rest (y = p^h - 1, (p - 1) p^h).
    """
    p = field.p
    lo, hi, top = [0], [0], 1
    for x in range(1, field.q):
        if x == top * p:  # top = p^h <= x < p^(h+1)
            top = x
        steps = [abs(field.add(y, x) - y) for y in (top - 1, (p - 1) * top, 0, field.neg(x))]
        lo.append(min(steps[:2]))
        hi.append(max(steps[2:]))
    return lo, hi


def _block_tables(field, C, offset, width) -> list:
    """The audit's lookup tables [(a, b, val, lead, bnd, tail)], one per block [a, b) of
    width coordinates from b = N down; the last block may be narrower.  Each table has
    q^(b-a) entries, indexed by the block's symbols x as sum_k x_k q^(k-a):
      val   2 sum_k C_k x_k, less the offset in the first block;
      lead  the first k with x_k != 0, N if none;
      bnd   2 (C_lead lo(x_lead) - sum_{k>lead} C_k hi(x_k)), 0 if none;
      tail  2 sum_k C_k hi(x_k), read only by the blocks below, so None in the lowest
            block (a = 0), the only one at delta = 0.
    Built one coordinate at a time from b - 1 down, each step taking every symbol at once.
    """
    q, N = field.q, len(C)
    lo, hi = _step_bounds(field)
    blocks = []
    for b in range(N, 0, -width):
        a = max(b - width, 0)
        val, lead, bnd, tail = [0 if blocks else -offset], [N], [0], [0]
        for k in reversed(range(a, b)):  # x_k becomes the lowest digit
            c2 = 2 * C[k]
            lo2, hi2 = [c2 * x for x in lo], [c2 * x for x in hi]
            val = [v + c2 * x for v in val for x in range(q)]
            lead = [k if x else z for z in lead for x in range(q)]
            bnd = [lo2[x] - t if x else z for z, t in zip(bnd, tail) for x in range(q)]
            if k:  # at k = 0 no later step or block reads the tail
                tail = [t + h for t in tail for h in hi2]
        blocks.append((a, b, val, lead, bnd, tail if a else None))
    return blocks


def _block_index(q, cols) -> list:
    """[sum_k cols[k][i] q^k for each i]: each message's index into its block's tables,
    folded from the top coordinate down as x * q + y, one list per coordinate."""
    idx = cols[-1]
    for col in reversed(cols[:-1]):
        idx = [x * q + y for x, y in zip(idx, col)]
    return idx


def _digit_map(q, tables) -> list:
    """[sum_k tables[k][c_k] q^k for each index sum_k c_k q^k], in index order."""
    out = [0]
    for k, table in enumerate(tables):
        step = q ** k
        out = [table[c] * step + p for c in range(q) for p in out]
    return out


def _scan_class(cols, shift) -> tuple:
    """Least |prod_c (t_v[c] - t_shift[v][c])| over v, with its least pair (min, max)."""
    diffs = (map(sub, map(col.__getitem__, shift), col) for col in cols)
    vals = list(map(abs, reduce(partial(map, mul), diffs)))
    least = min(vals)
    ties = compress(range(len(vals)), map(least.__eq__, vals))
    return least, min((min(v, shift[v]), max(v, shift[v])) for v in ties)


@record
class ComplexifiedScheme:
    """Pairing (W x W, kappa x kappa, C x C, mu x 0 + 0 x i mu).

    Real and imaginary legs are independent copies, so the average power and
    the rate both double exactly: the mean over message pairs (x, y) of
    |mu(x)|^2 + |mu(y)|^2 is twice the mean over x.
    """

    base: CodeScheme
    snr: Fraction
    base_snr: Fraction
    rate_symbols: int
    message_count: int


def complexify(scheme: CodeScheme) -> ComplexifiedScheme:
    base = snr(scheme).snr
    size = scheme.udmg.field.q ** scheme.message_space.dim
    return ComplexifiedScheme(scheme, 2 * base, base, 2 * scheme.rate_symbols, size * size)
