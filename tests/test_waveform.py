import math
import random
from fractions import Fraction
from itertools import compress, product, repeat
from operator import mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from udmg.codes import duplicated
from udmg.core import Udmg
from udmg.curves import DivisorSpec, INFINITY, curve_new, enumerate_points, genus0_udmg, goppa_udmg
from udmg.errors import (
    EqualInputsError,
    HypothesisUnmetError,
    NotSquareError,
    SymbolOutOfRangeError,
    TooLargeError,
    UdmgError,
)
from udmg.fields import field_from_order, make_field
from udmg.linalg import FqMatrix, Subspace
from udmg import waveform
from udmg.waveform import (
    MAX_PAIR_SQUARE,
    AuditReport,
    CodeScheme,
    Modulator,
    _common_prefix,
    audit_product_distance,
    build_scheme,
    complexify,
    gap_audit_exhaustive,
    gap_check,
    modulation_bounds,
    mu0,
    mu0_scaled,
    SnrReport,
    snr,
)

F2, F3, F5 = make_field(2), make_field(3), make_field(5)


def test_weights_worked_out():
    assert Modulator(5, 1).weights == (Fraction(2),)
    # hand evaluation of the weight formula at q = 2, N = 2
    assert Modulator(2, 2).weights == (Fraction(7, 4), Fraction(3, 2))
    w = Modulator(5, 3).weights
    assert w == (Fraction(28, 15), Fraction(8, 5), Fraction(4, 3))


def test_weight_bounds_exhaustive():
    for q in range(2, 10):
        for N in range(1, 9):
            assert all(1 <= w <= 2 for w in Modulator(q, N).weights)


def test_mu0_values():
    assert mu0(Modulator(5, 1), (2,)) == 0  # centered symbol, odd q
    assert mu0(Modulator(5, 1), (3,)) == 2
    # hand evaluation: (1 - 1/2)*2*(7/4) + (1 - 1/2)*(3/2)
    assert mu0(Modulator(2, 2), (1, 1)) == Fraction(5, 2)


def test_mu0_scaled_agrees():
    for q, N in [(2, 3), (3, 2), (5, 2)]:
        mod = Modulator(q, N)
        for a in product(range(q), repeat=N):
            assert Fraction(mu0_scaled(mod, a), 2 * q * N) == mu0(mod, a)


# The PAM value is defined in integer form (scaled_weights, _scaled_form); the
# Fraction sums it replaced are kept here as the oracle.

def weights_by_fractions(q, N):
    return tuple(1 + Fraction((q - 1) * (N + 1 - i) + 1, q * N) for i in range(1, N + 1))


def mu0_by_fractions(q, N, a):
    w = weights_by_fractions(q, N)
    return sum((ai - Fraction(q - 1, 2)) * q ** (N - i) * w[i - 1]
               for i, ai in enumerate(a, start=1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_pam_value_matches_the_fraction_sums(q, N):
    mod = Modulator(q, N)
    assert mod.weights == weights_by_fractions(q, N)
    for a in product(range(q), repeat=N):
        want = mu0_by_fractions(q, N, a)
        assert mu0(mod, a) == want
        assert mu0_scaled(mod, a) == want * 2 * q * N


@pytest.mark.parametrize("a", [(1,), (5, 9), (1, 1, 1), (3, 0), (0, -1)])
def test_mu0_scaled_refuses_malformed_symbols(a):
    # mu0_scaled used to read (1,) as -18, (5, 9) as 408 and (1, 1, 1) as 0
    mod = Modulator(3, 2)
    for value in (mu0, mu0_scaled):
        with pytest.raises(SymbolOutOfRangeError):
            value(mod, a)


def test_pam_symmetry():
    for q, N in [(2, 3), (3, 2), (5, 2)]:
        mod = Modulator(q, N)
        for a in product(range(q), repeat=N):
            flipped = tuple(q - 1 - x for x in a)
            assert mu0(mod, flipped) == -mu0(mod, a)


def test_gap_check_extremal_pattern():
    mod = Modulator(5, 3)
    res = gap_check(mod, (1, 0, 0), (0, 4, 4))
    assert res.agreement == 0
    assert res.floor == Fraction(25, 3)
    assert res.gap == Fraction(28, 3)  # the minimized difference 1 + q^(N-1)/N
    assert res.passed


def test_gap_check_last_symbol():
    mod = Modulator(5, 3)
    res = gap_check(mod, (1, 2, 3), (1, 2, 4))
    assert res.agreement == 2
    assert res.floor == Fraction(1, 3)
    assert res.passed


def test_gap_check_equal_inputs():
    with pytest.raises(EqualInputsError):
        gap_check(Modulator(2, 2), (0, 1), (0, 1))


@given(st.integers(2, 7), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_gap_check_property(q, N, data):
    mod = Modulator(q, N)
    a = tuple(data.draw(st.integers(0, q - 1)) for _ in range(N))
    b = tuple(data.draw(st.integers(0, q - 1)) for _ in range(N))
    if a == b:
        return
    res = gap_check(mod, a, b)
    assert res.passed
    assert res.gap == abs(mu0(mod, a) - mu0(mod, b))


@pytest.mark.parametrize("q,N", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_gap_audit_exhaustive(q, N):
    audit = gap_audit_exhaustive(Modulator(q, N))
    assert audit.all_passed
    assert audit.pairs_checked == q ** N * (q ** N - 1) // 2
    # the proof's minimizer is exact: min gap at prefix m is 1 + q^(N-m-1)/N
    for m, gap in audit.min_gap_by_prefix.items():
        assert gap == 1 + Fraction(q ** (N - m - 1), N)


def gap_audit_by_pairs(mod):
    """Oracle: the gap audit with one Python-level pass over every pair a < b of symbol
    vectors in lex order, after a pass over lex neighbours that names the first whose scaled
    value does not rise by more than its floor; a pair that does not raises too."""
    q, N = mod.q, mod.N
    vecs = list(product(range(q), repeat=N))
    scaled = [mu0_scaled(mod, v) for v in vecs]
    floors = [2 * q * q ** (N - m - 1) for m in range(N)]  # 2qN * q^(N-m-1)/N
    for a, b, sa, sb in zip(vecs, vecs[1:], scaled, scaled[1:]):
        floor = floors[_common_prefix(a, b)]
        if sb - sa <= floor:
            raise AssertionError(f"scaled step {sb - sa} from {a} to {b} misses its floor {floor}")
    min_by_m = {}
    pairs = 0
    for i in range(len(vecs)):
        vi, si = vecs[i], scaled[i]
        for j in range(i + 1, len(vecs)):
            pairs += 1
            m = _common_prefix(vi, vecs[j])
            diff = scaled[j] - si
            if diff <= floors[m]:
                raise AssertionError(f"{vi} to {vecs[j]} rises by {diff}, not above {floors[m]}")
            if m not in min_by_m or diff < min_by_m[m]:
                min_by_m[m] = diff
    denom = 2 * q * N
    return waveform.GapAudit(pairs, True,
                             {m: Fraction(v, denom) for m, v in sorted(min_by_m.items())})


@pytest.mark.parametrize("q,N", [(2, 1), (2, 5), (3, 1), (3, 4), (4, 2), (4, 3), (5, 3),
                                 (7, 2), (8, 2), (9, 2), (11, 2), (13, 2)])
def test_gap_audit_matches_pairs(q, N):
    mod = Modulator(q, N)
    assert gap_audit_exhaustive(mod) == gap_audit_by_pairs(mod)


def test_lex_steps_are_the_gap_identity():
    for q in range(2, 65):
        for N in range(1, 13):
            assert waveform._lex_steps(Modulator(q, N)) == [2 * q ** (N - m) + 2 * q * N
                                                            for m in range(N)]


def assert_gap_lemma_fails(mod, match=None):
    """_lex_steps and gap_audit_exhaustive raise the pair oracle's AssertionError text."""
    with pytest.raises(AssertionError, match=match) as want:
        gap_audit_by_pairs(mod)
    for check in (waveform._lex_steps, gap_audit_exhaustive):
        with pytest.raises(AssertionError) as got:
            check(mod)
        assert str(got.value) == str(want.value)


def test_gap_audit_flat_weights_match_pairs(monkeypatch):
    # flat weights still rise in lex order, by 2 per step: every step misses its floor 2q
    monkeypatch.setattr(Modulator, "scaled_weights", lambda self: (1,) * self.N)
    for q, N in [(2, 3), (3, 2), (5, 2)]:
        assert_gap_lemma_fails(Modulator(q, N), r"scaled step 2 from .* misses its floor")


def test_gap_audit_step_on_its_floor(monkeypatch):
    # W = 2 over GF(2), N = 1: the one scaled step, 4, equals its floor 2q and does not clear it
    monkeypatch.setattr(Modulator, "scaled_weights", lambda self: (2,))
    assert_gap_lemma_fails(Modulator(2, 1), r"^scaled step 4 from \(0,\) to \(1,\) misses its floor 4$")


def test_gap_audit_rejects_values_that_fail_to_rise(monkeypatch):
    # W = (1, 3) at q = 2: C = (2, 3), so (0, 1) scales above (1, 0); the last step clears
    monkeypatch.setattr(Modulator, "scaled_weights", lambda self: (1, 3))
    assert_gap_lemma_fails(Modulator(2, 2), r"step -2 from \(0, 1\) to \(1, 0\)")


@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                        (4, 2), (5, 1), (5, 2), (7, 2), (8, 2)]), st.data())
@settings(max_examples=150, deadline=None)
def test_gap_audit_closed_form_matches_pairs_under_random_weights(qN, data):
    # weights near the real ones, some far off: values that rise and clear their floors,
    # rise and miss them, or fail to rise; _lex_steps raises iff the pair loop finds a pair
    # at or under its floor, with the same text
    q, N = qN
    real = Modulator(q, N).scaled_weights()
    spread = data.draw(st.sampled_from([2, q * N, 4 * q * N]))
    weights = tuple(w + data.draw(st.integers(-spread, spread)) for w in real)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Modulator, "scaled_weights", lambda self: weights)
        try:
            want = gap_audit_by_pairs(Modulator(q, N))
        except AssertionError:
            assert_gap_lemma_fails(Modulator(q, N))
            return
        assert gap_audit_exhaustive(Modulator(q, N)) == want


@pytest.mark.parametrize("q,N", [(2, 12), (16, 3), (64, 2), (4096, 1), (2, 13), (17, 4)])
def test_gap_audit_exhaustive_enumerates_no_vector(q, N, monkeypatch):
    def per_vector(*args):
        raise AssertionError("symbol vectors enumerated")

    for name in ("_common_prefix", "mu0", "mu0_scaled"):
        monkeypatch.setattr(waveform, name, per_vector)
    monkeypatch.setattr(Modulator, "check_symbols", per_vector)
    audit = gap_audit_exhaustive(Modulator(q, N))
    assert audit.all_passed and audit.pairs_checked == q ** N * (q ** N - 1) // 2
    assert audit.min_gap_by_prefix == {m: 1 + Fraction(q ** (N - m - 1), N) for m in range(N)}


def scheme_f2():
    return build_scheme(genus0_udmg(F2, [0, 1, INFINITY], 2).udmg)


def test_build_scheme_genus0():
    s = scheme_f2()
    assert s.delta == 0 and s.rate_symbols == 2
    assert all(k.dim == 0 for k in s.kernels)
    assert len(s.messages()) == 4


def test_build_scheme_reference(ref_udmg):
    s = build_scheme(ref_udmg)
    assert s.delta <= ref_udmg.g * ref_udmg.L
    assert s.delta == 0  # every member is invertible here
    assert s.rate_symbols == 3


def test_build_scheme_rejections(ref_udmg):
    wide = Udmg(F2, 2, 0, (FqMatrix.from_rows(F2, [(1, 0, 1), (0, 1, 1)]),))
    with pytest.raises(NotSquareError):
        build_scheme(wide)
    dup = duplicated(genus0_udmg(F2, [0, 1, INFINITY], 2).udmg, 2)
    with pytest.raises(HypothesisUnmetError):
        build_scheme(dup)  # N - g = 0 kills the rate hypothesis


def test_snr_single_channel_identity():
    u = Udmg(F5, 1, 0, (FqMatrix.identity(F5, 1),))
    s = build_scheme(u)
    rep = snr(s)
    assert rep.snr == 8  # (16+4+0+4+16)/5
    assert rep.within
    c = complexify(s)
    assert c.snr == 16 and c.rate_symbols == 2


def test_modulation_bounds_parity():
    odd = modulation_bounds(5, 1, 9)
    assert odd.alpha == Fraction(9, 6 * 5 ** 20)
    assert odd.beta == 9 * 5 ** 9
    even = modulation_bounds(2, 1, 3)
    assert even.alpha == Fraction(3, 2 * 2 ** 7)
    assert even.beta == 3 * 2 ** 3


def test_snr_schemes_within_bounds(ref_udmg):
    for scheme in [scheme_f2(),
                   build_scheme(genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg),
                   build_scheme(ref_udmg)]:
        rep = snr(scheme)
        assert rep.snr > 0
        assert rep.within


def test_audit_genus0_exhaustive():
    rep = audit_product_distance(scheme_f2())
    assert rep.pairs_checked == 6
    assert rep.passed and not rep.vacuous
    assert rep.max_agreement <= 1  # N + g - 1


def test_audit_duplication_scheme():
    dup = duplicated(genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg, 1)
    rep = audit_product_distance(build_scheme(dup))
    assert rep.passed
    assert rep.max_agreement <= 2


def test_audit_degenerate_single_message():
    # rank-1 members whose left kernels jointly fill the plane: one message
    m1 = FqMatrix.from_rows(F2, [(1, 0), (0, 0)])
    m2 = FqMatrix.from_rows(F2, [(0, 0), (1, 0)])
    s = build_scheme(Udmg(F2, 2, 1, (m1, m2)))
    assert s.delta == 2 and len(s.messages()) == 1
    rep = audit_product_distance(s)
    assert rep.vacuous and rep.passed and rep.pairs_checked == 0


def test_complexify_doubles_all(ref_udmg):
    for scheme in [scheme_f2(), build_scheme(ref_udmg)]:
        c = complexify(scheme)
        assert c.snr == 2 * c.base_snr
        assert c.rate_symbols == 2 * scheme.rate_symbols
        assert c.message_count == len(scheme.messages()) ** 2


# -- closed-form SNR against the message-by-message sum ----------------------------

def snr_by_enumeration(scheme):
    """Oracle: the exact average power summed over every message and channel."""
    q, N, L = scheme.modulator.q, scheme.N, scheme.L
    size = q ** scheme.message_space.dim
    total = 0
    for v in scheme.messages():
        for sym in scheme.encode(v):
            t = mu0_scaled(scheme.modulator, sym)
            total += t * t
    value = Fraction(total, size * (2 * q * N) ** 2)
    b = modulation_bounds(q, scheme.udmg.g, L)
    lower = b.alpha * q ** (2 * N) / N ** 2
    upper = b.beta * q ** (2 * N)
    return SnrReport(value, b, lower, upper, lower <= value <= upper)


def assert_snr_matches(scheme):
    want = snr_by_enumeration(scheme)
    assert snr(scheme) == want
    c = complexify(scheme)
    assert c.base_snr == want.snr and c.snr == 2 * want.snr


def random_scheme(rng, q, tries=200, max_messages=2000):
    """A valid square scheme over GF(q) with random K, g, L, members of any rank."""
    f = field_from_order(q)
    for _ in range(tries):
        K, g, L = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 4)
        mats = []
        for _ in range(L):
            rows = [[rng.randrange(q) for _ in range(K)] for _ in range(K)]
            if K > 1 and rng.random() < 0.4:
                rows[rng.randrange(K)] = [0] * K  # rank deficient: gives delta > 0
            mats.append(FqMatrix.from_rows(f, rows))
        try:
            scheme = build_scheme(Udmg(f, K, g, tuple(mats)))
        except UdmgError:
            continue
        if q ** scheme.message_space.dim <= max_messages:
            return scheme
    raise AssertionError("no valid scheme drawn")


@given(st.sampled_from([2, 3, 4, 7, 8, 9]), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_snr_closed_form_property(q, seed):
    assert_snr_matches(random_scheme(random.Random(seed), q))


def test_snr_closed_form_random_corpus():
    rng = random.Random(87)
    schemes = [random_scheme(rng, q) for q in (2, 3, 4, 7, 8, 9) for _ in range(15)]
    assert sum(s.delta > 0 for s in schemes) >= 10
    for scheme in schemes:
        assert_snr_matches(scheme)


def test_snr_closed_form_exhaustive_small():
    # every square set over GF(2) with K = 2, L <= 2, and over GF(3) with K = 2, L = 1
    cases = 0
    for q, L in ((2, 1), (2, 2), (3, 1)):
        f = make_field(q)
        mats = [FqMatrix.from_rows(f, [e[:2], e[2:]]) for e in product(range(q), repeat=4)]
        for members in product(mats, repeat=L):
            for g in (0, 1):
                try:
                    scheme = build_scheme(Udmg(f, 2, g, members))
                except UdmgError:
                    continue
                assert_snr_matches(scheme)
                cases += 1
    assert cases > 100


def test_snr_closed_form_corpus_and_kernels(ref_udmg):
    from test_acceptance import _scheme_corpus

    for _, scheme in _scheme_corpus(ref_udmg):
        assert_snr_matches(scheme)
    m1 = FqMatrix.from_rows(F2, [(1, 0), (0, 0)])
    m2 = FqMatrix.from_rows(F2, [(0, 0), (1, 0)])
    single = build_scheme(Udmg(F2, 2, 1, (m1, m2)))  # delta = 2: one message
    assert_snr_matches(single)
    half = build_scheme(Udmg(F3, 2, 1, (FqMatrix.from_rows(F3, [(1, 2), (0, 0)]),
                                        FqMatrix.from_rows(F3, [(0, 1), (1, 0)]))))
    assert half.delta == 1
    assert_snr_matches(half)


def test_snr_genus1_twin_matches_enumeration():
    # s^2 = r^3 + r + 1 over GF(23), all 27 affine points, D = 2*O: the twin, at 23^2
    # messages, of the D = 5*O set whose 23^5 messages the CLI test runs through --snr
    f = field_from_order(23)
    curve = curve_new(f, 1, 1)
    points = [P for P in enumerate_points(curve) if P is not INFINITY]
    scheme = build_scheme(goppa_udmg(curve, points, DivisorSpec(2, None)).udmg)
    assert (len(points), scheme.delta) == (27, 0)
    assert_snr_matches(scheme)
    assert snr(scheme).snr == 2462130


# -- product-distance audit against the pair-by-pair loop --------------------------

def audit_by_pairs(scheme):
    """Oracle: the audit with one Python-level pass over every message pair."""
    q, N, L, g = scheme.modulator.q, scheme.N, scheme.L, scheme.udmg.g
    msgs = scheme.messages()
    if len(msgs) ** 2 > MAX_PAIR_SQUARE:
        raise TooLargeError("message pair count exceeds the audit guard")
    if len(msgs) < 2:
        return AuditReport(0, Fraction(0), Fraction(0), True, (), 0, True)
    mod = scheme.modulator
    encoded = []
    for v in msgs:
        syms = scheme.encode(v)
        encoded.append((v, syms, [mu0_scaled(mod, s) for s in syms]))
    scale = (2 * q * N) ** (2 * L)
    agreement_cap = N + g - 1
    floor_pow = (2 * q) ** (2 * L)
    ok = True
    pairs = 0
    min_scaled = None
    worst = ()
    max_agree = 0
    for i in range(len(encoded)):
        vi, symi, ti = encoded[i]
        for j in range(i + 1, len(encoded)):
            vj, symj, tj = encoded[j]
            pairs += 1
            lam_sum = 0
            prod = 1
            for c in range(L):
                lam_sum += _common_prefix(symi[c], symj[c])
                diff = ti[c] - tj[c]
                prod *= diff * diff
            if lam_sum > agreement_cap:
                raise AssertionError(
                    f"agreement sum {lam_sum} exceeded N+g-1 for {vi} vs {vj}")
            if lam_sum > max_agree:
                max_agree = lam_sum
            if prod < floor_pow * Fraction(q) ** (2 * (L * N - lam_sum - L)):
                ok = False
            if min_scaled is None or prod < min_scaled:
                min_scaled = prod
                worst = (vi, vj)
    floor = Fraction(q) ** (2 * (L * N - (N + g - 1) - L)) / N ** (2 * L)
    min_product = Fraction(min_scaled, scale)
    passed = ok and min_product >= floor
    return AuditReport(pairs, min_product, floor, passed, worst, max_agree, False)


def assert_audit_matches(scheme):
    """Same report, or the same AssertionError message, as the pair-by-pair loop."""
    try:
        want = audit_by_pairs(scheme)
    except AssertionError as exc:
        with pytest.raises(AssertionError) as got:
            audit_product_distance(scheme)
        assert str(got.value) == str(exc)
        return None
    rep = audit_product_distance(scheme)
    assert rep == want
    return rep


@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_audit_matches_pairs_property(q, seed):
    assert_audit_matches(random_scheme(random.Random(seed), q, max_messages=250))


def test_audit_matches_pairs_exhaustive_small():
    # every square set over GF(2) with K = 2, L <= 2, at genus 0 and 1
    cases = 0
    mats = [FqMatrix.from_rows(F2, [e[:2], e[2:]]) for e in product(range(2), repeat=4)]
    for L in (1, 2):
        for members in product(mats, repeat=L):
            for g in (0, 1):
                try:
                    scheme = build_scheme(Udmg(F2, 2, g, members))
                except UdmgError:
                    continue
                assert_audit_matches(scheme)
                cases += 1
    assert cases > 100


def test_audit_matches_pairs_corpus(ref_udmg):
    from test_acceptance import _scheme_corpus

    for _, scheme in _scheme_corpus(ref_udmg):
        assert assert_audit_matches(scheme).passed


def hand_scheme(field, K, g, rows_list):
    """A CodeScheme over the whole message space, bypassing build_scheme's checks."""
    u = Udmg(field, K, g, tuple(FqMatrix.from_rows(field, rows) for rows in rows_list))
    return CodeScheme(u, Modulator(field.q, K), (), Subspace.trivial(field, K), 0,
                      Subspace.full(field, K))


def test_audit_assertion_names_first_pair():
    # identical members at genus 0: agreement doubles across the two channels
    twice = hand_scheme(F2, 2, 0, [[(1, 0), (0, 1)]] * 2)
    assert_audit_matches(twice)
    with pytest.raises(AssertionError,
                       match=r"agreement sum 2 exceeded N\+g-1 for \(0, 0\) vs \(0, 1\)"):
        audit_product_distance(twice)
    # over GF(3) only the difference (0, 1) agrees too long; it is the fourth message
    late = hand_scheme(F3, 2, 0, [[(1, 0), (0, 1)], [(1, 1), (0, 2)]])
    assert late.messages().index((0, 1)) == 3
    assert_audit_matches(late)
    with pytest.raises(AssertionError, match=r"for \(0, 0\) vs \(0, 1\)"):
        audit_product_distance(late)
    assert_audit_matches(hand_scheme(F3, 3, 1, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]] * 3))


def test_audit_non_injective_channel_matches():
    # a rank-1 member sends (0, 1) to zero: equal symbols give product 0
    rep = assert_audit_matches(hand_scheme(F3, 2, 1, [[(1, 0), (0, 0)], [(0, 1), (1, 0)]]))
    assert not rep.passed


def test_audit_repeated_channel_symbol_fails_at_zero():
    # the first member has rank 1, so messages (x, 2x) repeat its symbols: product 0
    scheme = hand_scheme(F5, 2, 1, [[(1, 2), (2, 4)], [(1, 0), (0, 1)]])
    rep = audit_product_distance(scheme)
    assert rep == audit_by_rows(scheme) == assert_audit_matches(scheme)
    assert rep.min_product == 0 and not rep.passed


@pytest.mark.parametrize("g,rows_list,passed", [
    (2, [[(0, 0), (0, 0)], [(0, 1), (1, 0)]], False),  # a zero member: every product is 0
    (1, [[(1, 0), (0, 1)]], True),
], ids=["zero-member-L2", "identity-L1"])
def test_audit_floor_below_one_is_exact(g, rows_list, passed):
    # (L-1)(N-1) < g: the floor's power of q is negative, and the floor stays a Fraction
    scheme = hand_scheme(F3, 2, g, rows_list)
    assert (scheme.L - 1) * (scheme.N - 1) < scheme.udmg.g
    rep = audit_product_distance(scheme)
    assert rep == audit_by_rows(scheme) == assert_audit_matches(scheme)
    assert type(rep.floor) is Fraction and 0 < rep.floor < 1
    assert type(rep.min_product) is Fraction and rep.passed is passed


@pytest.mark.parametrize("weights", [
    lambda self: (1,) * self.N,                              # flat: every step is 2
    lambda self: tuple(self.q ** k for k in range(self.N)),  # later symbols outweigh the first
    lambda self: (2,) * self.N,                              # last step 4, at most its floor 2q
], ids=["flat", "rising", "on-floor"])
def test_audit_rejects_weights_off_the_gap_lemma(weights, ref_udmg, monkeypatch):
    from test_acceptance import _scheme_corpus

    schemes = [s for _, s in _scheme_corpus(ref_udmg)]
    schemes += [build_scheme(Udmg(F2, 1, 0, (FqMatrix.identity(F2, 1),))), line_scheme(5, 3, 6)]
    monkeypatch.setattr(Modulator, "scaled_weights", weights)
    for scheme in schemes:
        with pytest.raises(AssertionError) as want:
            waveform._lex_steps(scheme.modulator)
        with pytest.raises(AssertionError) as got:
            audit_product_distance(scheme)
        assert str(got.value) == str(want.value)


def test_audit_fallback_when_certificate_fails(ref_udmg, monkeypatch):
    # the corpus clears the gap lemma with the real weights; when its check fails the audit
    # has no pair-by-pair fallback: it raises that check's error before encoding a message
    from test_acceptance import _scheme_corpus

    schemes = [s for _, s in _scheme_corpus(ref_udmg)]
    assert all(len(s.messages()) >= 2 for s in schemes)
    assert all(assert_audit_matches(s).passed for s in schemes)

    def certificate_fails(mod):
        raise AssertionError(f"no certificate for q={mod.q}, N={mod.N}")

    encoded = []
    monkeypatch.setattr(waveform, "_lex_steps", certificate_fails)
    monkeypatch.setattr(CodeScheme, "encode", lambda self, v: encoded.append(v))
    for scheme in schemes:
        mod = scheme.modulator
        with pytest.raises(AssertionError, match=f"^no certificate for q={mod.q}, N={mod.N}$"):
            audit_product_distance(scheme)
    assert not encoded


def test_audit_guard_precedes_enumeration(monkeypatch):
    f = field_from_order(1 << 16)
    big = hand_scheme(f, 3, 0, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]])

    def no_enumeration(self):
        raise AssertionError("messages enumerated before the guard")

    monkeypatch.setattr(CodeScheme, "messages", no_enumeration)
    with pytest.raises(TooLargeError):
        audit_product_distance(big)


# -- product-distance audit against the row-by-row minimum ----------------------------

def row_products(cols, i):
    """Iterator over prod_c (t_i[c] - t_j[c]) for j > i."""
    prods = map(sub, repeat(cols[0][i]), cols[0][i + 1:])
    for col in cols[1:]:
        prods = map(mul, prods, map(sub, repeat(col[i]), col[i + 1:]))
    return prods


def rows_clear_floors(q, N, L, syms, cols):
    """Every pair's product of squared differences against its own floor
    (2q)^(2L) q^(2(LN - lam - L)), lam the pair's agreement sum, row by row at C speed.

    A product that clears the agreement-0 floor clears every floor, so only the pairs
    below it have their agreement summed.
    """
    root0 = (2 * q) ** L * q ** (L * (N - 1))  # |product| at the agreement-0 floor
    for i in range(len(syms) - 1):
        prods = list(map(abs, row_products(cols, i)))
        for k in compress(range(len(prods)), map(root0.__gt__, prods)):
            lam = sum(map(_common_prefix, syms[i], syms[i + 1 + k]))
            if prods[k] ** 2 < (2 * q) ** (2 * L) * Fraction(q) ** (2 * (L * N - lam - L)):
                return False
    return True


def audit_by_rows(scheme):
    """Oracle: every message encoded, the least product and every pair's floor taken row
    by row at C speed."""
    q, N, L, g = scheme.modulator.q, scheme.N, scheme.L, scheme.udmg.g
    msgs = scheme.messages()
    n = len(msgs)
    syms = [scheme.encode(v) for v in msgs]
    cols = [[mu0_scaled(scheme.modulator, s[c]) for s in syms] for c in range(L)]
    max_agree = max(sum(_common_prefix(s, (0,) * N) for s in e) for e in syms[1:])
    assert max_agree <= N + g - 1
    ok = rows_clear_floors(q, N, L, syms, cols)
    row_min = [min(map(abs, row_products(cols, i))) for i in range(n - 1)]
    best = min(row_min)
    wi = row_min.index(best)
    wj = wi + 1 + list(map(abs, row_products(cols, wi))).index(best)
    floor = Fraction(q) ** (2 * (L * N - (N + g - 1) - L)) / N ** (2 * L)
    min_product = Fraction(best * best, (2 * q * N) ** (2 * L))
    return AuditReport(n * (n - 1) // 2, min_product, floor, ok and min_product >= floor,
                       (msgs[wi], msgs[wj]), max_agree, False)


@pytest.fixture
def classes_scanned(monkeypatch):
    """A list that gains one entry per difference class the audit scans."""
    scanned = []
    scan_class = waveform._scan_class
    monkeypatch.setattr(waveform, "_scan_class",
                        lambda cols, shift: scanned.append(1) or scan_class(cols, shift))
    return scanned


F11 = field_from_order(11)
CURVE11 = curve_new(F11, 1, 3)  # s^2 = r^3 + r + 3 over GF(11)
POINTS11 = [P for P in enumerate_points(CURVE11) if P is not INFINITY]


def genus1_scheme(points):
    return build_scheme(goppa_udmg(CURVE11, points, DivisorSpec(3, None)).udmg)


def line_scheme(q, K, count):
    return build_scheme(genus0_udmg(field_from_order(q), list(range(count - 1)) + [INFINITY], K).udmg)


def delta_scheme():
    """GF(9), K = 4, genus 2, a member of rank 3: delta = 1, 729 messages."""
    f = field_from_order(9)
    rows = [[(3, 5, 7, 8), (5, 5, 5, 5), (5, 4, 4, 4), (2, 1, 8, 3)],
            [(5, 3, 4, 6), (4, 7, 2, 7), (0, 0, 0, 0), (8, 7, 0, 1)]]
    return build_scheme(Udmg(f, 4, 2, tuple(FqMatrix.from_rows(f, r) for r in rows)))


@pytest.mark.parametrize("make", [
    lambda: genus1_scheme(POINTS11[:3]),
    lambda: genus1_scheme(POINTS11[:4]),
    lambda: line_scheme(11, 3, 5),
    lambda: line_scheme(8, 3, 5),   # characteristic 2: d = -d
    lambda: line_scheme(9, 3, 5),   # an extension field with d != -d
    delta_scheme,
], ids=["genus1-q11-3pts", "genus1-q11-4pts", "line-q11-K3", "line-q8-K3", "line-q9-K3",
        "delta1-q9-K4"])
def test_audit_matches_rows_where_classes_are_pruned(make, classes_scanned):
    scheme = make()
    n = len(scheme.messages())
    assert n >= 500 and (scheme.delta > 0) == (make is delta_scheme)
    rep = audit_product_distance(scheme)
    assert rep == audit_by_rows(scheme)
    assert rep.passed
    assert 0 < len(classes_scanned) < (n - 1) // 2  # d and -d share a class


_REAL_WEIGHTS = Modulator.scaled_weights


@pytest.mark.parametrize("weights", [
    lambda self: (self.q ** self.N + 1,) * self.N,             # flat: every step 2(q^N + 1)
    lambda self: tuple(2 * w for w in _REAL_WEIGHTS(self)),  # every step doubled
], ids=["flat", "doubled"])
def test_audit_matches_rows_under_other_weights(weights, monkeypatch):
    # weights other than the real ones whose lex steps still clear every floor 2q^(N-m):
    # the audit runs, its channel bounds stay sound, and every pair clears its floor
    monkeypatch.setattr(Modulator, "scaled_weights", weights)
    for scheme in (line_scheme(5, 3, 6), line_scheme(7, 3, 5), line_scheme(8, 3, 4),
                   line_scheme(9, 3, 4)):
        q, N = scheme.modulator.q, scheme.N
        assert weights(scheme.modulator) != _REAL_WEIGHTS(scheme.modulator)
        steps = waveform._lex_steps(scheme.modulator)
        assert all(step > 2 * q ** (N - m) for m, step in enumerate(steps))
        rep = audit_product_distance(scheme)
        assert rep == audit_by_rows(scheme)
        assert rep.passed


def test_audit_matches_rows_with_a_zero_channel():
    # the first member sends (0, 0, 1) to zero: that class's product is 0 on every pair
    scheme = hand_scheme(F11, 3, 1, [[(1, 0, 0), (0, 1, 0), (0, 0, 0)],
                                     [(0, 1, 2), (1, 0, 3), (4, 5, 1)]])
    rep = audit_product_distance(scheme)
    assert rep == audit_by_rows(scheme)
    assert rep.min_product == 0 and not rep.passed


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 11, 16, 25, 27, 32, 49, 64, 81, 125, 243, 256])
def test_step_bounds_are_the_extremes_over_every_y(q):
    f = field_from_order(q)
    steps = [[abs(f.add(y, x) - y) for y in range(q)] for x in range(q)]
    assert waveform._step_bounds(f) == (list(map(min, steps)), list(map(max, steps)))


@pytest.mark.parametrize("q", [1021, 2048, 2187, 4096])
def test_step_bounds_at_sampled_entries_of_large_fields(q):
    f = field_from_order(q)
    lo, hi = waveform._step_bounds(f)
    for x in random.Random(q).sample(range(1, q), 12) + [1, q - 1]:
        steps = [abs(f.add(y, x) - y) for y in range(q)]
        assert (lo[x], hi[x]) == (min(steps), max(steps))


def test_messages_unchanged_element_for_element():
    from test_linalg import span_by_vectors

    for scheme in (genus1_scheme(POINTS11[:3]), line_scheme(8, 3, 5), line_scheme(16, 2, 4),
                   delta_scheme()):
        space = scheme.message_space
        assert scheme.messages() == span_by_vectors(space.field, space.vectors, space.ambient_dim)


def test_audit_reads_values_and_class_bounds_off_each_message(monkeypatch):
    # cols and bounds as _least_product receives them, against the formulas applied to
    # every message's own symbol tuples; equal bounds keep the class order
    seen = []
    least = waveform._least_product
    monkeypatch.setattr(waveform, "_least_product", lambda f, dim, cols, bounds:
                        seen.append((cols, bounds)) or least(f, dim, cols, bounds))
    for scheme in (genus1_scheme(POINTS11[:3]), line_scheme(8, 3, 5), line_scheme(9, 3, 5),
                   delta_scheme()):
        lo, hi = waveform._step_bounds(scheme.udmg.field)
        C, _ = waveform._scaled_form(scheme.modulator)

        def channel_bound(e):
            m = next((k for k, x in enumerate(e) if x), None)
            if m is None:
                return 0
            return 2 * (C[m] * lo[e[m]] - sum(C[k] * hi[e[k]] for k in range(m + 1, len(e))))

        syms = [scheme.encode(v) for v in scheme.messages()]
        seen.clear()
        audit_product_distance(scheme)
        values = [[mu0_scaled(scheme.modulator, s[c]) for s in syms] for c in range(scheme.L)]
        assert seen == [(values, [math.prod(map(channel_bound, s)) for s in syms])]


def test_audit_prune_scans_under_one_percent(classes_scanned):
    scheme = genus1_scheme(POINTS11[:3])
    assert len(scheme.messages()) == 1331
    audit_product_distance(scheme)
    assert 0 < len(classes_scanned) < 0.01 * 1330


def test_audit_encodes_only_the_basis(monkeypatch):
    scheme = genus1_scheme(POINTS11[:3])
    encoded = []
    encode = CodeScheme.encode
    monkeypatch.setattr(CodeScheme, "encode", lambda self, v: encoded.append(v) or encode(self, v))
    audit_product_distance(scheme)
    assert encoded == list(scheme.message_space.vectors)


def least_pairs(scheme):
    """Every pair (i, j), i < j, at the least |product|, in (i, j) order."""
    msgs = scheme.messages()
    cols = [[mu0_scaled(scheme.modulator, scheme.encode(v)[c]) for v in msgs]
            for c in range(scheme.L)]
    rows = [list(map(abs, row_products(cols, i))) for i in range(len(msgs) - 1)]
    best = min(map(min, rows))
    return [(i, i + 1 + k) for i, row in enumerate(rows) for k, x in enumerate(row) if x == best]


@pytest.mark.parametrize("make,classes", [
    (lambda: build_scheme(duplicated(genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 2).udmg, 1)), 1),
    (lambda: hand_scheme(F3, 2, 1, [[(1, 0), (0, 1)]] * 2), 1),
    (lambda: hand_scheme(F5, 3, 0, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]]), 1),
    (lambda: hand_scheme(field_from_order(9), 2, 0, [[(1, 0), (0, 1)]]), 2),
    (lambda: hand_scheme(field_from_order(8), 2, 0, [[(1, 0), (0, 1)]]), 3),
    # the class's first tied message pairs upward, (1, 4); an earlier one lies below, (0, 4)
    (lambda: hand_scheme(field_from_order(7), 1, 0, [[(2,)]]), 1),
    (lambda: hand_scheme(field_from_order(7), 2, 0, [[(4, 4), (2, 4)]]), 1),
], ids=["dup-q5", "identity-q3-K2", "identity-q5-K3", "identity-q9-K2", "identity-q8-K2",
        "double-q7-K1", "q7-K2"])
def test_audit_worst_pair_is_first_of_many_ties(make, classes):
    scheme = make()
    ties = least_pairs(scheme)
    msgs = scheme.messages()
    assert len(ties) >= 4
    # differences of the tied pairs, up to sign: the classes the ties lie in
    f = scheme.udmg.field
    diffs = {min(d, tuple(map(f.neg, d)))
             for d in (tuple(map(f.sub, msgs[j], msgs[i])) for i, j in ties)}
    assert len(diffs) == classes
    rep = assert_audit_matches(scheme)
    i, j = ties[0]
    assert rep.worst_pair == (msgs[i], msgs[j])
