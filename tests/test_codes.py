import json
import math
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from udmg import reference
from udmg.cli import construction_from_data, run, save_matrixset
from udmg.codes import (
    LinearCode,
    _iroot,
    bounds,
    duplicated,
    first_column_code,
    min_distance,
    partition_bound,
)
from udmg.core import Udmg, minimal_genus, verify
from udmg.curves import (
    INFINITY,
    DivisorSpec,
    WeierstrassCurve,
    enumerate_points,
    genus0_udmg,
    goppa_udmg,
)
from udmg.errors import (
    HypothesisUnmetError,
    InvalidInputError,
    RankDeficientError,
    TooLargeError,
    TooShortError,
)
from udmg.fields import field_from_order, make_field
from udmg.linalg import FqMatrix, kernel_basis, rank

F2, F3, F5 = make_field(2), make_field(3), make_field(5)
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "genus1_f5.json"


def min_distance_by_vecmat(code):
    """Oracle: multiply every nonzero message through the generator."""
    q = code.field.q
    G = code.generator
    best = code.n + 1
    for msg in product(range(q), repeat=code.k):
        if not any(msg):
            continue
        word = G.vecmat(msg)
        w = sum(1 for e in word if e)
        if w < best:
            best = w
            if best == 1:
                break
    return best


def min_distance_by_gray(code):
    """Oracle: one codeword per projective point, in modular Gray order.

    Block i scans the messages led by a 1 at position i (weight ignores
    scaling); their trailing F_p digits run in modular Gray order, so each step
    adds one row x^d * G_j.  A rank-deficient G reads 0.
    """
    f, n, k, G = code.field, code.n, code.k, code.generator
    if rank(G) < k:
        return 0
    best = n + 1
    for i in range(k):
        steps = [tuple(f.mul(f.p ** d, e) for e in G.row(j))
                 for j in range(i + 1, k) for d in range(f.m)]
        word = G.vecmat([0] * i + [1] + [0] * (k - 1 - i))
        for s in range(f.p ** len(steps)):  # step s changes digit v_p(s) by +1
            if s:
                j = next(j for j in range(len(steps)) if s % f.p ** (j + 1))
                word = tuple(map(f.add, word, steps[j]))
            best = min(best, n - word.count(0))
    return best


def random_code(rng, q, n, k):
    f = field_from_order(q)
    rows = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(k)]
    return LinearCode(f, n, k, FqMatrix.from_rows(f, rows))


def test_reference_code(ref_udmg):
    code = first_column_code(ref_udmg)
    assert (code.n, code.k) == (9, 3)
    assert 6 <= code.d <= 7  # designed distance 9 - deg D = 6, Singleton caps 7
    assert code.defect <= 1
    # observed values: weight-6 words exist (functions vanishing at three
    # points summing to O in the group law), so the designed distance is exact
    assert code.d == 6 and code.defect == 1


def test_genus0_code_is_mds():
    gc = genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 3)
    code = first_column_code(gc.udmg)
    assert (code.n, code.k, code.d) == (6, 3, 4)
    assert code.defect == 0


def test_too_short():
    eye = FqMatrix.identity(F2, 2)
    with pytest.raises(TooShortError):
        first_column_code(Udmg(F2, 2, 0, (eye,)))


def test_first_column_code_refusals_name_their_cause():
    # a set that fails at its genus is invalid input, as in build_scheme and quotient
    with pytest.raises(InvalidInputError, match="fails verification at its genus"):
        first_column_code(reference.matrix_set(0))
    # a set declared verified whose first columns span less than F_q^K
    eye = FqMatrix.identity(F2, 2)
    with pytest.raises(RankDeficientError, match="first-column generator is rank deficient"):
        first_column_code(Udmg(F2, 2, 0, (eye, eye)), verified=True)


def test_min_distance_basics():
    rep = LinearCode(F5, 4, 1, FqMatrix.from_rows(F5, [(1, 1, 1, 1)]))
    assert min_distance(rep) == 4
    eye = LinearCode(F2, 2, 2, FqMatrix.identity(F2, 2))
    assert min_distance(eye) == 1


def test_singleton_and_length_cap_on_computed_codes(ref_udmg):
    codes = [first_column_code(ref_udmg),
             first_column_code(genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 3).udmg),
             first_column_code(genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg)]
    for code in codes:
        assert code.d <= code.n - code.k + 1
        s = code.defect
        assert code.n <= code.k - 2 + (code.field.q + 1) * (s + 1)


def test_duplication_sharpness_spot():
    base = genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg
    for g in (0, 1, 2):
        dup = duplicated(base, g)
        assert dup.L == (g + 1) * (3 + 1)
        assert dup.g == g
        assert verify(dup).valid
        assert dup.L == bounds(2, 3, g, lengths=(2,) * dup.L).class1_bound
        code = first_column_code(dup, verified=True)
        assert (code.d, code.defect) == ((g + 1) * 3, g)  # each unit of genus costs one of d


def test_bounds_worked_example():
    rep = bounds(4, 2, 2, lengths=(4, 4, 4))
    assert rep.code_class == 1
    assert rep.class1_bound == 9
    assert rep.partition_bound == 8
    # the scan's pivotal comparisons
    rhs = math.comb(5, 3) * (2 ** 4 - 1) // (2 - 1)
    assert rhs == 150
    assert math.comb(10, 3) == 120 <= 150 < math.comb(11, 3) == 165


def test_bounds_mds_specialization():
    for K in (2, 3, 5):
        for q in (2, 3, 5):
            assert bounds(K, q, 0).defect_bound == K + q - 1


def test_bounds_class2():
    rep = bounds(8, 2, 0, lengths=(2, 2))
    assert rep.code_class == 2
    assert rep.class2_range == (3, 6)  # g+3 = 3, (K-2)/(gamma-1) = 6


def test_bounds_hypotheses():
    with pytest.raises(HypothesisUnmetError):
        bounds(1, 2, 0)
    rep = bounds(4, 2, 2, lengths=(2, 2))
    assert rep.partition_bound == 0  # needs N_i >= K - 1 = 3
    assert any("K - 1" in n for n in rep.notes)
    rep2 = bounds(3, 2, 1)
    assert rep2.code_class == 0 and rep2.notes


def test_bounds_asmds():
    rep = bounds(3, 5, 1, nks=(9, 3, 1))
    assert rep.asmds_bound == 3 - 2 + 6 * 2
    assert rep.asmds_holds


@pytest.mark.parametrize("lengths", [(2.9, 3, 3), (3, 3.0, 3), (True, 3, 3)])
def test_bounds_refuse_non_integer_lengths(lengths):
    # int() used to truncate these: (2.9, 3, 3) read gamma 2
    with pytest.raises(TypeError):
        bounds(3, 5, 1, lengths=lengths)


@pytest.mark.parametrize("nks", [(5.5, 3, 1.2), (9, 3, 1.0), (9, True, 1)])
def test_bounds_refuse_non_integer_nks(nks):
    # (5.5, 3, 1.2) used to give an asmds bound of 14.2
    with pytest.raises(TypeError):
        bounds(3, 5, 1, nks=nks)


def test_partition_bound_monotone():
    assert partition_bound(4, 2, 2) == 8
    assert partition_bound(2, 5, 0) >= 1


def partition_bound_by_scan(K, q, g):
    """Oracle: count L up while C(K-2+L, K-1) stays within the right-hand side."""
    rhs = math.comb(K + g - 1, K - 1) * (q ** K - 1) // (q - 1)
    L = 0
    while math.comb(K - 2 + (L + 1), K - 1) <= rhs:
        L += 1
    return L


def test_partition_bound_matches_scan():
    for K, q, g in product(range(2, 7), range(2, 10), range(5)):
        assert partition_bound(K, q, g) == partition_bound_by_scan(K, q, g), (K, q, g)


@given(st.integers(2, 40), st.integers(2, 64), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_partition_bound_matches_scan_drawn(K, q, g):
    assert partition_bound(K, q, g) == partition_bound_by_scan(K, q, g)


@given(st.integers(2, 3), st.integers(2, 2 ** 70), st.integers(0, 2 ** 200))
@settings(max_examples=200, deadline=None)
def test_partition_bound_closed_forms_past_2_64(K, q, g):
    """K = 2 and 3 have closed forms; large q or g takes the root bracket."""
    rhs = math.comb(K + g - 1, K - 1) * (q ** K - 1) // (q - 1)
    want = rhs if K == 2 else (math.isqrt(8 * rhs + 1) - 1) // 2  # L (L+1) / 2 <= rhs
    assert partition_bound(K, q, g) == want


@given(st.integers(0, 2 ** 4000), st.integers(1, 70))
@settings(max_examples=300, deadline=None)
def test_iroot_is_the_floor_root(n, m):
    x = _iroot(n, m)
    assert x ** m <= n < (x + 1) ** m


def test_partition_bound_refuses_past_its_cap():
    with pytest.raises(TooLargeError):
        partition_bound(100001, 2, 0)
    with pytest.raises(TooLargeError):
        partition_bound(3, 2, 2 ** 60000)
    with pytest.raises(HypothesisUnmetError):
        partition_bound(1, 2, 0)


@pytest.mark.parametrize("argv,want", [
    (["--K", "2", "--q", "1048573", "--g", "100000", "--lengths", "2,2"], 104858448574),
    (["--K", "3", "--q", "2", "--g", "1000000000", "--lengths", "3,3"], 2645751314),
    (["--K", "100000", "--q", "2", "--g", "0", "--lengths", "100000"], 29386),
])
def test_bounds_command_finishes_on_large_parameters(argv, want):
    """Each of these ran past 20 s while the bound counted L up one at a time."""
    res = subprocess.run([sys.executable, "-m", "udmg.cli", "--json", "bounds", *argv],
                         capture_output=True, text=True, timeout=20)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["partition_bound"] == want


def test_bounds_command_refuses_past_the_cap(capsys):
    assert run(["bounds", "--K", "100001", "--q", "2", "--g", "0", "--lengths", "100001"]) == 2
    assert "MAX_PARTITION_BITS" in capsys.readouterr().err


def test_defect_bound_respected_by_fixtures(ref_udmg):
    rep = bounds(ref_udmg.K, 5, ref_udmg.g, lengths=ref_udmg.lengths)
    assert ref_udmg.L <= rep.defect_bound
    assert ref_udmg.L <= rep.class1_bound


@given(st.sampled_from([2, 3, 4, 5, 7, 9]), st.integers(1, 7), st.data())
@settings(max_examples=150, deadline=None)
def test_min_distance_matches_vecmat_scan(q, n, data):
    k = data.draw(st.integers(1, n))
    if q ** k > 4096:
        k = max(j for j in range(1, k + 1) if q ** j <= 4096)
    code = random_code(random.Random(data.draw(st.integers(0, 2 ** 32))), q, n, k)
    if rank(code.generator) == k:
        assert min_distance(code) == min_distance_by_vecmat(code)


def test_min_distance_extreme_dimensions():
    rng = random.Random(5)
    for q in (2, 3, 4, 5, 9):
        for n in range(1, 6):
            for k in {1, n}:
                if q ** k > 4096:
                    continue
                for _ in range(6):
                    code = random_code(rng, q, n, k)
                    if rank(code.generator) == k:
                        assert min_distance(code) == min_distance_by_vecmat(code), (q, n, k)
    f9 = make_field(3, 2)
    assert min_distance(LinearCode(f9, 3, 3, FqMatrix.identity(f9, 3))) == 1
    assert min_distance(LinearCode(f9, 4, 1, FqMatrix.from_rows(f9, [(5, 1, 8, 3)]))) == 4
    assert min_distance(LinearCode(F3, 4, 0, FqMatrix(F3, 0, 4, ()))) == 5  # the zero code


def test_min_distance_rank_deficient_reads_zero():
    rng = random.Random(6)
    seen = 0
    for q in (2, 3, 4, 9):
        for _ in range(40):
            n, k = rng.randint(1, 5), rng.randint(2, 3)
            code = random_code(rng, q, n, k)
            rows = [list(code.generator.row(i)) for i in range(k)]
            c = rng.randrange(q)
            rows[-1] = [code.field.mul(c, a) for a in rows[0]]
            code = LinearCode(code.field, n, k, FqMatrix.from_rows(code.field, rows))
            assert min_distance(code) == min_distance(code, valid_at=n) == 0
            assert min_distance_by_gray(code) == 0
            # The oracle stops at its first weight-1 word, which may come before
            # its first zero word; otherwise it reads 0 as well.
            if min_distance_by_vecmat(code) == 0:
                seen += 1
            else:
                assert min_distance_by_vecmat(code) == 1
    assert seen > 100
    dup = LinearCode(F2, 2, 2, FqMatrix.from_rows(F2, [(1, 0), (1, 0)]))
    assert min_distance(dup) == 0 and min_distance_by_vecmat(dup) == 1


def test_code_command_pins_distance(capsys):
    assert run(["code", str(FIXTURE), "--min-distance"]) == 0
    assert capsys.readouterr().out.endswith("d: 6\ndefect: 1\n")
    assert run(["--json", "code", str(FIXTURE), "--min-distance"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["k"], payload["d"], payload["defect"]) == (9, 3, 6, 1)


# -- the column route: d = n - k + 1 - g' ---------------------------------------

def column_route_sets():
    """Constructed genus-0 and genus-1 sets, and duplicated genus-0 sets."""
    F4, F7 = field_from_order(4), make_field(7)
    line = [genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 3).udmg,
            genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg,
            genus0_udmg(F4, [0, 1, 2, 3, INFINITY], 3).udmg,
            genus0_udmg(F7, [0, 2, 3, 5, 6], 4).udmg]
    genus1 = [reference.matrix_set()]
    for q, degrees in ((7, (2, 3)), (11, (3, 4))):
        curve = WeierstrassCurve(make_field(q), 1, 1)
        genus1 += [goppa_udmg(curve, enumerate_points(curve)[1:], DivisorSpec(n, None)).udmg
                for n in degrees]
    pair4 = genus0_udmg(F4, [0, 1, 2, 3, INFINITY], 2).udmg
    dup = [duplicated(line[1], g) for g in (1, 2)] + [duplicated(pair4, 1)]
    return line + genus1 + dup


def test_column_route_matches_gray_scan_and_vecmat():
    for u in column_route_sets():
        assert verify(u).valid
        code = first_column_code(u, compute_distance=False)
        d = min_distance(code, valid_at=u.g)
        assert d == min_distance_by_gray(code) == min_distance_by_vecmat(code), (u.field.q, u.K, u.g)
        assert first_column_code(u).d == d
        # any genus at which the columns verify gives the same d, n - k by default
        assert min_distance(code) == min_distance(code, valid_at=code.n - code.k) == d


def all_full_rank_codes(q, n, k):
    f = field_from_order(q)
    for entries in product(range(q), repeat=n * k):
        G = FqMatrix(f, k, n, entries)
        if rank(G) == k:
            yield LinearCode(f, n, k, G)


def one_column_set(code):
    f, G = code.field, code.generator
    return Udmg(f, code.k, 0, tuple(FqMatrix(f, code.k, 1, G.col(j)) for j in range(code.n)))


def check_column_route(code):
    g, _ = minimal_genus(one_column_set(code))
    d = min_distance(code, valid_at=g)
    assert d == code.n - code.k + 1 - g
    assert d == min_distance(code) == min_distance_by_gray(code) == min_distance_by_vecmat(code)
    for h in range(g, code.n - code.k + 1):
        assert min_distance(code, valid_at=h) == d


@pytest.mark.parametrize("q,n,k", [(2, 3, 1), (2, 4, 2), (2, 5, 2), (2, 4, 3), (3, 3, 2),
                                   (3, 4, 1)])
def test_column_route_exhaustive_small(q, n, k):
    for code in all_full_rank_codes(q, n, k):
        check_column_route(code)


@given(st.sampled_from([2, 3, 4, 5, 7]), st.integers(1, 8), st.data())
@settings(max_examples=120, deadline=None)
def test_column_route_matches_gray_scan_drawn(q, n, data):
    k = data.draw(st.integers(1, n))
    if q ** k > 4096:
        k = max(j for j in range(1, k + 1) if q ** j <= 4096)
    code = random_code(random.Random(data.draw(st.integers(0, 2 ** 32))), q, n, k)
    if rank(code.generator) == k:
        check_column_route(code)


def certificate_weights(code):
    """Weights of the codewords whose messages annihilate the failing witness's columns
    at g' - 1 (any k - 1 columns when g' = 0): by kernel_basis, and by the annihilator
    recursion the scan once carried, checked against each other's vanishing set."""
    from test_core import _annihilate, method_ops

    f, n, k, G = code.field, code.n, code.k, code.generator
    ones = one_column_set(code)
    g, _ = minimal_genus(ones)
    if g == 0:
        zeros = range(k - 1)
    else:
        zeros = [j for j, v in enumerate(verify(ones.with_genus(g - 1)).witness) if v]
    cols = [G.col(j) for j in zeros]
    y = kernel_basis(FqMatrix(f, len(cols), k, tuple(e for c in cols for e in c))).vectors[0]
    ann, ops = [[int(r == c) for c in range(k)] for r in range(k)], method_ops(f)
    for c in cols:
        ann = _annihilate(ops, ann, c)
    words = [G.vecmat(y), G.vecmat(ann[0])]
    assert all(w[j] == 0 for w in words for j in zeros)
    return g, [n - w.count(0) for w in words]


CERTIFICATE_FIELDS = [2, 3, 4, 13, 25]


@pytest.mark.parametrize("q", CERTIFICATE_FIELDS)
def test_certificates_at_k_1_and_genus_0(q):
    # k = 1 with every entry nonzero: g' = 0 and an empty witness, so the message is e_0;
    # a Reed-Solomon code is MDS, so g' = 0 with k - 1 columns
    f = field_from_order(q)
    n = min(q, 5)
    codes = [LinearCode(f, n, 1, FqMatrix(f, 1, n, (1,) * n))]
    if q > 2:
        xs = list(range(n))
        codes.append(LinearCode(f, n, 2, FqMatrix.from_rows(f, [[1] * n, xs])))
    for code in codes:
        d = min_distance(code)
        assert certificate_weights(code) == (0, [d, d])
        assert d == min_distance_by_vecmat(code) == n - code.k + 1


@given(st.sampled_from(CERTIFICATE_FIELDS), st.integers(1, 7), st.data())
@settings(max_examples=150, deadline=None)
def test_certificates_attain_the_minimum_distance(q, n, data):
    k = data.draw(st.integers(1, n))
    if q ** k > 4096:
        k = max(j for j in range(1, k + 1) if q ** j <= 4096)
    code = random_code(random.Random(data.draw(st.integers(0, 2 ** 32))), q, n, k)
    if rank(code.generator) == k:
        d = min_distance(code)
        assert d == min_distance_by_vecmat(code)
        g, weights = certificate_weights(code)
        assert weights == [d, d] and d == n - k + 1 - g


def test_column_route_certificate_rejects_a_low_genus():
    # the bundled [9, 3] code has d = 6, so its columns first verify at genus 1
    code = first_column_code(reference.matrix_set(), compute_distance=False)
    with pytest.raises(AssertionError, match="certificate"):
        min_distance(code, valid_at=0)
    # a duplicated line's code has every codeword zero on both copies of a column
    dup = first_column_code(duplicated(genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg, 1),
                            compute_distance=False)
    assert min_distance(dup, valid_at=1) == 6
    with pytest.raises(AssertionError, match="certificate"):
        min_distance(dup, valid_at=0)
    with pytest.raises(ValueError):
        min_distance(dup, valid_at=-1)


def test_column_route_needs_no_scan_at_genus_0(monkeypatch):
    from udmg import core

    monkeypatch.setattr(core, "_scan", None)
    code = first_column_code(genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 3).udmg, verified=True)
    assert code.d == 4


@pytest.mark.parametrize("q,L,K,d", [(23, 27, 5, 22), (17, 17, 6, 11)])
def test_code_command_past_2_22_codewords(tmp_path, capsys, q, L, K, d):
    """Genus-1 s^2 = r^3 + r + 1 on all affine points, with q^K > 2^22 codewords."""
    points = [list(P) for P in enumerate_points(WeierstrassCurve(field_from_order(q), 1, 1))
              if P is not INFINITY]
    u = construction_from_data({"q": q, "genus": 1, "a": 1, "b": 1, "points": points,
                                "divisor": {"n": K}}).udmg
    path = tmp_path / "set.json"
    save_matrixset(u, str(path))
    assert run(["--json", "code", str(path), "--min-distance"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["k"], payload["d"], payload["defect"]) == (L, K, d, 1)
