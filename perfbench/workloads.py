"""The benchmark's workloads: seeded inputs, command lists, and answer checks.

Each workload is a list of udmg CLI commands issued in a closed loop.  The
seed picks point orders and subsets and which matrix is corrupted; the
program sees only the files written here.  Every command has a checker that
re-derives the answer with oracles.py; on the default seed the checker also
compares against expected.json, produced by make_expected.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@dataclass
class Op:
    name: str            # unique within the workload; key into expected.json
    kind: str            # command class: verify, construct, code, modulate, ...
    argv: list
    check: object        # (argv, exit code, stdout, stderr) -> list of problems
    prepare: object = None   # untimed step run just before the command
    known_defect: bool = False


@dataclass
class Workload:
    name: str
    subprocess: bool     # one fresh interpreter per command
    ops: list
    orders: list = field(default_factory=list)        # FieldSpecs built at set-up
    read_files: list = field(default_factory=list)    # inputs read at set-up


# -- reading outputs -------------------------------------------------------------

def payload_of(argv, out):
    """The report as a dict: parsed JSON, or key -> text for text reports."""
    if "--json" in argv:
        return json.loads(out.strip().splitlines()[-1])
    rep = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            rep[key] = value
    return rep


def same(got, want):
    if isinstance(got, str) and not isinstance(want, str):
        return got == str(want)
    return got == want


def frac(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def expect(problems, rep, key, want):
    if key not in rep:
        problems.append(f"missing {key!r}")
    elif not same(rep[key], want):
        problems.append(f"{key}: got {rep[key]!r}, want {want!r}")


def as_bool(x):
    return x if isinstance(x, bool) else x == "True"


def load_set(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data, oracles.field_of(data), data["matrices"]


def _stored(ws, name):
    return ws.get(name, {}) if ws is not None else {}


def _compare_stored(problems, rep, stored):
    for key, want in stored.items():
        expect(problems, rep, key, want)


# -- checkers ----------------------------------------------------------------------

def check_verify(path, genus=None, expect_valid=None, min_genus=False, stored=None):
    def check(argv, code, out, err):
        problems = []
        data, f, mats = load_set(path)
        K = data["K"]
        g = data["g"] if genus is None else genus
        rep = payload_of(argv, out)
        valid = as_bool(rep.get("valid"))
        if code != (0 if valid else 1):
            problems.append(f"exit {code} with valid={valid}")
        if expect_valid is not None and valid != expect_valid:
            problems.append(f"valid={valid}, want {expect_valid}")
        expect(problems, rep, "genus", g)
        expect(problems, rep, "checked", oracles.count_allowable([len(M[0]) for M in mats], K + g))
        if not valid:
            w = rep.get("witness")
            w = json.loads(w) if isinstance(w, str) else w
            bad = oracles.witness_problem(f, mats, K, g, w)
            if bad:
                problems.append(bad)
        if min_genus:
            mg = int(rep.get("minimal_genus", -1))
            # Validity is monotone in the genus.
            if mg < 0 or (mg <= g) != valid:
                problems.append(f"minimal_genus {mg} inconsistent with verdict at genus {g}")
            total = sum(len(M[0]) for M in mats)
            expect(problems, rep, "minimal_genus_vacuous", K + mg > total)
        _compare_stored(problems, rep, stored or {})
        return problems

    return check


def valuations_ok(genus, K, P, v):
    """Orders of vanishing at P of an increasing zero basis of L(D).

    On the line, D = (K-1)*inf: 0..K-1 at a finite point, -(K-1)..0 at inf.
    On a genus-1 curve, l(D - kP) = K - k for k < K, so the orders are
    0..K-2 followed by K-1, or by K when D ~ K*P.
    """
    if genus == 0:
        return v == (list(range(1 - K, 1)) if P == "inf" else list(range(K)))
    return v[:-1] == list(range(K - 1)) and v[-1] in (K - 1, K)


def check_construct(cdata, out_path, stored=None):
    def check(argv, code, out, err):
        problems = []
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        rep = payload_of(argv, out)
        expect(problems, rep, "verified", True)
        K = cdata["K"] if cdata["genus"] == 0 else cdata["divisor"]["n"]
        L = len(cdata["points"])
        for key, want in (("q", cdata["q"]), ("genus", cdata["genus"]), ("K", K), ("L", L)):
            expect(problems, rep, key, want)
        data, f, mats = load_set(out_path)
        if (data["p"] ** data["m"], data["K"], data["g"], len(mats)) != (cdata["q"], K, cdata["genus"], L):
            problems.append("output file has the wrong field, K, g or L")
        for i, M in enumerate(mats):
            if len(M) != K or any(len(r) != K for r in M) or oracles.rank(f, M) != K:
                problems.append(f"matrix {i} is not an invertible {K}x{K} change of basis")
        if isinstance(rep.get("valuations"), list):
            for P, v in zip(cdata["points"], rep["valuations"]):
                if not valuations_ok(cdata["genus"], K, P, v):
                    problems.append(f"valuations {v} at {P} impossible for L(D), deg D = {K}")
            expect(problems, rep, "generator", [[M[i][0] for M in mats] for i in range(K)])
        _compare_stored(problems, rep, stored or {})
        return problems

    return check


def check_code(path, stored=None):
    def check(argv, code, out, err):
        problems = []
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        rep = payload_of(argv, out)
        data, f, mats = load_set(path)
        G = [[M[i][0] for M in mats] for i in range(data["K"])]
        d = oracles.min_distance(f, G)
        n, k = len(mats), data["K"]
        for key, want in (("n", n), ("k", k), ("d", d), ("defect", n + 1 - d - k)):
            expect(problems, rep, key, want)
        if n + 1 - d - k > data["g"]:
            problems.append("Singleton defect exceeds the genus")
        _compare_stored(problems, rep, stored or {})
        return problems

    return check


def check_modulate(path, snr=False, audit=False, stored=None):
    def check(argv, code, out, err):
        problems = []
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        rep = payload_of(argv, out)
        data, f, mats = load_set(path)
        q, N, L, g = data["p"] ** data["m"], data["K"], len(mats), data["g"]
        invertible = all(oracles.rank(f, M) == N for M in mats)
        for key, want in (("q", q), ("N", N), ("L", L)):
            expect(problems, rep, key, want)
        if "--json" in argv:
            expect(problems, rep, "weights", [frac(w) for w in oracles.pam_weights(q, N)])
        if invertible:
            expect(problems, rep, "delta", 0)
            expect(problems, rep, "rate_symbols", N)
        if snr:
            lo, hi = oracles.snr_bounds(q, N, g, L)
            expect(problems, rep, "snr_lower", frac(lo))
            expect(problems, rep, "snr_upper", frac(hi))
            expect(problems, rep, "snr_within_bounds", True)
            if invertible:
                expect(problems, rep, "snr", frac(oracles.snr_full_space(q, N, L)))
        if audit:
            floor = oracles.audit_floor(q, N, g, L)
            expect(problems, rep, "audit_floor", frac(floor))
            expect(problems, rep, "audit_passed", True)
            expect(problems, rep, "audit_vacuous", False)
            if invertible:
                expect(problems, rep, "audit_pairs", math.comb(q ** N, 2))
            if "audit_min_product" in rep and Fraction(rep["audit_min_product"]) < floor:
                problems.append("audit minimum product below its floor")
        _compare_stored(problems, rep, stored or {})
        return problems

    return check


def check_quotient(path, trunc):
    def check(argv, code, out, err):
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        problems = []
        rep = payload_of(argv, out)
        data, f, mats = load_set(path)
        K, g = data["K"], data["g"]
        heads = [c for M, n in zip(mats, trunc) for c in oracles.columns(M)[:n]]
        b_dim = oracles.rank(f, heads) if heads else 0
        r = max(K - sum(trunc), 0)
        d = K - r - b_dim
        want = {"d": d, "r": r, "B_dim": b_dim, "height": d + r, "genus": g - d,
                "lengths": [len(M[0]) - n for M, n in zip(mats, trunc)], "valid": True}
        for key, value in want.items():
            expect(problems, rep, key, value)
        return problems

    return check


def check_bounds(K, q, g, lengths):
    def check(argv, code, out, err):
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        problems = []
        rep = payload_of(argv, out)
        for key, value in oracles.bounds_report(K, q, g, lengths).items():
            expect(problems, rep, key, value)
        return problems

    return check


def check_example(path, sha256):
    def check(argv, code, out, err):
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        problems = []
        rep = payload_of(argv, out)
        expect(problems, rep, "all_passed", True)
        with open(path, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != sha256:
                problems.append("emitted reference set differs from the bundled instance")
        return problems

    return check


def check_rejected(argv, code, out, err):
    """Malformed input: the right answer is exit 2 with a message."""
    if code != 2 or "error" not in err:
        return [f"exit {code} for malformed input, want 2"]
    return []


# -- inputs --------------------------------------------------------------------------

def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def affine_points(q, a, b):
    from udmg import curves
    from udmg.fields import field_from_order

    pts = curves.enumerate_points(curves.WeierstrassCurve(field_from_order(q), a, b))
    return [list(P) for P in pts if P is not curves.INFINITY]


def genus1(q, a, b, n, points):
    return {"q": q, "genus": 1, "a": a, "b": b, "points": points, "divisor": {"n": n}}


def genus0(q, K, points):
    return {"q": q, "genus": 0, "K": K,
            "points": ["inf" if p == q else str(p) for p in points]}


def line_points(rng, q, count):
    """count of the q+1 points of the projective line (q stands for inf)."""
    return rng.sample(range(q + 1), count)


def construct_op(work, tag, cdata, ws, json_out=True, name=None):
    """construct <tag>.json -o <tag>_out.json; returns (op, output path)."""
    src = write_json(os.path.join(work, f"{tag}.json"), cdata)
    out = os.path.join(work, f"{tag}_out.json")
    argv = (["--json"] if json_out else []) + ["construct", src, "-o", out]
    name = name or f"construct:{tag}"
    return Op(name, "construct", argv, check_construct(cdata, out, _stored(ws, name))), out


def verify_op(tag, path, ws, extra=(), json_out=True, **kw):
    argv = (["--json"] if json_out else []) + ["verify", path, *extra]
    name = f"verify:{tag}" + "".join(extra).replace("--", ":")
    genus = int(extra[extra.index("--genus") + 1]) if "--genus" in extra else None
    return Op(name, "verify", argv, check_verify(path, genus=genus, min_genus="--min-genus" in extra,
                                                  stored=_stored(ws, name), **kw))


def corrupt(src, dst, rng, L, p):
    """Copy src with matrix i's first column replaced by c * (matrix j's).

    Two parallel first columns plus any K-2 further columns make an allowable
    vector that cannot span, so the copy is invalid at genus 0.
    """
    i, j = rng.sample(range(L), 2)
    c = rng.randrange(1, p)

    def prepare():
        with open(src, encoding="utf-8") as fh:
            data = json.load(fh)
        mats = data["matrices"]
        for r in range(data["K"]):
            mats[i][r][0] = c * mats[j][r][0] % data["p"]
        write_json(dst, data)

    return prepare


def build_prime_verify(seed, work, ws):
    rng = random.Random(f"prime_verify:{seed}")
    ops = []
    c, a_out = construct_op(work, "g1_q11", genus1(11, 1, 3, 5, rng.sample(affine_points(11, 1, 3), 12)), ws)
    ops += [c, verify_op("g1_q11", a_out, ws, expect_valid=True),
            verify_op("g1_q11", a_out, ws, ("--genus", "0"))]
    pts = affine_points(13, 1, 1)
    rng.shuffle(pts)
    c, b_out = construct_op(work, "g1_q13", genus1(13, 1, 1, 4, pts), ws)
    ops += [c, verify_op("g1_q13", b_out, ws, ("--min-genus",), expect_valid=True)]
    c, c_out = construct_op(work, "g0_q13", genus0(13, 5, line_points(rng, 13, 14)), ws)
    bad = os.path.join(work, "g0_q13_corrupt.json")
    ops += [c, verify_op("g0_q13", c_out, ws, expect_valid=True)]
    v = verify_op("g0_q13_corrupt", bad, ws, expect_valid=False)
    v.prepare = corrupt(c_out, bad, rng, 14, 13)
    ops.append(v)
    return Workload("prime_verify", False, ops, orders=[11, 13],
                    read_files=[os.path.join(work, f"{t}.json") for t in ("g1_q11", "g1_q13", "g0_q13")])


def build_gf_extension(seed, work, ws):
    rng = random.Random(f"gf_extension:{seed}")
    ops = []
    c, out = construct_op(work, "g0_q16", genus0(16, 4, line_points(rng, 16, 14)), ws)
    ops += [c, verify_op("g0_q16", out, ws, expect_valid=True)]
    c, out = construct_op(work, "g1_q25", genus1(25, 1, 1, 3, rng.sample(affine_points(25, 1, 1), 14)), ws)
    ops += [c, verify_op("g1_q25", out, ws, expect_valid=True),
            verify_op("g1_q25", out, ws, ("--genus", "0"))]
    c, out = construct_op(work, "g0_q32", genus0(32, 3, line_points(rng, 32, 20)), ws)
    ops += [c, verify_op("g0_q32", out, ws, ("--min-genus",), expect_valid=True)]
    return Workload("gf_extension", False, ops, orders=[16, 25, 32],
                    read_files=[os.path.join(work, f"{t}.json") for t in ("g0_q16", "g1_q25", "g0_q32")])


def build_code_modulate(seed, work, ws):
    from udmg import cli

    rng = random.Random(f"code_modulate:{seed}")
    sets = {
        "code_q17": genus1(17, 1, 1, 4, rng.sample(affine_points(17, 1, 1), 8)),
        "snr_q11": genus1(11, 1, 3, 4, rng.sample(affine_points(11, 1, 3), 8)),
        "audit_q11": genus1(11, 1, 3, 3, rng.sample(affine_points(11, 1, 3), 3)),
    }
    paths = {}
    for tag, cdata in sets.items():
        paths[tag] = os.path.join(work, f"{tag}.json")
        cli.save_matrixset(cli.construction_from_data(cdata).udmg, paths[tag])
    name = "code:code_q17"
    ops = [Op(name, "code", ["--json", "code", paths["code_q17"], "--min-distance"],
              check_code(paths["code_q17"], _stored(ws, name)))]
    name = "modulate:snr_q11"
    ops.append(Op(name, "modulate", ["--json", "modulate", paths["snr_q11"], "--snr"],
                  check_modulate(paths["snr_q11"], snr=True, stored=_stored(ws, name))))
    name = "modulate:audit_q11"
    ops.append(Op(name, "modulate", ["--json", "modulate", paths["audit_q11"], "--audit"],
                  check_modulate(paths["audit_q11"], audit=True, stored=_stored(ws, name))))
    return Workload("code_modulate", False, ops, orders=[17, 11], read_files=list(paths.values()))


def reference_ops(seed, work, ws, formats=(True,)):
    """The bundled F_5 instance through every command, once per format."""
    rng = random.Random(f"reference:{seed}")
    ref = os.path.join(work, "ref.json")
    pts = ["inf"] + affine_points(5, 1, 1)
    rng.shuffle(pts)
    cdata = {"q": 5, "genus": 1, "a": 1, "b": 1, "points": pts, "divisor": {"n": 3, "h": "r+s"}}
    trunc = [0] * 9
    trunc[rng.randrange(9)] = 1
    sha = load_expected()["reference_sha256"]
    ops = []
    for js in formats:
        j = ["--json"] if js else []
        sfx = ":json" if js else ":text"
        ops.append(Op("example" + sfx, "example", j + ["example-paper", "-o", ref],
                      check_example(ref, sha)))
        ops.append(verify_op("ref" + sfx, ref, ws, json_out=js, expect_valid=True))
        ops.append(verify_op("ref" + sfx, ref, ws, ("--genus", "0"), json_out=js, expect_valid=False))
        ops.append(verify_op("ref" + sfx, ref, ws, ("--min-genus",), json_out=js, expect_valid=True))
        c, _ = construct_op(work, "ref_c" + sfx.replace(":", "_"), cdata, ws, json_out=js,
                            name="construct:ref" + sfx)
        ops.append(c)
        ops.append(Op("quotient" + sfx, "quotient",
                      j + ["quotient", ref, "--truncate", ",".join(map(str, trunc))],
                      check_quotient(ref, trunc)))
        ops.append(Op("code" + sfx, "code", j + ["code", ref, "--min-distance"],
                      check_code(ref, _stored(ws, "code" + sfx))))
        ops.append(Op("modulate" + sfx, "modulate", j + ["modulate", ref, "--snr", "--audit"],
                      check_modulate(ref, snr=True, audit=True, stored=_stored(ws, "modulate" + sfx))))
        ops.append(Op("bounds" + sfx, "bounds",
                      j + ["bounds", "--K", "4", "--q", "2", "--g", "2", "--lengths", "4,4,4"],
                      check_bounds(4, 2, 2, (4, 4, 4))))
    return ops


def build_cli_small(seed, work, ws):
    rng = random.Random(f"cli_small:{seed}")
    ops = reference_ops(seed, work, ws, formats=(False, True))
    for q in (1 << 16, 1 << 20, 1048573):
        tag = f"g0_tiny_{q}"
        c, out = construct_op(work, tag, genus0(q, 3, rng.sample(range(q), 6)), ws)
        ops += [c, verify_op(tag, out, ws, expect_valid=True),
                Op(f"modulate:{tag}", "modulate", ["--json", "modulate", out], check_modulate(out))]
    unreadable = os.path.join(work, "bad_unreadable.json")
    with open(unreadable, "w", encoding="utf-8") as fh:
        fh.write('{"p": 5, "m": ')
    bad = {
        "unreadable": ("verify", unreadable),
        "missing_key": ("verify", write_json(os.path.join(work, "bad_missing_key.json"),
                                             {"p": 5, "m": 1, "g": 0, "matrices": [[[1]]]})),
        "missing_file": ("verify", os.path.join(work, "no_such_file.json")),
        "q6": ("construct", write_json(os.path.join(work, "bad_q6.json"),
                                       genus0(6, 2, [0, 1]))),
    }
    for tag, (cmd, path) in bad.items():
        argv = [cmd, path] + (["-o", os.path.join(work, "bad_out.json")] if cmd == "construct" else [])
        ops.append(Op(f"malformed:{tag}", "malformed", argv, check_rejected))
    # Accepted today although the right answer is exit 2 (ROADMAP item 5).
    floaty = write_json(os.path.join(work, "bad_float.json"), {
        "p": 5, "m": 1, "K": 2, "g": 0,
        "matrices": [[[1, 0], [0, 1]], [[1, 1], [1, 2.0]]]})
    ops.append(Op("known_defect:float_entry", "malformed", ["verify", floaty], check_rejected,
                  known_defect=True))
    ops.append(Op("known_defect:bounds_q6", "malformed", ["bounds", "--K", "4", "--q", "6", "--g", "1"],
                  check_rejected, known_defect=True))
    return Workload("cli_small", True, ops, orders=[5, 1 << 16, 1 << 20, 1048573],
                    read_files=[os.path.join(work, f"g0_tiny_{q}.json")
                                for q in (1 << 16, 1 << 20, 1048573)])


BUILDERS = {
    "prime_verify": build_prime_verify,
    "gf_extension": build_gf_extension,
    "code_modulate": build_code_modulate,
    "cli_small": build_cli_small,
}
NAMES = tuple(BUILDERS)


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build(name, seed, work):
    """Write the workload's inputs for this seed and return its command list."""
    ws = load_expected()["workloads"].get(name) if seed == DEFAULT_SEED else None
    return BUILDERS[name](seed, work, ws)
