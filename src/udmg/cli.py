"""Command-line surface: verification, construction, quotients, code and
bound reports, modulation audits, and the bundled worked example.

Exit codes: 0 for success or a valid set, 1 for an invalid set (witness
printed) or a failed audit, 2 for usage and file errors.  Reports are
human-readable tables by default and JSON with --json; output is
deterministic.  --threads is accepted and ignored.

Only core, fields, linalg and errors, which any matrix-set file needs, load
with this module; curves, codes, waveform, reference and fractions load on
demand in the subcommands that use them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from importlib import import_module

from .core import Udmg, minimal_genus, quotient, realize, verify
from .errors import UdmgError
from .fields import FieldSpec, field_from_order
from .linalg import FqMatrix, rref


def _deferred(module: str, name: str):
    """Stand-in for udmg.<module>.<name> that imports the module when first called.

    It stays bound in this module, so a wrapper installed over the name here
    still sees every call.
    """
    def call(*args, **kwargs):
        return getattr(import_module(f"udmg.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


first_column_code = _deferred("codes", "first_column_code")
genus0_udmg = _deferred("curves", "genus0_udmg")
goppa_udmg = _deferred("curves", "goppa_udmg")
audit_product_distance = _deferred("waveform", "audit_product_distance")
build_scheme = _deferred("waveform", "build_scheme")
snr = _deferred("waveform", "snr")

# -- bit-exact matrix-set file format -----------------------------------------

def matrixset_to_text(u: Udmg) -> str:
    """Canonical serialization: fixed key order, one matrix per line, LF EOF."""
    if any(M.cols and not M.rows for M in u.matrices):  # [] would read back with no columns
        raise ValueError(f"height {u.K} with lengths {list(u.lengths)} has no row-major form")
    lines = ["{", f'  "p": {u.field.p},', f'  "m": {u.field.m},']
    if u.field.m > 1:
        lines.append(f'  "modulus": {json.dumps(list(u.field.modulus))},')
    lines += [f'  "K": {u.K},', f'  "g": {u.g},', '  "matrices": [']
    mats = [f"    {json.dumps([list(M.row(i)) for i in range(M.rows)])}" for M in u.matrices]
    lines += [m + "," for m in mats[:-1]] + mats[-1:] + ["  ]", "}"]
    return "\n".join(lines) + "\n"


def matrixset_from_text(text: str) -> Udmg:
    data = json.loads(text)
    for key in ("p", "m", "K", "g", "matrices"):
        if key not in data:
            raise ValueError(f"matrix-set file missing key {key!r}")
    for key in ("p", "m", "K", "g"):
        if type(data[key]) is not int:  # rejects bool and floats like 1.0, as entries do
            raise ValueError(f"{key} {data[key]!r} is not an integer")
    if data["m"] > 1:
        modulus = data.get("modulus")
        if type(modulus) is not list:
            raise ValueError(f"modulus {modulus!r} is not a list")
        field = FieldSpec(data["p"], data["m"], tuple(modulus))
    else:
        field = FieldSpec(data["p"])
    mats = tuple(FqMatrix.from_rows(field, rows) for rows in data["matrices"])
    return Udmg(field, data["K"], data["g"], mats)


def load_matrixset(path: str) -> Udmg:
    with open(path, "r", encoding="utf-8") as fh:
        return matrixset_from_text(fh.read())


def save_matrixset(u: Udmg, path: str) -> None:
    text = matrixset_to_text(u)  # before the file opens: a refused set leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- construction file ----------------------------------------------------------

_FN_ALLOWED = set("0123456789rs+-*^() ")
_FN_TOKEN = re.compile(r"\d+|\*\*|[rs+\-*^()]")
MAX_EXPONENT = 64  # largest exponent a function string may use
MAX_SIZE = 512  # largest bit length of an integer, or degree in r of a function, from * or ^


def _size(x) -> int:
    """Bit length of an integer; for (A + s*B)/C a bound that adds under * (s^2 has degree 3)."""
    if isinstance(x, int):
        return x.bit_length()
    return max(x.A.degree, x.B.degree + 2, x.C.degree)


def parse_function(curve: WeierstrassCurve, text: str) -> FnElement:
    """Polynomial in r and s with integer coefficients, e.g. 'r+s' or '2*r^2+1'.

    Grammar: sum = product (('+' | '-') product)*; product = unary ('*' unary)*;
    unary = ('+' | '-') unary | atom ('^' unary)?; atom = r | s | integer | '(' sum ')'.
    '^' (also written '**') is right-associative.  Each exponent must be an integer
    in [0, MAX_EXPONENT], and a product or power whose size (see _size) would pass
    MAX_SIZE is refused before it is computed, so no input starts unbounded work.
    """
    from .curves import FnElement

    if not set(text) <= _FN_ALLOWED:
        raise ValueError(f"unsupported characters in function string {text!r}")
    tokens = ["^" if tok == "**" else tok for tok in _FN_TOKEN.findall(text)] + [None]
    at = 0

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def capped(size, what):
        if size > MAX_SIZE:
            raise ValueError(f"{what} in function string {text!r} exceeds size {MAX_SIZE}")

    def sum_():
        value = product()
        while tokens[at] in ("+", "-"):
            value = value + product() if take() == "+" else value - product()
        return value

    def product():
        value = unary()
        while tokens[at] == "*":
            take()
            rhs = unary()
            if isinstance(value, int) == isinstance(rhs, int):  # int * function: no growth
                capped(_size(value) + _size(rhs), "product")
            value = value * rhs
        return value

    def unary():
        if tokens[at] in ("+", "-"):
            return -unary() if take() == "-" else +unary()
        base = atom()
        if tokens[at] != "^":
            return base
        take()
        e = unary()
        if not isinstance(e, int) or not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent {e} in function string {text!r} is not an integer "
                             f"in [0, {MAX_EXPONENT}]")
        capped(e * _size(base), "power")
        return base ** e

    def atom():
        tok = take()
        if tok == "(":
            value = sum_()
            if take() != ")":
                raise ValueError(f"expected ')' in function string {text!r}")
            return value
        if tok == "r":
            return FnElement.r(curve)
        if tok == "s":
            return FnElement.s(curve)
        if tok is not None and tok.isdigit():
            return int(tok)
        raise ValueError(f"unexpected {tok or 'end'} in function string {text!r}")

    try:
        value = sum_()
    except RecursionError:
        raise ValueError(f"function string {text!r} is nested too deeply") from None
    if tokens[at] is not None:
        raise ValueError(f"unexpected {tokens[at]} in function string {text!r}")
    if isinstance(value, int):
        value = FnElement.const(curve, value)
    return value


def _integer(value, what: str) -> int:
    """An int or a decimal string such as "3" (point tokens are often written so).

    Floats and bools are refused rather than truncated by int().
    """
    if type(value) is int or isinstance(value, str):
        return int(value)
    raise ValueError(f"{what} {value!r} is not an integer")


def construction_from_data(data: dict):
    from .curves import INFINITY, DivisorSpec, WeierstrassCurve

    q = data["q"]
    field = field_from_order(q)
    genus = data["genus"]
    if type(genus) is not int:
        raise ValueError(f"genus {genus!r} is not an integer")
    if genus == 0:
        points = []
        for tok in data["points"]:
            points.append(INFINITY if tok == "inf" else field.check(_integer(tok, "point")))
        return genus0_udmg(field, points, _integer(data["K"], "K"))
    if genus == 1:
        curve = WeierstrassCurve(field, _integer(data["a"], "a") % q, _integer(data["b"], "b") % q)
        points = []
        for tok in data["points"]:
            if tok == "inf":
                points.append(INFINITY)
            elif isinstance(tok, list) and len(tok) == 2:
                points.append(tuple(_integer(c, "point coordinate") for c in tok))
            else:
                raise ValueError(f"point {tok!r} is not \"inf\" or a pair [r, s]")
        div = data.get("divisor")
        if not isinstance(div, dict) or "n" not in div:
            raise ValueError("genus-1 construction needs divisor: {\"n\": ..., \"h\": ...}")
        h = parse_function(curve, div["h"]) if div.get("h") else None
        return goppa_udmg(curve, points, DivisorSpec(_integer(div["n"], "divisor n"), h))
    raise ValueError("genus must be 0 or 1")


def load_construction(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return construction_from_data(json.load(fh))


# -- report helpers ---------------------------------------------------------------

def _emit(payload: dict, as_json: bool, out=None) -> None:
    out = out if out is not None else sys.stdout
    if as_json:
        print(json.dumps(payload, default=_plain), file=out)
        return
    for key, value in payload.items():
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple)):
            print(f"{key}:", file=out)
            for row in value:
                print(f"  {row if isinstance(row, str) else list(row)}", file=out)
        else:
            print(f"{key}: {_plain(value)}", file=out)


def _plain(x):
    """Fractions as exact 'n' or 'n/d' strings, also inside lists and tuples."""
    fractions = sys.modules.get("fractions")  # no Fraction exists until it is loaded
    if fractions is not None and isinstance(x, fractions.Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


# -- subcommands -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    u = load_matrixset(args.matrixset)
    if args.genus is not None:
        u = u.with_genus(args.genus)
    rep = verify(u)
    payload = {
        "valid": rep.valid,
        "genus": u.g,
        "checked": rep.checked,
        "vacuous": rep.vacuous,
        "witness": list(rep.witness) if rep.witness else None,
    }
    if args.min_genus:
        known = {"valid_at": u.g} if rep.valid else {"start": u.g + 1}
        g_min, vac = minimal_genus(u, **known)
        payload["minimal_genus"] = g_min
        payload["minimal_genus_vacuous"] = vac
    _emit(payload, args.json)
    return 0 if rep.valid else 1


def _point_token(P):
    from .curves import INFINITY

    if P is INFINITY:
        return "inf"
    return P if isinstance(P, int) else list(P)


def _cmd_construct(args) -> int:
    gc = load_construction(args.constructionfile)
    save_matrixset(gc.udmg, args.output)
    payload = {
        "q": gc.field.q,
        "genus": gc.genus,
        "K": gc.udmg.K,
        "L": gc.udmg.L,
        "points": [_point_token(P) for P in gc.points],
        "valuations": [list(v) for v in gc.point_valuations],
        "basis": [str(b) for b in gc.basis0],
        "generator": [list(gc.generator.row(i)) for i in range(gc.generator.rows)],
        "verified": True,
        "output": args.output,
    }
    _emit(payload, args.json)
    return 0


def _cmd_quotient(args) -> int:
    u = load_matrixset(args.matrixset)
    trunc = tuple(int(t) for t in args.truncate.split(","))
    res = quotient(realize(u), trunc)
    payload = {
        "d": res.d,
        "r": res.r,
        "B_dim": res.B_dim,
        "height": res.quotient.K,
        "genus": res.quotient.g,
        "lengths": list(res.quotient.lengths),
        "valid": True,
    }
    if args.output:
        from .core import matrices_from_chains

        save_matrixset(matrices_from_chains(res.quotient), args.output)
        payload["output"] = args.output
    _emit(payload, args.json)
    return 0


def _cmd_code(args) -> int:
    u = load_matrixset(args.matrixset)
    rep = verify(u)
    if not rep.valid:
        _emit({"valid": False, "witness": list(rep.witness)}, args.json)
        return 1
    code = first_column_code(u, compute_distance=args.min_distance, verified=True)
    payload = {
        "n": code.n,
        "k": code.k,
        "generator": [list(code.generator.row(i)) for i in range(code.k)],
    }
    if args.min_distance:
        payload["d"] = code.d
        payload["defect"] = code.defect
    _emit(payload, args.json)
    return 0


def _cmd_bounds(args) -> int:
    from .codes import bounds as bounds_report

    field_from_order(args.q)  # q must be the order of a supported field
    lengths = tuple(int(x) for x in args.lengths.split(",")) if args.lengths else None
    nks = tuple(int(x) for x in args.nks.split(",")) if args.nks else None
    rep = bounds_report(args.K, args.q, args.g, lengths=lengths, nks=nks)
    payload = {
        "K": rep.K, "q": rep.q, "g": rep.g,
        "defect_bound": rep.defect_bound,
        "class": rep.code_class or "n/a",
        "class1_bound": rep.class1_bound,
        "class2_range": list(rep.class2_range),
        "gamma": rep.gamma,
        "partition_bound": rep.partition_bound,
        "notes": list(rep.notes),
    }
    if nks:
        payload["asmds_bound"] = rep.asmds_bound
        payload["asmds_holds"] = rep.asmds_holds
    _emit(payload, args.json)
    return 0


def _cmd_modulate(args) -> int:
    u = load_matrixset(args.matrixset)
    scheme = build_scheme(u)
    payload = {
        "q": u.field.q,
        "N": scheme.N,
        "L": scheme.L,
        "delta": scheme.delta,
        "rate_symbols": scheme.rate_symbols,
        "rate_bits": round(scheme.rate_bits, 6),
        "weights": [w for w in scheme.modulator.weights],
    }
    exit_code = 0
    if args.snr:
        rep = snr(scheme)
        payload["snr"] = rep.snr
        payload["snr_lower"] = rep.lower
        payload["snr_upper"] = rep.upper
        payload["snr_within_bounds"] = rep.within
        if not rep.within:
            exit_code = 1
    if args.audit:
        rep = audit_product_distance(scheme)
        payload["audit_pairs"] = rep.pairs_checked
        payload["audit_min_product"] = rep.min_product
        payload["audit_floor"] = rep.floor
        payload["audit_passed"] = rep.passed
        payload["audit_vacuous"] = rep.vacuous
        if not rep.passed:
            payload["audit_worst_pair"] = [list(v) for v in rep.worst_pair]
            exit_code = 1
    _emit(payload, args.json)
    return exit_code


def _cmd_example(args) -> int:
    """Emit the bundled genus-1 instance and run the whole pipeline on it."""
    from . import reference
    from .curves import INFINITY
    from .waveform import complexify

    out = args.output or "genus1_f5.json"
    u = reference.matrix_set()
    save_matrixset(u, out)
    checks = {}

    valid = checks["verifies_at_genus_1"] = verify(u).valid
    rep0 = verify(u.with_genus(0))
    checks["fails_at_genus_0"] = (not rep0.valid
                                  and rep0.witness == reference.WITNESS_GENUS0)

    gc = construction_from_data({
        "q": 5, "genus": 1, "a": reference.CURVE_A, "b": reference.CURVE_B,
        "points": [("inf" if P is INFINITY else list(P)) for P in reference.POINTS],
        "divisor": {"n": reference.DIVISOR_N, "h": reference.DIVISOR_H},
    })
    checks["construction_reproduces_fixture"] = gc.matrices == u.matrices
    same_rowspace = (rref(gc.generator).matrix
                     == rref(reference.evaluation_generator()).matrix)
    checks["generator_rowspace_matches_hand_evaluation"] = same_rowspace

    code = first_column_code(u, verified=valid)
    checks["code_is_9_3_with_d_in_6_7"] = (code.n, code.k) == (9, 3) and 6 <= code.d <= 7
    checks["defect_at_most_genus"] = code.defect <= u.g

    scheme = build_scheme(u, verified=valid)
    srep = snr(scheme)
    checks["snr_within_bounds"] = srep.within
    arep = audit_product_distance(scheme)
    checks["product_distance_audit"] = arep.passed
    crep = complexify(scheme)
    checks["complexified_power_doubles"] = crep.snr == 2 * crep.base_snr

    payload = dict(checks)
    payload["fixture"] = out
    payload["all_passed"] = all(checks.values())
    _emit(payload, args.json)
    return 0 if payload["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udmg",
        description="Verify, construct, quotient, and audit universally "
                    "decodable matrix sets of genus g.")
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored; verification runs in one thread")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the defining rank property")
    p.add_argument("matrixset")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--min-genus", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="build a matrix set from a curve description")
    p.add_argument("constructionfile")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("quotient", help="quotient by a truncated sub-collection")
    p.add_argument("matrixset")
    p.add_argument("--truncate", required=True, help="comma-separated kept lengths")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("code", help="first-column code parameters")
    p.add_argument("matrixset")
    p.add_argument("--min-distance", action="store_true")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("bounds", help="size caps for the given parameters")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--lengths", default=None)
    p.add_argument("--nks", default=None, help="n,k,s for the defect length cap")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("modulate", help="scheme report with exact SNR and audits")
    p.add_argument("matrixset")
    p.add_argument("--snr", action="store_true")
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=_cmd_modulate)

    p = sub.add_parser("example-paper",
                       help="emit the bundled genus-1 instance and run the "
                            "full pipeline on it")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_example)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except (OSError, UdmgError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
