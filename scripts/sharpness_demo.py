#!/usr/bin/env python3
"""Show that the class-1 size cap (g+1)(q+1) is met with equality.

Starting from the full projective-line family with K = 2 (q+1 matrices of
size 2x2, genus 0), repeating every matrix g+1 times yields a verified
genus-g family of exactly (g+1)(q+1) members.  At the code level its
first-column code has d = (g+1)q, so its Singleton defect n - k + 1 - d is
exactly g: each unit of genus costs one unit of distance.  The script also
runs the modulation audits on each duplicated family that admits a scheme,
and exits 1 if any family misses the cap, fails verification, has a defect
other than g or fails an audit.
"""

import argparse

from udmg.codes import bounds, duplicated, first_column_code
from udmg.core import verify
from udmg.curves import INFINITY, genus0_udmg
from udmg.errors import HypothesisUnmetError
from udmg.fields import make_field
from udmg.waveform import audit_product_distance, build_scheme, snr


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--g", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args()

    ok = True
    for q in args.q:
        field = make_field(q)
        base = genus0_udmg(field, list(range(q)) + [INFINITY], 2).udmg
        for g in args.g:
            dup = duplicated(base, g)
            rep = verify(dup)
            cap = bounds(2, q, g, lengths=dup.lengths).class1_bound
            status = "valid" if rep.valid else f"INVALID witness={rep.witness}"
            print(f"q={q} g={g}: L={dup.L} cap={cap} "
                  f"meets_cap={dup.L == cap} {status}")
            ok &= rep.valid and dup.L == cap
            if rep.valid:
                code = first_column_code(dup, verified=True)
                print(f"  first-column code [{code.n},{code.k}] d={code.d} "
                      f"defect={code.defect}")
                ok &= code.defect == g
            try:
                scheme = build_scheme(dup, verified=rep.valid)
            except HypothesisUnmetError as exc:
                print(f"  scheme skipped: {exc}")
                continue
            srep = snr(scheme)
            arep = audit_product_distance(scheme)
            print(f"  snr={srep.snr} within_bounds={srep.within} "
                  f"audit={'pass' if arep.passed else 'FAIL'} "
                  f"pairs={arep.pairs_checked}")
            ok &= srep.within and arep.passed
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
