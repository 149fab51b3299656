#!/usr/bin/env python3
"""Genus-1 constructions on every rational point, checked against the caps.

For each q, the script takes the curve s^2 = r^3 + a r + b with the most
rational points over the (a, b) grid, and builds D = n*O on all of them, O
included (O lies in the support of D, and its rows are read at t^(c - n)).
For each n it prints L, the defect cap K - 2 + (g + 1)(q + 1) at g = 1, the
minimal genus the scan finds, and the first-column code's d and Singleton
defect.  It exits 1 if the minimal genus is above 1, the defect is above 1,
or L passes the cap: each would be a bug in the construction, the
certificate, the scan or the bounds.
"""

import argparse

from udmg.codes import bounds, first_column_code
from udmg.core import minimal_genus
from udmg.curves import DivisorSpec, curve_new, enumerate_points, goppa_udmg
from udmg.errors import SingularCurveError
from udmg.fields import make_field


def richest_curve(q):
    """(a, b, points) of the nonsingular curve with the most points, first in (a, b) order."""
    field = make_field(q)
    best = None
    for a in range(q):
        for b in range(q):
            try:
                points = enumerate_points(curve_new(field, a, b))
            except SingularCurveError:
                continue
            if best is None or len(points) > len(best[2]):
                best = (a, b, points)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, nargs="+", default=[5, 7, 11, 13])
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3, 4])
    args = ap.parse_args()

    ok = True
    for q in args.q:
        a, b, points = richest_curve(q)
        curve = curve_new(make_field(q), a, b)
        for n in args.n:
            u = goppa_udmg(curve, points, DivisorSpec(n)).udmg
            cap = bounds(u.K, q, 1).defect_bound
            g_min, _ = minimal_genus(u)
            code = first_column_code(u)
            good = g_min <= 1 and code.defect <= 1 and u.L <= cap
            print(f"q={q} s^2=r^3+{a}r+{b} n={n}: L={u.L} K={u.K} cap={cap} "
                  f"minimal_genus={g_min} d={code.d} defect={code.defect}"
                  f"{'' if good else '  FAIL'}")
            ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
