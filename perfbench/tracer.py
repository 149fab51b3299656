"""Spans and counters around udmg's module boundaries, installed from outside.

Each wrapper replaces a name where the calling module looks it up (for
example ``udmg.core.rref_rows`` is what core's rank test calls), so no file
of the program changes.  Spans are kept in memory, one buffer per thread, and
written out at the end.  Field operations are counted, never spanned: a span
per multiplication would swamp both the run and the trace.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from time import perf_counter

# (module, attribute, span name).  The same function bound in two modules
# gets two entries, so each caller is seen.
SPANS = (
    ("udmg.cli", "load_matrixset", "cli.parse"),
    ("udmg.cli", "load_construction", "cli.parse"),
    ("udmg.cli", "_emit", "cli.emit"),
    ("udmg.cli", "save_matrixset", "cli.emit"),
    ("udmg.core", "rref_rows", "linalg.rref"),
    ("udmg.linalg", "rref_rows", "linalg.rref"),
    ("udmg.curves", "inverse", "linalg.change_of_basis"),
    ("udmg.waveform", "kernel_basis", "linalg.kernel"),
    ("udmg.cli", "verify", "core.verify"),
    ("udmg.waveform", "verify", "core.verify"),
    ("udmg.core", "_verify_fast", "core.verify_fast"),
    ("udmg.codes", "_verify_fast", "core.verify_fast"),
    ("udmg.curves", "_verify_fast", "curves.self_verify"),
    ("udmg.core", "verify_chains", "core.verify_chains"),
    ("udmg.cli", "minimal_genus", "core.minimal_genus"),
    ("udmg.curves", "enumerate_points", "curves.points"),
    ("udmg.curves", "rr_basis", "curves.rr_basis"),
    ("udmg.curves", "increasing_zero_basis", "curves.izb"),
    ("udmg.cli", "goppa_udmg", "curves.construct"),
    ("udmg.cli", "genus0_udmg", "curves.construct"),
    ("udmg.cli", "first_column_code", "codes.first_column_code"),
    ("udmg.codes", "min_distance", "codes.min_distance"),
    ("udmg.cli", "build_scheme", "waveform.build_scheme"),
    ("udmg.cli", "snr", "waveform.snr"),
    ("udmg.waveform", "snr", "waveform.snr"),
    ("udmg.cli", "audit_product_distance", "waveform.audit"),
)

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow_")

# Whole-set verifications; minimal_genus is a loop over them, not one.
VERIFY_FAMILY = ("core.verify", "core.verify_fast", "curves.self_verify",
                 "core.verify_chains", "core.minimal_genus")
VERIFY_CALLS = VERIFY_FAMILY[:-1]


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._main = self._stack()
        self.counters = {}
        self._sums = {}
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.buf = []
            self._buffers.append(self._local.buf)
        return st

    def _top(self):
        st = self._stack()
        if st:
            return st[-1]
        # A pool worker's first span belongs to whatever the main thread,
        # blocked on the pool, has open.
        return self._main[-1] if self._main else (0, "")

    def span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._stack()
            parent = tracer._top()[0]
            sid = next(tracer._ids)
            st.append((sid, name))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                tracer._local.buf.append((sid, name, t0, t1, parent))

        return wrapper

    def counter(self, name):
        return self.counters.setdefault(name, itertools.count())

    def counting(self, name, fn):
        c = self.counter(name)

        def wrapper(*args, **kwargs):
            next(c)
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name, n):
        """Add n to a sum; called from one thread at a time."""
        self._sums[name] = self._sums.get(name, 0) + n

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import importlib

        import udmg.cli  # noqa: F401  (loads every module patched below)
        from udmg.fields import FieldSpec
        from udmg.linalg import FqMatrix
        from udmg.waveform import CodeScheme

        for mod_name, attr, name in SPANS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self.span(name, getattr(mod, attr)))
        core = importlib.import_module("udmg.core")
        self._patch(core, "_spans", self.counting("core.rank_tests", core._spans))
        for op in FIELD_OPS:
            self._patch(FieldSpec, op, self.counting(f"fields.{op}", FieldSpec.__dict__[op]))
        self._patch(FieldSpec, "__post_init__",
                    self.span("fields.spec_build", FieldSpec.__dict__["__post_init__"]))
        self._patch(FqMatrix, "matmul",
                    self.span("linalg.change_of_basis", FqMatrix.__dict__["matmul"]))

        tracer = self
        codewords = self.counter("codes.codewords")
        vecmat = FqMatrix.__dict__["vecmat"]

        def counted_vecmat(M, v):
            if tracer._top()[1] == "codes.min_distance":
                next(codewords)
            return vecmat(M, v)

        self._patch(FqMatrix, "vecmat", counted_vecmat)
        self._patch(CodeScheme, "encode",
                    self.counting("waveform.encodes", CodeScheme.__dict__["encode"]))
        messages = CodeScheme.__dict__["messages"]

        def counted_messages(scheme):
            out = messages(scheme)
            tracer.add("waveform.messages", len(out))
            return out

        self._patch(CodeScheme, "messages", counted_messages)
        # Reports carry the number of vectors or pairs their loop visited.
        cli = importlib.import_module("udmg.cli")
        audit = cli.audit_product_distance

        def counted_audit(scheme):
            rep = audit(scheme)
            tracer.add("waveform.audit_pairs", rep.pairs_checked)
            return rep

        self._patch(cli, "audit_product_distance", counted_audit)
        chains = core.verify_chains

        def counted_chains(v):
            rep = chains(v)
            tracer.add("core.rank_tests", rep.checked)
            return rep

        self._patch(core, "verify_chains", counted_chains)

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def op(self, kind):
        """Span for one user command; the root of that command's tree."""
        return _OpSpan(self, kind)

    def spans(self):
        return sorted((s for buf in self._buffers for s in buf), key=lambda s: s[0])

    def counts(self):
        out = {name: int(repr(c)[6:-1]) for name, c in self.counters.items()}
        for name, n in self._sums.items():
            out[name] = out.get(name, 0) + n
        return out

    def dump(self):
        return {"spans": self.spans(), "counts": self.counts()}


class _OpSpan:
    def __init__(self, tracer, kind):
        self.tracer, self.kind = tracer, kind

    def __enter__(self):
        st = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        st.append((self.sid, "op"))
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.tracer._stack().pop()
        self.tracer._local.buf.append((self.sid, f"op:{self.kind}", self.t0, t1, 0))
        self.seconds = t1 - self.t0
        return False


# -- deriving layer metrics from one or more span trees ------------------------

def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children of one span may overlap (pool workers), so coverage is the union
    of their intervals, not the sum of their durations.
    """
    children = {}
    for sid, _, t0, t1, parent in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def union_length(intervals):
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        t0 = max(t0, end)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


def layer_metrics(trees, counts, import_times, process_overheads):
    """Per-layer numbers from span trees (one per process) and summed counts.

    A layer's time is the union of its spans' intervals, so nested calls and
    calls overlapping in pool threads are not counted twice.
    """
    times, n, self_sum, ops = {}, {}, {}, 0
    for spans in trees:
        selfs = self_times(spans)
        intervals = {}
        for sid, name, t0, t1, _ in spans:
            if name.startswith("op:"):
                ops += name != "op:inputs"
                continue
            intervals.setdefault(name, []).append((t0, t1))
            n[name] = n.get(name, 0) + 1
            self_sum[name] = self_sum.get(name, 0.0) + selfs[sid]
        intervals["verify"] = [iv for name in VERIFY_FAMILY for iv in intervals.get(name, ())]
        for name, ivs in intervals.items():
            times[name] = times.get(name, 0.0) + union_length(ivs)

    def t(name):
        return times.get(name, 0.0)

    def ratio(a, b, scale=1):
        return a / b * scale if b else 0.0

    rank_tests = counts.get("core.rank_tests", 0)
    codewords = counts.get("codes.codewords", 0)
    pairs = counts.get("waveform.audit_pairs", 0)
    verify_calls = sum(n.get(name, 0) for name in VERIFY_CALLS)
    return {
        "fields.ops": sum(counts.get(f"fields.{op}", 0) for op in FIELD_OPS),
        "fields.spec_build_s": t("fields.spec_build"),
        "linalg.rref_calls": n.get("linalg.rref", 0),
        "linalg.rref_s": t("linalg.rref"),
        "linalg.rref_us": ratio(t("linalg.rref"), n.get("linalg.rref", 0), 1e6),
        "linalg.change_of_basis_s": t("linalg.change_of_basis"),
        "linalg.kernel_s": t("linalg.kernel"),
        "core.rank_tests": rank_tests,
        "core.verify_s": t("verify"),
        "core.verify_self_s": sum(self_sum.get(name, 0.0) for name in VERIFY_FAMILY),
        "core.us_per_vector": ratio(t("verify"), rank_tests, 1e6),
        "core.verify_calls": verify_calls,
        "core.verify_calls_per_op": ratio(verify_calls, ops),
        "curves.points_s": t("curves.points"),
        "curves.rr_basis_s": t("curves.rr_basis"),
        "curves.izb_s": t("curves.izb"),
        "curves.self_verify_s": t("curves.self_verify"),
        "curves.construct_self_s": self_sum.get("curves.construct", 0.0),
        "codes.codewords": codewords,
        "codes.min_distance_s": t("codes.min_distance"),
        "codes.us_per_codeword": ratio(t("codes.min_distance"), codewords, 1e6),
        "waveform.build_scheme_s": t("waveform.build_scheme"),
        "waveform.messages": counts.get("waveform.messages", 0),
        "waveform.encodes": counts.get("waveform.encodes", 0),
        "waveform.snr_s": t("waveform.snr"),
        "waveform.audit_pairs": pairs,
        "waveform.audit_s": t("waveform.audit"),
        "waveform.ns_per_pair": ratio(t("waveform.audit"), pairs, 1e9),
        "cli.import_s": statistics.median(import_times) if import_times else 0.0,
        # Field set-up and the construction itself are spanned children.
        "cli.parse_s": self_sum.get("cli.parse", 0.0),
        "cli.emit_s": t("cli.emit"),
        "cli.process_overhead_s": (statistics.median(process_overheads)
                                   if process_overheads else 0.0),
    }


FIELD_ORDERS = (13, 16, 25, 1 << 20)

# Every per-layer metric with its unit, in report order.
UNITS = {
    **{f"fields.{op}_ns.{q}": "ns" for q in FIELD_ORDERS for op in ("mul", "inv", "add")},
    "fields.ops": "count", "fields.spec_build_s": "s",
    "linalg.rref_calls": "count", "linalg.rref_s": "s", "linalg.rref_us": "us",
    "linalg.change_of_basis_s": "s", "linalg.kernel_s": "s",
    "core.rank_tests": "count", "core.verify_s": "s", "core.verify_self_s": "s",
    "core.us_per_vector": "us", "core.verify_calls": "count", "core.verify_calls_per_op": "ratio",
    "curves.points_s": "s", "curves.rr_basis_s": "s", "curves.izb_s": "s",
    "curves.self_verify_s": "s", "curves.construct_self_s": "s",
    "codes.codewords": "count", "codes.min_distance_s": "s", "codes.us_per_codeword": "us",
    "waveform.build_scheme_s": "s", "waveform.messages": "count", "waveform.encodes": "count",
    "waveform.snr_s": "s", "waveform.audit_pairs": "count", "waveform.audit_s": "s",
    "waveform.ns_per_pair": "ns",
    "cli.import_s": "s", "cli.parse_s": "s", "cli.emit_s": "s", "cli.process_overhead_s": "s",
    "trace_overhead": "ratio",
}


def write_trace(path, trees, counts):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"counts": counts,
                   "processes": [
                       [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                        for s in spans] for spans in trees]}, fh)
