"""udmg benchmark: one workload, a closed loop of CLI commands, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has src/udmg.  With --trace 0 the
workload's command list is repeated until S seconds have passed and the
end-to-end metrics are reported; with --trace 1 one untraced and one traced
pass give the per-layer metrics.  Human-readable lines go first; the last
line of stdout is the JSON result.  See NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60
FIELD_BATCH = 500
KERNEL_REPS = 120
REF_KERNEL_S = 0.009

import oracles  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

KERNEL_FIELD = oracles.Field(11)
_rng = random.Random(0)
KERNEL_ROWS = [[_rng.randrange(11) for _ in range(8)] for _ in range(6)]


class Result:
    def __init__(self, op, code, out, err, seconds, child=None):
        self.op, self.code, self.out, self.err, self.seconds = op, code, out, err, seconds
        self.child = child      # traced child's dump, if any
        self.status = "ok"
        self.problems = []
        self.scale = 1.0        # host speed factor, see kernel_seconds

    @property
    def ref_seconds(self):
        return self.seconds * self.scale


# -- running one command ---------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("UDMG_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_inprocess(op, trace=None):
    import udmg.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if trace is None:
                code = udmg.cli.run(op.argv)
            else:
                with trace.op(op.kind):
                    code = udmg.cli.run(op.argv)
    except Exception:  # a command that raises is a failed operation, not a crash
        code = None
        err.write(traceback.format_exc())
    return Result(op, code, out.getvalue(), err.getvalue(), perf_counter() - t0)


def run_subprocess(op, work, dump=None):
    if dump is None:
        cmd = [sys.executable, "-m", "udmg.cli", *op.argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "run", dump, *op.argv]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=work, text=True)
    try:
        out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
        err += f"\ntimed out after {SUBPROCESS_TIMEOUT_S} s"
    seconds = perf_counter() - t0
    child = None
    if dump is not None and code is not None and os.path.exists(dump):
        with open(dump, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(dump)
    return Result(op, code, out, err, seconds, child)


def check(res):
    op = res.op
    if res.code is None:
        res.problems = ["raised or timed out: " + res.err.strip()[-300:]]
    else:
        try:
            res.problems = op.check(op.argv, res.code, res.out, res.err)
        except Exception:  # an unparsable report is a wrong answer
            res.problems = ["unreadable output: " + traceback.format_exc(limit=2)[-300:]]
    if res.problems:
        res.status = "known_defect" if op.known_defect and res.code == 0 else "failed"
    if res.status == "failed":
        print(f"FAILED {op.name}: {'; '.join(res.problems)[:500]}", file=sys.stderr)
    return res


def run_pass(wl, work, trace=None, dumps=None):
    """Every command of the workload once, in order, each after the last returns."""
    results = []
    before = kernel_seconds()
    for i, op in enumerate(wl.ops):
        if op.prepare is not None:
            op.prepare()
        if wl.subprocess:
            dump = os.path.join(work, f"dump{i}.json") if dumps else None
            res = run_subprocess(op, work, dump)
        else:
            res = run_inprocess(op, trace)
        after = kernel_seconds()
        res.scale = REF_KERNEL_S / ((before + after) / 2)
        before = after
        # Outputs of later commands may overwrite files this one read.
        results.append(check(res))
    return results


# -- set-up, environment, field timings -------------------------------------------

def kernel_seconds():
    """Time of a fixed pure-Python kernel that does not touch udmg.

    The host's speed drifts by tens of percent over seconds.  Each command
    is bracketed by this kernel and its latency multiplied by
    REF_KERNEL_S / (mean kernel time around it), which gives reference-speed
    seconds: what the command would take on a host that runs the kernel in
    REF_KERNEL_S.  Raw wall times are printed alongside.
    """
    t0 = perf_counter()
    for _ in range(KERNEL_REPS):
        oracles.rank(KERNEL_FIELD, KERNEL_ROWS)
    return perf_counter() - t0


def measure_setup(wl, work):
    spec = os.path.join(work, "setup_spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"orders": wl.orders, "read_files": wl.read_files}, fh)
    times, imports = [], []
    before = kernel_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "setup", spec],
                              capture_output=True, text=True, env=child_env(), cwd=work,
                              timeout=SUBPROCESS_TIMEOUT_S)
        seconds = perf_counter() - t0
        after = kernel_seconds()
        times.append(seconds * REF_KERNEL_S / ((before + after) / 2))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        imports.append(json.loads(proc.stdout)["import_s"])
    return times, imports


def environment(seed, threads_env):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "udmg"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "udmg", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "UDMG_THREADS": "unset" if threads_env is None else f"was {threads_env!r}, cleared",
    }


def field_timings(seed):
    """ns per add, mul and inv on a seeded batch of nonzero operands."""
    from udmg.fields import field_from_order

    rng = random.Random(f"fields:{seed}")
    out = {}
    for q in tr.FIELD_ORDERS:
        f = field_from_order(q)
        xs = [rng.randrange(1, q) for _ in range(FIELD_BATCH)]
        ys = [rng.randrange(1, q) for _ in range(FIELD_BATCH)]
        for name, fn, args in (("add", f.add, zip(xs, ys)), ("mul", f.mul, zip(xs, ys)),
                               ("inv", f.inv, ((x,) for x in xs))):
            args = list(args)
            reps = []
            for _ in range(3):
                t0 = perf_counter()
                for a in args:
                    fn(*a)
                reps.append(perf_counter() - t0)
            out[f"fields.{name}_ns.{q}"] = statistics.median(reps) / len(args) * 1e9
    return out


# -- one run -----------------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least 10 samples above it: (value, pct) or None."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def summarize(passes):
    """Sum and per-class sums of each command's median latency over the passes.

    A burst of load on the host lands on a few commands of a few passes;
    per-command medians drop it, where the median of pass totals would not.
    """
    per_op = [statistics.median(p[i].ref_seconds for p in passes) for i in range(len(passes[0]))]
    kinds = [r.op.kind for r in passes[0]]
    summary = {"wall_s": sum(per_op)}
    for kind in ("verify", "construct", "code", "modulate"):
        if kind in kinds:
            summary[f"{kind}_s"] = sum(t for t, k in zip(per_op, kinds) if k == kind)
    return summary


def counts_of(results):
    return (len(results), sum(r.status == "failed" for r in results),
            sum(r.status == "known_defect" for r in results))


def run_plain(wl, work, seconds, setup_times):
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(run_pass(wl, work))
    summary = summarize(passes)
    who = resource.RUSAGE_CHILDREN if wl.subprocess else resource.RUSAGE_SELF
    metrics = {
        "wall_s": (summary["wall_s"], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    results = [r for p in passes for r in p]
    walls = [sum(r.seconds for r in p) for p in passes]
    attempted, failed, known = counts_of(results)
    lines = [f"passes: {len(passes)}  raw pass walls (s): {', '.join(f'{w:.3f}' for w in walls)}",
             "times below are reference-speed seconds (see kernel_seconds in run.py)",
             f"fail_frac = {failed / attempted:.4f} ratio ({failed} of {attempted} operations)",
             f"known_defect_frac = {known / attempted:.4f} ratio ({known} of {attempted}: "
             "malformed inputs accepted, see NOTES.md)"]
    for kind in ("verify", "construct", "code", "modulate"):
        key = f"{kind}_s"
        lines.append(f"{key} = " + (f"{summary[key]:.4f} s" if key in summary else "n/a"))
    if wl.subprocess:
        samples = [r.ref_seconds for r in results]
        lines.append(f"cli_p50_s = {statistics.median(samples):.4f} s (n={len(samples)})")
        t = tail(samples)
        lines.append(f"cli_tail_s = {t[0]:.4f} s (p{t[1]:.1f}, n={len(samples)})" if t
                     else f"cli_tail_s = n/a (n={len(samples)} < 11)")
    else:
        lines += ["cli_p50_s = n/a", "cli_tail_s = n/a"]
    return metrics, (attempted, failed), lines


def run_traced(wl, name, seed, work, setup_imports):
    base = run_pass(wl, work)
    base_wall = sum(r.seconds for r in base)
    fields = field_timings(seed)

    trace = tr.Tracer()
    trace.install()
    try:
        with trace.op("inputs"):
            wl = workloads.build(name, seed, work)
        traced = run_pass(wl, work, trace=trace, dumps=True)
        probe_wl = workloads.Workload("probe", True, workloads.reference_ops(
            seed, work, workloads.load_expected()["workloads"]["cli_small"]
            if seed == workloads.DEFAULT_SEED else None))
        probe = run_pass(probe_wl, work, dumps=True)
    finally:
        trace.uninstall()

    trees = [trace.spans()]
    counts = trace.counts()
    imports, overheads = list(setup_imports), []
    for r in traced + probe:
        if r.child is not None:
            trees.append([tuple(s) for s in r.child["spans"]])
            for k, v in r.child["counts"].items():
                counts[k] = counts.get(k, 0) + v
            imports.append(r.child["import_s"])
            overheads.append(r.seconds - r.child["cmd_s"])
    layer = tr.layer_metrics(trees, counts, imports, overheads)
    layer.update(fields)
    traced_wall = sum(r.seconds for r in traced)
    layer["trace_overhead"] = traced_wall / base_wall
    trace_path = os.path.join(ROOT, ".perfbench_work", f"trace-{name}-s{seed}.json")
    tr.write_trace(trace_path, trees, counts)

    results = base + traced + probe
    attempted, failed, _ = counts_of(results)
    lines = [f"untraced pass {base_wall:.3f} s, traced pass {traced_wall:.3f} s",
             f"trace written to {os.path.relpath(trace_path, ROOT)}"]
    return layer, (attempted, failed), lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "udmg", "__init__.py")):
        print(f"error: no udmg sources at {SRC}; run from a udmg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    threads_env = os.environ.pop("UDMG_THREADS", None)
    import udmg

    if not os.path.abspath(udmg.__file__).startswith(SRC + os.sep):
        print(f"error: imported udmg from {udmg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed, threads_env)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        setup_times, setup_imports = measure_setup(wl, work)
        if args.trace:
            metrics, (attempted, failed), lines = run_traced(
                wl, args.workload, args.seed, work, setup_imports)
            metrics = {k: (metrics[k], unit) for k, unit in tr.UNITS.items()}
        else:
            metrics, (attempted, failed), lines = run_plain(wl, work, args.seconds, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env: " + json.dumps(env))
    for line in lines:
        print(line)
    for k, (v, unit) in metrics.items():
        print(f"{k} = {v:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
