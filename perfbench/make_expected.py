"""Regenerate expected.json: answers for the default seed from slow oracles.

    python3 perfbench/make_expected.py

Verdicts, witnesses and minimal genera come from a lexicographic scan that
stops at the first failing allowable vector (oracles.first_failure), checked
against udmg.core.verify_naive wherever its scan of every capped vector is
small enough.  Minimum distances come from udmg's exhaustive codeword scan
and SNR and audit reports from udmg's full enumerations, each checked
against the closed forms in oracles.py.  Construction valuations are
recorded from the program at this commit.  Takes about two minutes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

NAIVE_LIMIT = 400_000   # capped vectors verify_naive may visit


def naive_size(lengths, target):
    return sum(oracles.count_allowable(lengths, s) for s in range(target, sum(lengths) + 1))


def verify_answers(path, genus, min_genus, cache):
    key = (path, genus, min_genus)
    if key in cache:
        return cache[key]
    from udmg import cli, core

    data, f, mats = workloads.load_set(path)
    K = data["K"]
    g = data["g"] if genus is None else genus
    w = oracles.first_failure(f, mats, K, g)
    ans = {"valid": w is None, "witness": list(w) if w else None}
    lengths = [len(M[0]) for M in mats]
    if naive_size(lengths, K + g) <= NAIVE_LIMIT:
        rep = core.verify_naive(cli.load_matrixset(path).with_genus(g))
        assert (rep.valid, rep.witness) == (w is None, w), (path, rep, w)
    if min_genus:
        ans["minimal_genus"] = oracles.minimal_genus(f, mats, K)[0]
    cache[key] = ans
    return ans


def answers_for(op, out, cache):
    from udmg import cli, codes, waveform

    argv = [a for a in op.argv if a != "--json"]
    cmd, path = argv[0], argv[1]
    if cmd == "verify":
        genus = int(argv[argv.index("--genus") + 1]) if "--genus" in argv else None
        return verify_answers(path, genus, "--min-genus" in argv, cache)
    if cmd == "construct":
        # Text reports print valuations as a multi-line table; compare JSON only.
        return {"valuations": json.loads(out)["valuations"]} if "--json" in op.argv else {}
    if cmd == "code":
        u = cli.load_matrixset(path)
        d = codes.first_column_code(u).d
        data, f, mats = workloads.load_set(path)
        assert d == oracles.min_distance(f, [[M[i][0] for M in mats] for i in range(u.K)])
        return {"d": d}
    if cmd == "modulate" and ("--snr" in argv or "--audit" in argv):
        u = cli.load_matrixset(path)
        scheme = waveform.build_scheme(u)
        ans = {}
        if "--snr" in argv:
            value = waveform.snr(scheme).snr
            assert value == oracles.snr_full_space(u.field.q, u.K, u.L)
            ans["snr"] = workloads.frac(value)
        if "--audit" in argv:
            rep = waveform.audit_product_distance(scheme)
            ans["audit_pairs"] = rep.pairs_checked
            ans["audit_min_product"] = workloads.frac(rep.min_product)
        return ans
    return {}


def _run(argv):
    from udmg import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli.run(argv)
    return out.getvalue()


def main():
    from udmg import cli, reference

    expected = {
        "default_seed": workloads.DEFAULT_SEED,
        "reference_sha256": hashlib.sha256(
            cli.matrixset_to_text(reference.matrix_set()).encode()).hexdigest(),
        "workloads": {},
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh)   # reference_ops reads the digest
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    for name in workloads.NAMES:
        with tempfile.TemporaryDirectory(dir=scratch) as work:
            wl = workloads.BUILDERS[name](workloads.DEFAULT_SEED, work, None)
            cache, answers = {}, {}
            for op in wl.ops:
                if op.prepare is not None:
                    op.prepare()
                out = _run(op.argv)
                ans = answers_for(op, out, cache) if op.kind != "malformed" else {}
                if ans:
                    answers[op.name] = ans
            expected["workloads"][name] = answers
            print(name, json.dumps(answers)[:300], flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
