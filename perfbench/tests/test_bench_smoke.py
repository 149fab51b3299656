"""Smoke test of the benchmark: the bundled F_5 instance through every command
with answer checking on, and exact repeat of trace counts.  Takes seconds."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def reference_ops(tmp_path):
    ws = workloads.load_expected()["workloads"]["cli_small"]
    return workloads.reference_ops(workloads.DEFAULT_SEED, str(tmp_path), ws, formats=(False, True))


def test_reference_commands_give_expected_answers(tmp_path):
    ops = reference_ops(tmp_path)
    assert {op.argv[op.argv[0] == "--json"] for op in ops} == {
        "example-paper", "verify", "construct", "quotient", "code", "modulate", "bounds"}
    for op in ops:
        res = run.check(run.run_inprocess(op))
        assert res.status == "ok", (op.name, res.problems)


def test_checker_rejects_a_wrong_answer(tmp_path):
    op = next(op for op in reference_ops(tmp_path) if op.name == "verify:ref:json:genus0")
    run.run_inprocess(next(o for o in reference_ops(tmp_path) if o.kind == "example"))
    res = run.run_inprocess(op)
    wrong = res.out.replace('"valid": false', '"valid": true')
    assert op.check(op.argv, 0, wrong, res.err)


def traced_counts(tmp_path):
    t = tracer.Tracer()
    t.install()
    try:
        for op in reference_ops(tmp_path):
            run.check(run.run_inprocess(op, trace=t))
    finally:
        t.uninstall()
    return t.counts(), t.spans()


def test_trace_counts_repeat_exactly(tmp_path):
    counts1, spans = traced_counts(tmp_path)
    counts2, _ = traced_counts(tmp_path)
    assert counts1 == counts2
    for name in ("core.rank_tests", "fields.mul", "codes.codewords", "waveform.audit_pairs"):
        assert counts1[name] > 0, name
    layer = tracer.layer_metrics([spans], counts1, [0.1], [0.1])
    assert set(layer) | {"trace_overhead"} | {k for k in tracer.UNITS if k.startswith("fields.")
                                              and "_ns." in k} == set(tracer.UNITS)
    # example-paper verifies one set four times at genus 1 and once at genus 0.
    assert layer["core.verify_calls_per_op"] > 1
