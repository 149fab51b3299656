"""Fresh-interpreter side of the benchmark.

    python child.py setup SPEC.json
        Import udmg, build every field the workload uses, read its inputs,
        and print {"import_s": ...}.  The parent times the whole process.
    python child.py run DUMP.json ARG...
        Run one udmg command with tracing on and write its spans, counts,
        import time and in-process command time to DUMP.json.

udmg must be importable (the parent puts the checkout's src on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(spec_path):
    t0 = perf_counter()
    import udmg.cli
    from udmg.fields import field_from_order

    import_s = perf_counter() - t0
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for q in spec["orders"]:
        field_from_order(q)
    for path in spec["read_files"]:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if "matrices" in data:
            udmg.cli.load_matrixset(path)
    print(json.dumps({"import_s": import_s}))
    return 0


def run(dump_path, argv):
    t0 = perf_counter()
    import udmg.cli

    import_s = perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.op(argv[0] if argv[0] != "--json" else argv[1]) as span:
        code = udmg.cli.run(argv)
    tracer.uninstall()
    sys.stdout.flush()
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "cmd_s": span.seconds, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(run(sys.argv[2], sys.argv[3:]))
