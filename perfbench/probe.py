"""Child-process entry points of the benchmark.

    python3 perfbench/probe.py setup <workload>
        Import the package and fill the lazy tables the workload reads before
        its first query; print the seconds this took.

    python3 perfbench/probe.py trace-verify <suite> <out-prefix>
        Run ``surfbraid verify <suite>`` at default bounds with the layer
        tracer installed; the suite's JSON report goes to stdout as usual,
        the layer metrics to <out-prefix>.json and the spans to
        <out-prefix>.npz. Exits with the suite's exit code.

This module imports nothing from the package at the top, so a setup probe
times the whole package import.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def setup_workload(workload: str) -> None:
    """Import what the workload uses and fill the lazy tables it reads."""
    if workload == "wordproblem":
        from surfbraid import klein
        for n in range(1, 5):
            klein.action_table(n)
        for n in range(2, 6):
            klein.normal_form(klein.center_witness(n), n)
    elif workload == "towers":
        from surfbraid import finite, nilpotent, series  # noqa: F401
        for c in (2, 3):
            nilpotent.hall_basis(2, c)
    elif workload == "verify":
        import surfbraid.cli  # noqa: F401
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _trace_verify(suite: str, out_prefix: str) -> int:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.modules["cli"].main(["verify", suite])
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["tracing.spans"] = tracer.spans_seen
    with open(out_prefix + ".json", "w") as fh:
        json.dump({"suite": suite, "metrics": metrics}, fh)
    tracer.dump(out_prefix + ".npz")
    return code


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    if len(argv) == 2 and argv[0] == "setup":
        t0 = time.perf_counter()
        setup_workload(argv[1])
        print(repr(time.perf_counter() - t0))
        return 0
    if len(argv) == 3 and argv[0] == "trace-verify":
        return _trace_verify(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
