"""surfbraid benchmark.

    python3 perfbench/run.py --workload <wordproblem|towers|verify|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. --seconds sizes the work, not a deadline:
the run solves as many seeded blocks of queries as take about that long on
a 2-core x86 VM, so every version of the program solves the same queries
for a given seed and length. With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
traced run, with the tracing overhead. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the properties of the generated inputs and the sample
counts. The exit code is 1 when any answer was wrong or any query failed,
and 2 when the program cannot be found or the arguments are bad.

``--workload all`` runs the three workloads one after another, each in its
own process, and prints every metric of each with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("wordproblem", "towers", "verify")


def _units() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (the 'inclusive'
    method of statistics.quantiles), also defined for one value."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(workload: str, res, setup_s: float) -> Dict[str, float]:
    from workloads import peak_rss_mb
    return {
        "setup_s": setup_s,
        "queries_per_s": statistics.median(res.block_rates),
        "latency_p50_ms": percentile(res.latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(res.latencies, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb(children=(workload == "verify")),
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    setup_s = None if trace else workloads.measure_setup(workload)
    res = workloads.WORKLOADS[workload](seed, seconds, trace)
    if trace:
        values = res.layer_metrics
        kind = "per_layer"
    else:
        values = end_to_end(workload, res, setup_s)
        kind = "end_to_end"
    units = _units()[kind]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    # reported but not bounded: see perfbench/README.md
    extra = {"peak_rss_mb": "MB"} if not trace else {}
    failed_frac = res.failed / res.attempted
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "inputs": res.properties,
               "latency_samples": len(res.latencies),
               "samples_beyond_p90": sum(
                   1 for x in res.latencies
                   if x * 1e3 > values.get("latency_p90_ms", float("inf"))),
               "blocks": len(res.block_rates),
               "raw_latency_p50_ms": statistics.median(res.raw_latencies) * 1e3,
               "speed_scale": {"min": min(res.scales),
                               "median": statistics.median(res.scales),
                               "max": max(res.scales)},
               "failed_frac": failed_frac, "failures": res.failures}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({"summary": summary, "metrics": metrics,
                               "unbounded": {k: values[k] for k in extra}},
                              indent=1) + "\n")
    print(json.dumps(summary))
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, unit in extra.items():
        print(f"{workload} {name} = {values[name]:.6g} {unit}")
    print(f"{workload} failed_frac = {failed_frac:.6g} "
          f"({res.failed} of {res.attempted})")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if res.failed == 0 else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process; a table of every metric."""
    merged, attempted, failed, code = {}, 0, 0, 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        code = max(code, proc.returncode)
        for name, m in last["metrics"].items():
            merged[f"{workload}.{name}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="surfbraid benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "surfbraid" / "__init__.py").is_file():
        print(f"error: the surfbraid sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
