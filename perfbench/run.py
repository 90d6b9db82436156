"""Seeded benchmark for qcolour.

    python3 perfbench/run.py --workload colour-certify --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end metrics;
``--trace 1`` does one fixed traced pass and reports the per-layer metrics.
``--workload all`` runs every workload both ways, each in its own process.
Every metric is printed as ``name value unit``; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The metrics and workloads are defined in ``manifest.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import manifest
from common import BenchError, import_qcolour

SETUP_REPEATS = 15
UNITS = {n: u for n, u, *_ in manifest.END_TO_END + manifest.PER_LAYER}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, object]:
    """Times are at reference speed (see ``common.scaled``); the raw wall
    times are printed beside them."""
    import workloads
    from common import CALIBRATION_REF_S, measure_setup, median, peak_rss_mib, speed_factor, tail

    setup, setup_calibrations = measure_setup(
        workloads.WORKLOAD_COLOURINGS[workload], SETUP_REPEATS)
    tally = workloads.run(workload, seed, seconds)

    def summary(ops: list[float], fixed: list[float], setup: list[float]) -> dict:
        ops = ops or [float("nan")]
        return {
            "setup_s": median(setup),
            "op_p50_ms": 1e3 * median(ops),
            "op_tail_ms": 1e3 * tail(ops)[0],
            "ops_per_s": len(ops) / sum(ops),
            "fixed_job_s": median(fixed or [float("nan")]),
        }

    metrics = summary(tally.op_s, tally.fixed_s,
                      [t * CALIBRATION_REF_S / c for t, c in zip(setup, setup_calibrations)])
    for name, value in summary(tally.raw_op_s, tally.raw_fixed_s, setup).items():
        tally.extra[f"raw.{name}"] = (value, UNITS[name])
    _, pct, n = tail(tally.op_s or [0.0])
    tally.extra["op_tail_percentile"] = (pct, f"% of n={n}")
    tally.extra["speed_factor"] = (speed_factor(setup_calibrations + tally.calibrations),
                                   "x reference")
    metrics["peak_rss_mib"] = peak_rss_mib()
    return {name: metrics[name] for name, *_ in manifest.END_TO_END}, tally


def per_layer(workload: str, seed: int) -> tuple[dict, object]:
    import tracing

    run = tracing.TracedRun(workload, seed)
    run.run()
    return run.metrics(), run.tally


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from common import provenance

    print("provenance " + json.dumps(provenance(workload, seed, traced)))
    if traced:
        metrics, tally = per_layer(workload, seed)
    else:
        metrics, tally = end_to_end(workload, seed, seconds)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    for name, (value, unit) in tally.extra.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    for why in tally.failures[:10]:
        print(f"gate: {why}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, _ in manifest.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(f"{workload}: {line}" for line in lines[:-1]))
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    names = [n for n, _ in manifest.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_qcolour()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
