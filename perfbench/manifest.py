"""What the benchmark measures: workloads, metrics, and the metric map.

This file is the single source for ``BENCHMARK.json``. Run
``python3 perfbench/manifest.py`` from the repository root to rewrite it;
``perfbench/tests`` checks that the committed file matches.

Every workload reports every metric, so the end-to-end names are generic:
``HEADLINES`` says what each one means on each workload, in the terms users
of the CLI see. ``PER_LAYER`` says, for each layer metric, which end-to-end
metric it should move and on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = [
    (
        "colour-certify",
        "seeded check --mode finite ops (8-11 terms, nu/mu/alpha/theta/phi) plus a "
        "fixed properties run: colour evaluation and emission, no cache, no search",
    ),
    (
        "search",
        "a fixed list of pairwise --target 3 searches at workers 1 and 2, seeded order: "
        "per-root colour caches, the DFS and the process pool, values coloured many times",
    ),
    (
        "construct",
        "construct --terms 2..4 rounds plus --terms 5 at a fixed budget: block "
        "enumeration dominates, colourings do little; takes no random input",
    ),
]

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("fixed_job_s", "s", "lower", 0.25),
]

# What each generic end-to-end metric is on each workload. An "op" is one
# closed-loop call of qcolour.cli.main at workers=1, except on search (one
# pass over the universe list, seven calls) and construct (one m = 2, 3, 4
# round, three calls).
HEADLINES = {
    "setup_s": "fresh interpreter, import qcolour and qcolour.cli, default prime "
    "table, first call of each colouring the workload uses (median of several)",
    "peak_rss_mib": "peak RSS of the benchmark process plus the largest child (pool worker "
    "or set-up interpreter)",
    "op_p50_ms": {
        "colour-certify": "median check --mode finite op (certify_p50_ms)",
        "search": "median pass over the universe list at workers=1 (search_w1_s)",
        "construct": "median m = 2..4 round (construct_p50_s, in ms)",
    },
    "op_tail_ms": "highest percentile with at least 10 ops beyond it, with the "
    "percentile and n printed (certify_tail_ms, construct_tail_s)",
    "ops_per_s": {
        "colour-certify": "check ops per second of op time; "
        "certify_values_per_s is printed beside it",
        "search": "list passes per second of op time at workers=1",
        "construct": "m = 2..4 rounds per second of op time",
    },
    "fixed_job_s": {
        "colour-certify": "median properties --seed 1 --samples 200 (properties_s)",
        "search": "median pass over the universe list at workers=2 (search_w2_s)",
        "construct": "median construct --terms 5 --budget 2000000 (construct_m5_s)",
    },
}

CE, SE, CO = "colour-certify", "search", "construct"
_COLOUR_TARGETS = f"op_p50_ms/ops_per_s on {CE} (most), on {SE} (partial); no change on {CO}"

# name, unit, better, what it should move
PER_LAYER = [
    ("core.a_exponent_us", "us", "lower", _COLOUR_TARGETS),
    ("core.cmp_boundary_us", "us", "lower", _COLOUR_TARGETS),
    ("core.minimal_base_index_us", "us", "lower", _COLOUR_TARGETS),
    ("digits.b_exponent_us", "us", "lower", _COLOUR_TARGETS),
    ("digits.c_exponent_us", "us", "lower", _COLOUR_TARGETS),
    ("digits.s_frac_us", "us", "lower", _COLOUR_TARGETS),
    ("digits.e_frac_us", "us", "lower", _COLOUR_TARGETS),
    ("digits.expand_us", "us", "lower", f"fixed_job_s (properties) on {CE}"),
    ("colourings.nu_us", "us", "lower", _COLOUR_TARGETS),
    ("colourings.mu_us", "us", "lower", _COLOUR_TARGETS),
    ("colourings.alpha_us", "us", "lower", _COLOUR_TARGETS),
    ("colourings.theta_us", "us", "lower", _COLOUR_TARGETS),
    ("colourings.phi_us", "us", "lower", _COLOUR_TARGETS),
    ("colourings.phi_memo_entries", "count", "lower", f"peak_rss_mib on {CE}"),
    ("colourings.colour_key_us", "us", "lower", _COLOUR_TARGETS),
    ("verify.combinations_us_per_value", "us", "lower", f"ops_per_s, op_tail_ms on {CE}"),
    ("verify.check_assembly_us_per_value", "us", "lower", f"ops_per_s, op_tail_ms on {CE}"),
    ("verify.from_json_us_per_value", "us", "lower", f"gate cost only on {CE}; no timed metric"),
    ("verify.validate_us_per_value", "us", "lower", f"gate cost only on {CE}; no timed metric"),
    ("cli.emit_us_per_value", "us", "lower", f"ops_per_s, op_tail_ms on {CE}"),
    ("cli.emit_bytes_per_op", "B", "lower", f"ops_per_s on {CE}"),
    ("cli.self_us_per_op", "us", "lower", f"op_p50_ms on {CO} (short ops)"),
    ("verify.colour_calls", "count", "lower", f"op_p50_ms, ops_per_s on {SE}"),
    ("verify.distinct_values", "count", "lower", "none: fixed by the inputs"),
    ("verify.colour_cache_useful_ratio", "ratio", "higher", f"op_p50_ms, ops_per_s on {SE}"),
    ("verify.colour_s", "s", "lower", f"op_p50_ms on {SE} and {CE}"),
    ("verify.self_s", "s", "lower", f"op_p50_ms on {SE}"),
    ("verify.search_nodes", "count", "lower", f"op_p50_ms on {SE}"),
    ("verify.search_nodes_per_s", "1/s", "higher", f"op_p50_ms, ops_per_s on {SE}"),
    ("verify.w2_scaling_efficiency", "ratio", "higher", f"fixed_job_s on {SE}"),
    ("construct.block_nodes_per_s", "1/s", "higher", f"fixed_job_s, op_p50_ms on {CO}"),
    ("construct.block_enum_self_s", "s", "lower", f"fixed_job_s, op_p50_ms on {CO}"),
    ("construct.nu_calls", "count", "lower", f"op_p50_ms on {CO}"),
    ("construct.nu_s", "s", "lower", f"op_p50_ms on {CO}"),
    ("construct.openness_radius_s", "s", "lower", f"op_p50_ms on {CO}"),
    ("construct.final_check_s", "s", "lower", f"op_p50_ms on {CO}"),
    ("construct.m5_best_depth", "count", "higher", f"fixed_job_s on {CO} (construct_max_m)"),
    ("construct.max_m", "count", "higher", f"none timed: the largest m that certified on {CO}"),
    ("construct.default_table_rejects", "count", "lower", "none: records the known defect"),
    ("trace_overhead_ratio", "ratio", "lower", "none: reported only"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    path.write_text(render(), encoding="utf-8")
    print(f"wrote {path.name}")
