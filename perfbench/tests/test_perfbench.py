"""Tests of the benchmark itself: tiny runs, the gate, seeding, the manifest.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.import_qcolour()

import gate  # noqa: E402
import manifest  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from common import Op, run_cli  # noqa: E402


def test_certify_smoke():
    tally = W.run_certify(seed=3, rounds=1, counts=(3, 4))
    assert tally.failed == 0, tally.failures
    assert tally.attempted == 11 and len(tally.op_s) == 10 and len(tally.fixed_s) == 1
    assert tally.extra["certify_values_per_s"][0] > 0


def test_search_smoke():
    universes = [W.Universe("nu", 8, 4, 2), W.Universe("theta", 30, integers_only=True)]
    tally = W.run_search(seed=3, passes=1, universes=universes)
    assert tally.failed == 0, tally.failures
    assert tally.attempted == 3  # two universes plus the naive cross-check
    assert tally.extra["search_w1_s"][0] > 0 and tally.fixed_s[0] > 0


def test_construct_smoke():
    tally = W.run_construct(rounds=1, m5_runs=1, budget=20_000)
    assert tally.failed == 0, tally.failures
    assert tally.extra["construct_max_m"][0] == 4
    assert tally.extra["construct.m5_best_depth"][0] >= 1


def test_gate_rejects_a_tampered_certificate(tmp_path):
    terms = ["1/3", "5/7", "3/4"]
    path = tmp_path / "terms.txt"
    path.write_text("\n".join(terms))
    op = run_cli(["check", "--colouring", "nu", "--mode", "finite", str(path)])
    assert gate.check_op(op, "nu", terms, random.Random(0)) is None

    obj = json.loads(op.stdout)
    entry = obj["combinations"][1]
    entry["colour"] = "nu:s:C1" if entry["colour"] != "nu:s:C1" else "nu:t:0,0,0,0,0"
    tampered = Op(op.argv, 0, json.dumps(obj), op.seconds)
    why = gate.check_op(tampered, "nu", terms, random.Random(0))
    assert why is not None and "combination mismatch" in why


def test_gate_rejects_differing_worker_outputs():
    u = W.Universe("nu", 8, 4, 2)
    w1, w2 = run_cli(W.search_argv(u, 1)), run_cli(W.search_argv(u, 2))
    assert gate.search_pair(w1, w2) is None
    result = json.loads(w2.stdout)
    result["nodes"] += 1
    differing = Op(w2.argv, 0, json.dumps(result, separators=(",", ":")) + "\n", w2.seconds)
    assert gate.search_pair(w1, differing) == "workers=1 and workers=2 outputs differ"


def test_gate_counts_unparsable_output_as_a_failure():
    garbled = Op(["construct"], 0, "not json", 0.0)
    assert gate.construct_op(garbled, 2).startswith("malformed output")
    assert gate.budget_op(Op(["construct"], 3, "{}", 0.0), 5)[0].startswith("malformed output")


def test_gate_rejects_an_unexhausted_search():
    op = run_cli(W.search_argv(W.Universe("nu", 8, 4, 2), 1) + ["--budget", "3"])
    assert op.rc == 3
    assert gate.search_pair(op, op) is not None


def test_same_seed_same_inputs():
    def inputs(seed):
        rng = random.Random(f"certify:{seed}")
        rounds = [W.certify_round(rng) for _ in range(3)]
        return json.dumps([rounds, [u.args() for u in W.search_list(seed)]]).encode()

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_certify_inputs_are_in_domain():
    rng = random.Random("certify:5")
    for colouring, terms in W.certify_round(rng):
        assert len(set(terms)) == len(terms)
        if colouring == "phi":
            assert math.prod(int(t) for t in terms) <= W.EXPONENT_LIMIT


def test_tail_rule():
    assert common.tail(list(range(100))) == (89, 90.0, 100)
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tracer_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls == {"inner": 3, "outer": 1}
    assert tracer.self_s["outer"] == tracer.total["outer"] - tracer.total["inner"]


def test_benchmark_json_matches_manifest():
    committed = (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    assert committed == manifest.render()


def test_manifest_within_contract_limits():
    spec = manifest.benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert set(manifest.HEADLINES) == {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
