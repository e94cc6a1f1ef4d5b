"""Tests of the benchmark itself: its checkers, its tracing and its counts.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run as bench  # noqa: E402
from spans import Tracer, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
# pool indices of cheap instances: eval n=64, derivatives n=6, dp n=11 in
# discrete and in continuous mode
CHEAP = {"eval": [0], "derivatives": [0], "optimize": [0], "dp": [0, 1]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {name: bench.Run(WORKLOADS[name], SEED, str(tmp_path_factory.mktemp(name)))
            for name in WORKLOADS}


def _traced(run, k):
    tracer = Tracer(run.fc.modules)
    tracer.op = 0
    with tracer, tracer.span("bench.op"):
        rec = run.op(k)
    return rec, tracer


def _perturb(doc, path, rel=1e-6):
    """Add rel * max(|x|, 1) to the float x at ``path``.  Where ``path``
    ends at a vector or a matrix, its entry of largest magnitude is the one
    changed."""
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    while isinstance(node[last], list):
        node, last = node[last], max(range(len(node[last])), key=lambda i: _magnitude(node[last][i]))
    node[last] += rel * max(abs(node[last]), 1.0)
    return json.dumps(doc)


def _magnitude(x):
    return max(map(_magnitude, x)) if isinstance(x, list) else abs(x)


FLOATS = {
    "eval": [("f",), ("hitting", "kemeny"), ("hitting", "expectations"),
             ("hitting", "second_moments"), ("hitting", "h_matrix"), ("spectrum", 0, 0), ("pi", 1)],
    "derivatives": [("derivatives", 0, "second"), ("derivatives", 1, "h_cycle"),
                    ("derivatives", 2, "first"), ("derivatives", 0, "f_value"), ("m_bound",)],
    "optimize": [("f_min",), ("weights",), ("minimizer", "rates"), ("certificate", "h_values"),
                 ("certificate", "gap")],
    "dp": [("value",), ("checks", "value_minus_hamiltonian_bound")],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_output_and_rejects_one_perturbed_float(runs, name):
    run = runs[name]
    for k in CHEAP[name]:
        rec = run.op(k)
        inst = run.instances[k]
        assert run.judge(rec)["ok"], run.judge(rec)["reason"]
        for path in FLOATS[name]:
            bad = _perturb(json.loads(rec["text"]), path)
            v = run.w.check(inst, bad, rec["code"], rec["extra"])
            assert not v.ok, f"{name}: perturbing {path} was not caught"


def test_eval_rejects_a_monte_carlo_mean_off_by_ten_standard_errors(runs):
    run = runs["eval"]
    rec = run.op(0)
    x, y, _ = run.instances[0]["mc"]
    hit = json.loads(rec["text"])["hitting"]
    mean, second = hit["expectations"][x][y], hit["second_moments"][x][y]
    mc = rec["extra"]
    off = mean + 10 * ((second - mean * mean) / mc.samples) ** 0.5
    bad = type(mc)(off, mc.second_moment, mc.std_error, mc.second_moment_std_error, mc.samples)
    assert run.w.check(run.instances[0], rec["text"], rec["code"], mc).ok
    assert not run.w.check(run.instances[0], rec["text"], rec["code"], bad).ok


def test_dp_rejects_an_invalid_path(runs):
    run = runs["dp"]
    rec = run.op(0)
    doc = json.loads(rec["text"])
    doc["path"] = doc["path"][:1] + doc["path"][2:]
    assert not run.w.check(run.instances[0], json.dumps(doc), 0, None).ok


def test_optimize_rejects_a_nonzero_exit(runs):
    run = runs["optimize"]
    rec = run.op(0)
    assert not run.w.check(run.instances[0], rec["text"], 3, None).ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(runs, name):
    run = runs[name]
    for k in CHEAP[name]:
        plain = run.op(k)
        traced, tracer = _traced(run, k)
        assert traced["text"] == plain["text"] and traced["code"] == plain["code"] == 0
        assert len(tracer.spans) > 1 and all(s is not None for s in tracer.spans)


COUNTS = ["linalg.factorizations", "optimizer.f_value.calls", "dp.states", "serialize.bytes",
          "rng.draws", "eigentime.calls", "graph.cycles_enumerated"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(runs, name):
    def counts():
        tracer = Tracer(runs[name].fc.modules)
        with tracer:
            for k in CHEAP[name]:
                tracer.op = k
                with tracer.span("bench.op"):
                    runs[name].op(k)
        m = tracer.metrics(len(CHEAP[name]), 1.0, 1.0)
        return {c: m[c] for c in COUNTS}

    first = counts()
    assert first == counts()
    assert first["serialize.bytes"] > 0


def test_tracer_uninstall_restores_every_function(runs):
    import numpy as np

    run = runs["eval"]
    before = (np.linalg.solve, run.fc.cli.main, run.fc.eigentime.hitting_report,
              run.fc.cli.dumps, run.fc.generator.support_graph)
    with Tracer(run.fc.modules):
        assert np.linalg.solve is not before[0] and run.fc.cli.dumps is not before[3]
    assert (np.linalg.solve, run.fc.cli.main, run.fc.eigentime.hitting_report,
            run.fc.cli.dumps, run.fc.generator.support_graph) == before


def test_self_time_subtracts_direct_children():
    t = Tracer({})
    t.spans = [(0, -1, "cli.main", 0.0, 10.0, False, 0),
               (1, 0, "eigentime.a", 1.0, 5.0, False, 0),
               (2, 1, "linalg.solve", 2.0, 3.0, False, 0),
               (3, 0, "serialize.dumps", 6.0, 7.0, False, 0)]
    assert t.self_times() == [5.0, 3.0, 1.0, 1.0]


def test_tail_has_ten_samples_beyond_it():
    lat = list(range(100))
    value, pct, n = bench.tail(lat)
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(x > value for x in lat) == 10


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    layer = Tracer({}).metrics(1, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_times_are_scaled_by_the_host_speed_kernel(tmp_path, monkeypatch):
    """With the kernel reading twice REF_MS, every reported time is half
    the CPU time measured, and the wall times stay in the record."""
    monkeypatch.setattr(bench.hostspeed, "sample", lambda: 2.0 * bench.hostspeed.REF_MS)
    metrics, ops, detail = bench.measure(WORKLOADS["optimize"], SEED, 1e-3, str(tmp_path))
    cpu = [r["cpu_seconds"] for r in ops]
    assert metrics["latency_p50_ms"] == pytest.approx(0.5e3 * sorted(cpu)[len(cpu) // 2])
    assert metrics["throughput_ops_s"] == pytest.approx(len(ops) / (0.5 * sum(cpu)))
    assert [r["normalized_s"] for r in ops] == pytest.approx([0.5 * c for c in cpu])
    assert detail["setup_s_all"] == pytest.approx([0.5 * c for c in detail["setup_cpu_s_all"]])
    assert metrics["setup_s"] == pytest.approx(statistics.median(detail["setup_s_all"]))
    assert detail["wall"]["latency_p50_ms"] > 0
