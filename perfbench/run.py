"""Benchmark of the fastchain command line.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15

One run sets up several times (import fastchain from ``src/``, draw the
instances from ``--seed``, write them as JSON, one warm-up operation) and
reports the median set-up time, leaving the file writes untimed.  It then drives ``fastchain.cli.main`` in a
closed loop with one client until the operations have taken ``--seconds``
seconds and a whole round of the workload's size classes is done, and checks
every output outside the timed interval.  Times are CPU times scaled to a
nominal host speed, measured between operations (``hostspeed.py``).

With ``--trace 1`` it instead runs a fixed list of operations twice,
untraced and then with spans around every layer (see ``spans.py``),
requires identical outputs, and reports the per-layer metrics;
``--seconds`` is then unused, so that the counts of a traced run repeat
exactly.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a record with the environment
and every operation is written under ``perfbench/out/``.  METRICS.md
defines each metric.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported: nproc is small and runs are single-client
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from spans import Tracer, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUPS = 7
WALL_CAP = 1.5
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s", "throughput_ops_s": "ops/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "verified_frac": "ratio", "accuracy_digits": "digits", "peak_rss_mb": "MB",
}


class Program:
    """The fastchain modules one operation needs, freshly imported from src/."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "fastchain" or m.startswith("fastchain.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("fastchain.cli")
        self.eigentime = importlib.import_module("fastchain.eigentime")
        self.generator = importlib.import_module("fastchain.generator")
        self.modules = {m: sys.modules[m] for m in sys.modules if m == "fastchain" or m.startswith("fastchain.")}
        if not os.path.abspath(self.cli.__file__).startswith(SRC + os.sep):
            raise ImportError(f"fastchain imported from {self.cli.__file__}, not from {SRC}")


class Run:
    """One workload's instances, written inputs and operation loop."""

    def __init__(self, workload, seed: int, workdir: str):
        """Import the program, draw and serialize the instances, write the
        input files and run one warm-up operation.  ``setup_cpu`` is the CPU
        time of all of it but the file writes (see METRICS.md)."""
        c0 = time.process_time()
        self.w = workload
        self.fc = Program()
        self.instances = workload.instances(seed)
        inputs = {}
        self.argvs = [workload.write(inst, workdir, k, inputs) for k, inst in enumerate(self.instances)]
        self.out_path = self.argvs[0][self.argvs[0].index("--output") + 1]
        c1 = time.process_time()
        os.makedirs(workdir, exist_ok=True)
        for path, text in inputs.items():
            with open(path, "w") as fh:
                fh.write(text)
        c2 = time.process_time()
        self.op(0)
        self.setup_cpu = (c1 - c0) + (time.process_time() - c2)

    def op(self, k: int) -> dict:
        """Operation k, cycling through the pool; only the call is timed."""
        i = k % len(self.instances)
        inst, argv = self.instances[i], self.argvs[i]
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code, extra = self.w.run(self.fc, inst, argv)
        except (Exception, SystemExit):  # any crash is an operation failure, not a benchmark crash
            code, extra, error = None, None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        text = ""
        if os.path.exists(self.out_path):
            with open(self.out_path) as fh:
                text = fh.read()
        return {"k": k, "instance": i, "n": inst["n"], "seconds": dt, "cpu_seconds": cpu,
                "code": code, "error": error, "text": text, "extra": extra}

    def judge(self, rec: dict) -> dict:
        """The operation's record with its verdict, without its output."""
        inst = self.instances[rec["instance"]]
        if rec["error"] is not None:
            ok, answered, digits, reason = False, False, None, rec["error"]
        else:
            v = self.w.check(inst, rec["text"], rec["code"], rec["extra"])
            ok, answered, reason = v.ok, rec["code"] == 0, v.reason
            digits = v.digits() if v.residuals else None
        return {"k": rec["k"], "instance": rec["instance"], "n": rec["n"], "seconds": rec["seconds"],
                "code": rec["code"], "ok": ok, "answered": answered, "digits": digits,
                "reason": reason}


def tail(latencies: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def measure(workload, seed: int, seconds: float, workdir: str) -> tuple:
    """The end-to-end metrics.  Every timed interval (each set-up, each
    operation) is bracketed by samples of the host-speed kernel and reported
    normalized, t * REF_MS / (mean of the two samples); the wall times are
    kept in the run record."""
    ref = [hostspeed.sample()]

    def normalized(dt: float) -> float:
        ref.append(hostspeed.sample())
        return dt * hostspeed.REF_MS / (0.5 * (ref[-2] + ref[-1]))

    setups, setups_cpu, setups_wall = [], [], []
    for s in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        run = Run(workload, seed, os.path.join(workdir, str(s)))
        setups_wall.append(time.perf_counter() - t0)
        setups_cpu.append(run.setup_cpu)
        setups.append(normalized(run.setup_cpu))
    # The run measures ``seconds`` of normalized operation time, so that it
    # holds the same operations however fast the host is at the moment; at
    # most WALL_CAP times as much wall time, so that a slow spell cannot
    # stretch it without end; and always whole rounds of the size classes.
    ops, busy, busy_wall, k = [], 0.0, 0.0, 0
    deadline = time.monotonic() + 2 * seconds + 30
    while ((busy < seconds and busy_wall < WALL_CAP * seconds) or k % workload.round) \
            and time.monotonic() < deadline:
        raw = run.op(k)
        norm = normalized(raw["cpu_seconds"])
        rec = run.judge(raw)
        rec["cpu_seconds"], rec["normalized_s"] = raw["cpu_seconds"], norm
        ops.append(rec)
        busy += norm
        busy_wall += rec["seconds"]
        k += 1
    lat = [r["normalized_s"] for r in ops]
    verified = sum(r["ok"] for r in ops)
    tail_s, tail_pct, count = tail(lat)
    digits = [r["digits"] for r in ops if r["digits"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": verified / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "verified_frac": verified / len(ops),
        "accuracy_digits": -tail([-d for d in digits])[0] if digits else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = [r["seconds"] for r in ops]
    detail = {"setup_s_all": setups, "setup_cpu_s_all": setups_cpu, "setup_wall_s_all": setups_wall,
              "accuracy_digits_min": min(digits, default=None),
              "tail_percentile": tail_pct, "tail_samples": count, "busy_s": busy, "busy_wall_s": busy_wall,
              "wall": {"throughput_ops_s": verified / busy_wall, "latency_p50_ms": 1e3 * statistics.median(wall),
                       "latency_tail_ms": 1e3 * tail(wall)[0]},
              "ref_ms": {"nominal": hostspeed.REF_MS, "median": statistics.median(ref),
                         "min": min(ref), "max": max(ref)},
              "ops": ops}
    return metrics, ops, detail


def trace(workload, seed: int, workdir: str, spans_path: str) -> tuple:
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run(workload, seed, workdir)
    tracer = Tracer(run.fc.modules)
    plain, traced = [], []

    def traced_op(k):
        tracer.op = k
        with tracer, tracer.span("bench.op"):
            traced.append(run.op(k))

    # each operation runs untraced and traced back to back, in alternating
    # order, so drift over the run does not show up as tracing overhead
    for k in range(workload.trace_ops):
        if k % 2:
            traced_op(k)
            plain.append(run.op(k))
        else:
            plain.append(run.op(k))
            traced_op(k)
    untraced_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    tracer.write(spans_path)
    ops = []
    for a, b in zip(plain, traced):
        rec = run.judge(b)
        if a["text"] != b["text"] or a["code"] != b["code"]:
            rec["ok"], rec["answered"] = False, True
            rec["reason"] = "traced and untraced outputs differ"
        ops.append(rec)
    metrics = tracer.metrics(len(ops), untraced_s, traced_s)
    per_op = [0] * len(ops)
    for s in tracer.spans:
        if s[2].startswith("linalg."):
            per_op[s[6]] += 1
    by_n = {}
    for rec, f in zip(ops, per_op):
        by_n.setdefault(rec["n"], []).append(f)
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans),
              "spans_file": os.path.relpath(spans_path, ROOT),
              "linalg_factorizations_per_op_by_n": {n: statistics.mean(v) for n, v in sorted(by_n.items())},
              "ops": ops}
    return metrics, ops, detail


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(), "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown (not a git checkout)"


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{stem}-{os.getpid()}")
    try:
        if args.trace:
            metrics, ops, detail = trace(workload, args.seed, workdir,
                                         os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, ops, detail = measure(workload, args.seed, args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wrong = [r for r in ops if r["answered"] and not r["ok"]]
    failed = [r for r in ops if not r["ok"]]
    result = {
        "correct": not wrong, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    env = environment(args.seed)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result, "detail": detail}
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for r in failed[:5]:
        print(f"op {r['k']} (n={r['n']}) failed: {r['reason']}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {len(failed)} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  wall-clock, not normalized: {json.dumps(detail['wall'])}; "
              f"host-speed kernel ms: {json.dumps(detail['ref_ms'])}")
    if args.trace:
        print(f"  linalg factorizations per op by n: {detail['linalg_factorizations_per_op_by_n']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one
    table of the end-to-end metrics."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':40s} {'unit':8s}" + "".join(f"{w:>14s}" for w in rows))
    for m in names:
        unit = next(iter(rows.values()))["metrics"][m]["unit"]
        print(f"{m:40s} {unit:8s}" + "".join(f"{r['metrics'][m]['value']:14.6g}" for r in rows.values()))
    print(f"{'attempted / failed':49s}" + "".join(f"{r['attempted']:>9d} / {r['failed']:<2d}" for r in rows.values()))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload and print one table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fastchain", "__init__.py")):
        print(f"error: no fastchain sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
