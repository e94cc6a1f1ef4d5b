"""The four benchmark workloads: how each one draws its instances, writes
them as the program's JSON inputs, runs one operation and checks it.

Every operation drives the public command line in-process through
``fastchain.cli.main(argv)``; the program sees only the JSON files written
here.  Instances are drawn in a fixed round-robin over the size classes, and
a run ends on a whole round, so every run, whatever its seed, spends its
time on the same mix of sizes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import checks
import instances as inst_mod

MC_SAMPLES = 200


def _write(inputs: dict, path: str, obj) -> str:
    """Queue obj as the JSON text of the input file at path."""
    inputs[path] = json.dumps(obj)
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int        # distinct instances, about as many as a run's operations
    round: int       # operations per cycle of the size classes; runs end on a whole round
    trace_ops: int   # operations in the traced run (fixed, so its counts repeat)

    def instances(self, seed: int) -> list:
        rng = inst_mod.rng_for(self.name, seed)
        return [self.draw(rng, k) for k in range(self.pool)]

    def draw(self, rng, k: int) -> dict:
        raise NotImplementedError

    def write(self, inst: dict, workdir: str, k: int, inputs: dict) -> list:
        """Add the input files of instance k to inputs (path -> JSON text);
        returns the argv of its operation."""
        raise NotImplementedError

    def run(self, fc, inst: dict, argv: list):
        """One operation; returns (exit code, extra result for the checker)."""
        return fc.cli.main(argv), None

    # check(inst, output text, exit code, extra result) -> checks.Verdict
    check = None


def _out(workdir: str) -> str:
    return os.path.join(workdir, "out.json")


class EvalWorkload(Workload):
    """``fastchain eval`` on 6-cycle mixtures, n in {64, 96, 128}, plus a
    seeded ``simulate_hitting`` spot check with MC_SAMPLES paths."""

    def draw(self, rng, k):
        return inst_mod.eval_instance(rng, inst_mod.EVAL_SIZES[k % len(inst_mod.EVAL_SIZES)])

    def write(self, inst, workdir, k, inputs):
        g = _write(inputs, os.path.join(workdir, f"L{k}.json"), inst_mod.generator_json(inst["rates"]))
        p = _write(inputs, os.path.join(workdir, f"pi{k}.json"), inst["pi"].tolist())
        return ["eval", "--generator", g, "--pi", p, "--output", _out(workdir)]

    def run(self, fc, inst, argv):
        code = fc.cli.main(argv)
        with open(argv[2]) as fh:
            L = fc.generator.Generator.from_json(json.load(fh))
        x, y, seed = inst["mc"]
        return code, fc.eigentime.simulate_hitting(L, x, y, MC_SAMPLES, seed)

    check = staticmethod(checks.check_eval)


class DerivativesWorkload(Workload):
    """``fastchain eval --derivatives --second`` on all-cycle mixtures over
    random Hamiltonian digraphs, n in {6, 7, 8}."""

    def draw(self, rng, k):
        return inst_mod.derivatives_instance(rng, inst_mod.DERIV_SIZES[k % len(inst_mod.DERIV_SIZES)])

    def write(self, inst, workdir, k, inputs):
        g = _write(inputs, os.path.join(workdir, f"L{k}.json"), inst_mod.generator_json(inst["rates"]))
        p = _write(inputs, os.path.join(workdir, f"pi{k}.json"), inst["pi"].tolist())
        return ["eval", "--generator", g, "--pi", p, "--derivatives", "--second",
                "--output", _out(workdir)]

    check = staticmethod(checks.check_derivatives)


class OptimizeWorkload(Workload):
    """``fastchain optimize`` on the complete digraph K3 with a random pi."""

    def draw(self, rng, k):
        return inst_mod.optimize_instance(rng)

    def write(self, inst, workdir, k, inputs):
        g = _write(inputs, os.path.join(workdir, f"g{k}.json"), inst_mod.graph_json(inst["n"], inst["arcs"]))
        p = _write(inputs, os.path.join(workdir, f"pi{k}.json"), inst["pi"].tolist())
        return ["optimize", "--graph", g, "--pi", p, "--output", _out(workdir)]

    check = staticmethod(checks.check_optimize)


class DpWorkload(Workload):
    """``fastchain dp`` on random Hamiltonian digraphs: n = 11 and 12 in
    discrete mode and in continuous mode with random budgets, and n = 13 in
    discrete mode."""

    def draw(self, rng, k):
        return inst_mod.dp_instance(rng, *inst_mod.DP_CLASSES[k % len(inst_mod.DP_CLASSES)])

    def write(self, inst, workdir, k, inputs):
        g = _write(inputs, os.path.join(workdir, f"g{k}.json"), inst_mod.graph_json(inst["n"], inst["arcs"]))
        argv = ["dp", "--graph", g, "--mode", inst["mode"], "--output", _out(workdir)]
        if inst["budgets"] is not None:
            argv += ["--budgets", _write(inputs, os.path.join(workdir, f"b{k}.json"), inst["budgets"].tolist())]
        return argv

    check = staticmethod(checks.check_dp)


WORKLOADS = {
    w.name: w for w in (
        EvalWorkload("eval", pool=90, round=3, trace_ops=6),
        DerivativesWorkload("derivatives", pool=240, round=3, trace_ops=12),
        OptimizeWorkload("optimize", pool=90, round=1, trace_ops=8),
        DpWorkload("dp", pool=90, round=5, trace_ops=5),
    )
}
