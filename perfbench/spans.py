"""Span tracing installed from outside the program.

``Tracer.install`` replaces, in every ``fastchain`` module, the
functions named in the ``__all__`` of each traced layer (wherever the same
function object is bound, so names re-imported into other modules are
caught too), the public methods of ``CyclePolytope`` and ``RandomStream``,
``fastchain.cli.main``, and the ``numpy.linalg`` entry points ``solve``,
``inv``, ``eig`` and ``eigvals``.  Each wrapper records one span
``(id, parent, name, start, end, error, op)`` in memory; ``uninstall``
puts every original back.  Self time is a span's duration minus the
durations of its direct children, which nest inside it because the program
is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import math
import time

import numpy as np

# module -> layer name; the layers are the package modules the workloads use
LAYERS = {
    "fastchain.cli": "cli",
    "fastchain._serialize": "serialize",
    "fastchain.eigentime": "eigentime",
    "fastchain.derivatives": "derivatives",
    "fastchain.optimizer": "optimizer",
    "fastchain.graph": "graph",
    "fastchain.generator": "generator",
    "fastchain.dp": "dp",
    "fastchain.rng": "rng",
}
CLASSES = {"fastchain.optimizer": "CyclePolytope", "fastchain.rng": "RandomStream"}
LINALG = ("solve", "inv", "eig", "eigvals")


def _flops(name: str, args, result) -> float:
    """Textbook operation counts, computed from the matrix sizes: LU is
    2n^3/3, each solved right-hand side 2n^2, an inverse 2n^3, Hessenberg QR
    eigenvalues 10n^3 and eigenvectors 25n^3 in total."""
    n = int(np.shape(args[0])[0])
    if name == "solve":
        b = np.shape(args[1])
        return 2 * n ** 3 / 3 + 2 * n * n * (b[1] if len(b) > 1 else 1)
    return {"inv": 2 * n ** 3, "eigvals": 10 * n ** 3, "eig": 25 * n ** 3}[name]


def _states(args, table) -> int:
    return table.n << table.n


# span name -> (counter, increment from the call's arguments and result)
COUNTERS = {
    **{f"linalg.{k}": ("linalg.flops_computed", functools.partial(_flops, k)) for k in LINALG},
    "rng.uint64": ("rng.draws", lambda args, result: len(result)),
    "serialize.dumps": ("serialize.bytes", lambda args, result: len(result.encode())),
    "graph.enumerate_simple_cycles": ("graph.cycles_enumerated", lambda args, result: len(result)),
    "dp.discrete_value_function": ("dp.states", _states),
    "dp.continuous_value_function": ("dp.states", _states),
    "optimizer.f_value": ("optimizer.f_value.inf", lambda args, result: not math.isfinite(result)),
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".share")):
        return "ratio"
    return {"linalg.flops_computed": "flop", "serialize.bytes": "bytes"}.get(name, "count")


class Tracer:
    """Spans and counters of one traced pass over the given ``fastchain``
    modules (module name -> module).  ``op`` is set by the caller before each
    operation so spans can be grouped per operation."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = -1
        self.counts = dict.fromkeys((key for key, _ in COUNTERS.values()), 0)

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {name: self.modules[name] for name in LAYERS if name in self.modules}
        targets = {}
        for modname, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    targets[id(obj)] = (obj, f"{LAYERS[modname]}.{attr}")
        cli = modules["fastchain.cli"]
        targets[id(cli.main)] = (cli.main, "cli.main")
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and obj is targets[id(obj)][0]:
                    self._patch(mod, attr, obj, targets[id(obj)][1])
        for modname, clsname in CLASSES.items():
            cls = getattr(modules[modname], clsname)
            for attr, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    self._patch(cls, attr, obj, f"{LAYERS[modname]}.{attr}")
        for attr in LINALG:
            self._patch(np.linalg, attr, getattr(np.linalg, attr), f"linalg.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, name) -> None:
        key, increment = COUNTERS.get(name, (None, None))
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        # the body of ``span`` inlined: tiny calls are common, and the
        # wrapper's own cost lands in the parent span's self time
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            error = True
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                error = False
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, stack[-1] if stack else -1, name, t0, t1, error, self.op)
            if key is not None:
                counts[key] += increment(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # --- reduction ------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def metrics(self, ops: int, untraced_s: float, traced_s: float) -> dict:
        own = self.self_times()
        layer_self, name_self, layer_calls, name_calls, layer_errors = {}, {}, {}, {}, {}
        f_value_s = 0.0
        for s, t in zip(self.spans, own):
            name = s[2]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + t
            name_self[name] = name_self.get(name, 0.0) + t
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            name_calls[name] = name_calls.get(name, 0) + 1
            layer_errors[layer] = layer_errors.get(layer, 0) + s[5]
            if name == "optimizer.f_value":
                f_value_s += s[4] - s[3]
        c = self.counts
        fact = sum(name_calls.get(f"linalg.{k}", 0) for k in LINALG)
        f_calls = name_calls.get("optimizer.f_value", 0)
        dp_s = layer_self.get("dp", 0.0)
        traced_ops_s = sum(s[4] - s[3] for s in self.spans if s[2] == "bench.op")
        return {
            "linalg.factorizations": fact,
            "linalg.factorizations_per_op": fact / ops,
            "linalg.flops_computed": c["linalg.flops_computed"],
            "linalg.self_s": layer_self.get("linalg", 0.0),
            "eigentime.self_s": layer_self.get("eigentime", 0.0),
            "eigentime.calls": layer_calls.get("eigentime", 0),
            "eigentime.errors": layer_errors.get("eigentime", 0),
            "eigentime.simulate_hitting.self_s": name_self.get("eigentime.simulate_hitting", 0.0),
            "rng.self_s": layer_self.get("rng", 0.0),
            "rng.draws": c["rng.draws"],
            "serialize.dumps.self_s": name_self.get("serialize.dumps", 0.0),
            "serialize.bytes": c["serialize.bytes"],
            "cli.self_s": layer_self.get("cli", 0.0),
            "derivatives.self_s": layer_self.get("derivatives", 0.0),
            "derivatives.calls": layer_calls.get("derivatives", 0),
            "derivatives.errors": layer_errors.get("derivatives", 0),
            "generator.self_s": layer_self.get("generator", 0.0),
            "generator.support_graph.calls": name_calls.get("generator.support_graph", 0),
            "graph.is_strongly_connected.calls": name_calls.get("graph.is_strongly_connected", 0),
            "graph.enumerate_simple_cycles.self_s": name_self.get("graph.enumerate_simple_cycles", 0.0),
            "graph.cycles_enumerated": c["graph.cycles_enumerated"],
            "optimizer.self_s": layer_self.get("optimizer", 0.0),
            "optimizer.f_value.calls": f_calls,
            "optimizer.f_value.inf_frac": c["optimizer.f_value.inf"] / f_calls if f_calls else 0.0,
            "optimizer.f_value.share": f_value_s / traced_ops_s if traced_ops_s else 0.0,
            "optimizer.f_and_h.calls": name_calls.get("optimizer.f_and_h", 0),
            "optimizer.rates.self_s": name_self.get("optimizer.rates", 0.0),
            "optimizer.is_irreducible.self_s": name_self.get("optimizer.is_irreducible", 0.0),
            "optimizer.stationarity_check.self_s": name_self.get("optimizer.stationarity_check", 0.0),
            "dp.self_s": dp_s,
            "dp.states": c["dp.states"],
            "dp.states_per_s": c["dp.states"] / dp_s if dp_s else 0.0,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        }

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: id, parent, name, start, end, error, op."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        error = True
        t0 = time.perf_counter()
        try:
            yield
            error = False
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, self._stack[-1] if self._stack else -1, name, t0, t1, error, self.op)
