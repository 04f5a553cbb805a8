"""Per-layer tracing from outside the library.

``install`` replaces every public function of the traced modules with a
timing wrapper, in every namespace that holds it: ``qaoa`` imports
``diagonalize`` by name from ``ising``, ``verify.SUITES`` holds the suite
functions, and the package re-exports most names.  A layer is a module.

Hot kernels run millions of times per solve, so calls are aggregated per
function and per (caller, callee) pair instead of being stored one span
each.  Only calls lasting at least ``SPAN_MIN_S`` are kept as spans, with
their parent span and the pass they belong to.
"""
from __future__ import annotations

import importlib
import inspect
import time
from array import array

MODULES = ("model", "ising", "simulator", "qaoa", "optimize", "dense", "verify")
SPAN_MIN_S = 0.01
LATENCY_SAMPLED = ("qaoa.energy",)

# work counted per call from the call's arguments
WORK = {
    # one read and one write of the complex128 state
    "simulator.apply_rx": lambda args: 32 << args[0].n,
    # one sign evaluation per term and basis state
    "ising.diagonalize": lambda args: len(args[0].terms) << args[0].n,
    # grid points
    "qaoa.landscape_scan": lambda args: args[1] ** 2,
}


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [name, child seconds, span id]
        self.stats = {}          # name -> [calls, total s, self s, work]
        self.edges = {}          # (caller, callee) -> [calls, total s]
        self.latency = {name: array("d") for name in LATENCY_SAMPLED}
        self.spans = []          # (id, parent id, name, start, end, pass)
        self.pass_index = -1
        self._next_id = 0

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        work = WORK.get(name)
        latency = self.latency.get(name)
        stack, edges, spans = self.stack, self.edges, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [name, 0.0, tracer._next_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if work is not None:
                    stats[3] += work(args)
                if latency is not None:
                    latency.append(dur)
                caller = "<bench>"
                if parent is not None:
                    parent[1] += dur
                    caller = parent[0]
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
                if dur >= SPAN_MIN_S:
                    spans.append((frame[2], parent[2] if parent else 0, name, start, end, tracer.pass_index))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        mods = {short: importlib.import_module(f"qaoaforge.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        namespaces = [vars(m) for m in mods.values()]
        namespaces += [vars(importlib.import_module("qaoaforge")), mods["verify"].SUITES]
        for ns in namespaces:
            for key, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    ns[key] = wrappers[obj]

    def snapshot(self) -> dict:
        return {name: list(v) for name, v in self.stats.items()}

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]


def diff(after: dict, before: dict) -> dict:
    zero = [0, 0.0, 0.0, 0.0]
    return {k: [a - b for a, b in zip(v, before.get(k, zero))] for k, v in after.items()}


def combine(setup: dict, passes: dict, n_passes: int) -> dict:
    """Stats for one set-up plus one pass."""
    zero = [0, 0.0, 0.0, 0.0]
    names = set(setup) | set(passes)
    return {
        k: [s + p / n_passes for s, p in zip(setup.get(k, zero), passes.get(k, zero))]
        for k in names
    }


def layer_metrics(unit: dict, latency_us, edges: dict, n_passes: int) -> dict:
    """The per-layer figures for one set-up plus one pass, from combined stats."""

    def get(name, field):
        return unit.get(name, [0, 0.0, 0.0, 0.0])[field]

    def layer_self(layer):
        return sum(v[2] for k, v in unit.items() if k.startswith(layer + "."))

    def group_self(names):
        return sum(get(n, 2) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_s": layer_self(layer) for layer in MODULES}
    for name in ("apply_rx", "apply_diagonal_phase", "expectation_diagonal", "init_plus", "apply_rzk_ladder"):
        out[f"simulator.{name}.self_s"] = get(f"simulator.{name}", 2)
    out["simulator.apply_rx.calls"] = get("simulator.apply_rx", 0)
    out["simulator.apply_rx.gbps_computed"] = ratio(get("simulator.apply_rx", 3), get("simulator.apply_rx", 2)) / 1e9
    out["simulator.apply_cnot.calls"] = get("simulator.apply_cnot", 0)
    out["ising.diagonalize.self_s"] = get("ising.diagonalize", 2)
    out["ising.diagonalize.ops_computed"] = get("ising.diagonalize", 3)
    out["ising.to_spin.self_s"] = group_self(("ising.to_spin", "ising.qubo_to_spin", "ising.pubo_to_spin"))
    out["model.build.self_s"] = group_self([k for k in unit if k.startswith("model.build_")])
    out["qaoa.build_circuit.self_s"] = get("qaoa.build_circuit", 2)
    out["qaoa.energy.calls"] = get("qaoa.energy", 0)
    if len(latency_us):
        lat = sorted(latency_us)
        out["qaoa.energy.p50_us"] = lat[len(lat) // 2]
        out["qaoa.energy.p99_us"] = lat[min(len(lat) - 1, int(0.99 * len(lat)))]
    else:
        out["qaoa.energy.p50_us"] = out["qaoa.energy.p99_us"] = 0.0
    out["qaoa.run.calls"] = get("qaoa.run", 0)
    grad = "qaoa.parameter_shift_gradient"
    out[f"{grad}.calls"] = get(grad, 0)
    out[f"{grad}.self_s"] = get(grad, 2)
    grad_energy = edges.get((grad, "qaoa.energy"), [0])[0] / n_passes
    out[f"{grad}.energy_calls_per_call"] = ratio(grad_energy, get(grad, 0))
    out["qaoa.landscape_scan.points_per_s"] = ratio(get("qaoa.landscape_scan", 3), get("qaoa.landscape_scan", 1))
    out["dense.expm_hermitian.calls"] = get("dense.expm_hermitian", 0)
    out["dense.expm_hermitian.self_s"] = get("dense.expm_hermitian", 2)
    out["dense.trotter_compare.self_s"] = get("dense.trotter_compare", 2)
    for suite in ("gates", "oracle", "symmetry", "trotter"):
        out[f"verify.suite.{suite}.s"] = get(f"verify.suite_{suite}", 1)
    return out
