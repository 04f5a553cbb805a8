"""One measured workload run in its own process (launched by run.py).

Times the set-up and whole passes of the workload's steps, checks what it
can without the oracle, and prints one JSON line for run.py.  Every timing
is normalised for host speed: the ``Reference`` kernel runs after each
measurement, and a time counts as ``wall * nominal / kernel`` where
``kernel`` is the mean per-run kernel time just before and just after it.
On a shared host the raw wall time of one step swings by up to 2x between
runs while that ratio stays within a few percent.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import time
from importlib import metadata

import numpy as np

from qaoaforge import qaoa
from qaoaforge.errors import OptimizerDivergence, SizeCapError

import tracer as tr
from workloads import WORKLOADS, Op

REFERENCE_SHARE = 0.05
NORM_TOL = 1e-12
SYMMETRY_TOL = 1e-10
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0     # set-ups are repeated (small ones in batches) for this long
SETUP_BATCH_S = 0.05


class Reference:
    """Host-speed kernel: a frozen plain-numpy QAOA energy on a random diagonal.

    It copies the library's evolution as it stood when the benchmark was
    written (phase, R_x on reshaped halves, expectation), followed by
    ``dense_reps`` 8x8 propagators built as ``dense.expm_hermitian`` builds
    them, for a workload that spends its time in small dense linear
    algebra too.  It never imports the library, so it slows down with the
    host as the measured code does but not with changes to the program.
    """

    def __init__(self, spec: tuple[int, int, int, int, float]):
        self.qubits, self.layers, self.reps, self.dense_reps, self.nominal = spec
        self.energies = np.random.default_rng(0).normal(size=1 << self.qubits)
        self.hermitian = np.diag(np.arange(8.0)).astype(np.complex128) + 0.1
        self.samples = []
        self.last = self()

    def _energy(self, beta: float, gamma: float) -> float:
        n = self.qubits
        amp = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
        c, s = math.cos(beta / 2.0), -1j * math.sin(beta / 2.0)
        for _ in range(self.layers):
            amp *= np.exp(-0.5j * gamma * self.energies)
            for q in range(n):
                v = amp.reshape(-1, 2, 1 << q)
                a0, a1 = v[:, 0, :], v[:, 1, :]
                new0 = c * a0 + s * a1
                new1 = s * a0 + c * a1
                a0[:] = new0
                a1[:] = new1
        return float((amp.real ** 2 + amp.imag ** 2) @ self.energies)

    def __call__(self, units: int = 1) -> float:
        """Mean seconds per kernel run over `units` runs."""
        start = time.perf_counter()
        for _ in range(units):
            for i in range(self.reps):
                self._energy(0.1 + 1e-3 * i, 0.2)
            for _ in range(self.dense_reps):
                w, v = np.linalg.eigh(self.hermitian)
                (v * np.exp(-1j * w)) @ v.conj().T
        elapsed = (time.perf_counter() - start) / units
        self.samples.append(elapsed)
        return elapsed

    def timed(self, fn, *args):
        """Run fn; return (result, wall seconds, host-normalised seconds).

        The kernel runs for about REFERENCE_SHARE of the measured time
        after it, so a long step is normalised by a long, quiet sample.
        """
        before = self.last
        start = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - start
        self.last = self(max(1, round(REFERENCE_SHARE * wall / self.nominal)))
        return out, wall, wall * self.nominal / (0.5 * (before + self.last))


def measure_setup(wl, inputs, ref):
    """Host-normalised set-up times; small set-ups run in batches."""
    ctx, wall, _ = ref.timed(wl.setup, inputs)
    batch = max(1, int(SETUP_BATCH_S / max(wall, 1e-9)))

    def run_batch():
        for _ in range(batch):
            out = wl.setup(inputs)
        return out

    times, start = [], time.perf_counter()
    while len(times) < MIN_SETUPS or time.perf_counter() - start < SETUP_BUDGET_S:
        ctx, _, norm = ref.timed(run_batch)
        times.append(norm / batch)
    return ctx, times


def run_passes(wl, ctx, seed, toy, ref, seconds, min_passes, first_pass, tracer=None):
    """Whole passes until `seconds` have gone by and at least `min_passes` ran."""
    passes, start = [], time.perf_counter()
    index = first_pass
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.pass_index = index
        one = {"index": index, "norm": {}, "wall": {}, "ops": [], "energy_calls": 0}
        for step, fn in wl.steps:
            calls = tracer.calls("qaoa.energy") if tracer else 0
            op, wall, norm = ref.timed(guarded, fn, step, ctx, seed, index, toy)
            one["norm"][step], one["wall"][step] = norm, wall
            one["ops"].append(op)
            if tracer is not None and op.kind == "solve":
                one["energy_calls"] += tracer.calls("qaoa.energy") - calls
        passes.append(one)
        index += 1
    return passes


def guarded(fn, step, ctx, seed, index, toy) -> Op:
    """A failed operation is counted, not fatal."""
    try:
        return fn(ctx, seed, index, toy)
    except (OptimizerDivergence, SizeCapError, MemoryError) as exc:
        return Op("error", step, error=f"{type(exc).__name__}: {exc}")


def pass_time(passes, step_names):
    """Sum over steps of the median host-normalised step time."""
    return sum(statistics.median(p["norm"][s] for p in passes) for s in step_names)


def check_ops(ctx, passes) -> list[dict]:
    """Output checks that need no oracle; one entry per operation."""
    out = []
    first = {}
    for p in passes:
        for op in p["ops"]:
            entry = {"kind": op.kind, "step": op.step, "pass": p["index"], "error": op.error}
            out.append(entry)
            if op.error:
                continue
            if op.kind == "solve":
                rec = op.result
                params = qaoa.QaoaParams(**rec.final_params)
                entry["norm_error"] = qaoa.run(ctx[op.step], params).norm_error()
                entry["bitstring"] = rec.best_bitstring
                entry["objective"] = rec.best_objective
                if entry["norm_error"] > NORM_TOL:
                    entry["error"] = f"final-state norm error {entry['norm_error']:.3e} > {NORM_TOL}"
                fingerprint = rec.comparable_dict()
            elif op.kind == "scan":
                v = op.result.values
                worst = float(np.abs(v - v[::-1, ::-1]).max())
                if worst > SYMMETRY_TOL:
                    entry["error"] = f"scan point symmetry off by {worst:.3e}"
                fingerprint = v.tolist()
            else:
                failed = [c.name for c in op.result if not c.passed]
                if failed:
                    entry["error"] = "failed checks: " + ", ".join(failed)
                fingerprint = [(c.name, c.passed, c.detail) for c in op.result]
            # passes 0 and 1 repeat the same inputs
            if p["index"] in (0, 1):
                if op.step in first and first[op.step] != fingerprint and not entry["error"]:
                    entry["error"] = "repeat of pass 0 gave a different result"
                first.setdefault(op.step, fingerprint)
    return out


def environment() -> dict:
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}"
        if read(f"{base}/size"):
            caches[f"L{read(base + '/level')}{read(base + '/type')[0].lower()}"] = read(f"{base}/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_untraced(wl, inputs, seed, toy, ref, seconds):
    """End-to-end metrics: set-up, one pass, peak memory."""
    ctx, setup_times = measure_setup(wl, inputs, ref)
    wl.warmup(ctx, toy)
    passes = run_passes(wl, ctx, seed, toy, ref, seconds, 2, 0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "task_s": pass_time(passes, [s for s, _ in wl.steps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup_times), "task_s": len(passes), "peak_rss_mb": 1}
    return metrics, samples, ctx, passes, None


def measure_traced(wl, inputs, seed, toy, ref, seconds):
    """Per-layer metrics: half the time untraced, then set-up and passes traced."""
    steps = [s for s, _ in wl.steps]
    ctx, _, _ = ref.timed(wl.setup, inputs)
    wl.warmup(ctx, toy)
    untraced = run_passes(wl, ctx, seed, toy, ref, seconds / 2, 1, 0)

    tracer = tr.Tracer()
    tracer.install()
    before = tracer.snapshot()
    ctx, setup_wall, _ = ref.timed(wl.setup, inputs)
    after_setup = tracer.snapshot()
    traced = run_passes(wl, ctx, seed, toy, ref, seconds / 2, 1, len(untraced), tracer)
    n = len(traced)
    unit = tr.combine(tr.diff(after_setup, before), tr.diff(tracer.snapshot(), after_setup), n)
    metrics = tr.layer_metrics(unit, [x * 1e6 for x in tracer.latency["qaoa.energy"]], tracer.edges, n)
    trace = {
        "passes": n,
        "functions": {k: dict(zip(("calls", "total_s", "self_s", "work"), v)) for k, v in unit.items()},
        "edges": [{"caller": a, "callee": b, "calls": c, "total_s": t}
                  for (a, b), (c, t) in sorted(tracer.edges.items())],
        "spans": [dict(zip(("id", "parent", "name", "start", "end", "pass"), s)) for s in tracer.spans],
    }

    iterations = sum(sum(len(t) for t in op.result.traces)
                     for p in traced for op in p["ops"] if op.kind == "solve")
    energy_calls = sum(p["energy_calls"] for p in traced)
    wall = setup_wall + sum(sum(p["wall"].values()) for p in traced) / n
    untraced_s = pass_time(untraced, steps)
    metrics.update({
        "optimize.iterations_run": iterations / n,
        "optimize.energy_calls_per_iteration": energy_calls / iterations if iterations else 0.0,
        "trace.wall_s": wall,
        "trace.unaccounted_s": wall - sum(metrics[f"{layer}.self_s"] for layer in tr.MODULES),
        "trace.overhead_s": pass_time(traced, steps) - untraced_s,
        "trace.task_untraced_s": untraced_s,
        "host.reference_ms": 1e3 * statistics.median(ref.samples),
        "host.task_wall_s": sum(statistics.median(p["wall"][s] for p in untraced) for s in steps),
    })
    return metrics, {k: n for k in metrics}, ctx, untraced + traced, trace


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    ref = Reference(wl.reference)
    measure = measure_traced if args.trace else measure_untraced
    metrics, samples, ctx, passes, trace = measure(
        wl, wl.inputs(args.seed, args.toy), args.seed, args.toy, ref, args.seconds
    )
    env = environment()
    if trace is not None and args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "env": env, **trace}, fh)
    ops = check_ops(ctx, passes)
    print(json.dumps({"env": env, "metrics": metrics, "samples": samples, "ops": ops}))


if __name__ == "__main__":
    main()
