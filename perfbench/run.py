"""qaoaforge benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload spsa-knapsack5 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

It must run from a checkout that holds ``src/qaoaforge``: the library is
imported from there and nowhere else.  The oracle (brute-force optimum set
and cost range) is computed here; the measured work runs in a separate
process (worker.py) so its peak memory is the workload's own, with BLAS
and OpenMP capped at one thread through the environment.  Any failed
operation makes the result incorrect and the exit code 1.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0
RESIDUAL_TOL = 1e-9


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def oracle(wl, seed: int, toy: bool):
    """Optimum set and cost range by enumerating every assignment."""
    from qaoaforge import model

    bf = model.brute_force_solve(wl.problem(wl.inputs(seed, toy)), full_table=True)
    return set(bf.optimum_set), float(bf.table.min()), float(bf.table.max())


def run_one(name: str, seed: int, seconds: float, trace: int, toy: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result line, worker report)."""
    from workloads import WORKLOADS

    start = time.perf_counter()
    wl = WORKLOADS[name]
    best = oracle(wl, seed, toy) if wl.problem is not None else None
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    if trace:
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"{name}-seed{seed}.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=TIME_LIMIT_S - (time.perf_counter() - start))
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    failed, hits, residuals = 0, [], []
    seen = set()
    for op in report["ops"]:
        if op["kind"] == "solve" and not op["error"] and best is not None:
            optimum_set, lo, hi = best
            residual = (op["objective"] - lo) / (hi - lo)
            if not -RESIDUAL_TOL <= residual <= 1 + RESIDUAL_TOL:
                op["error"] = f"best objective {op['objective']} outside the cost range [{lo}, {hi}]"
            elif op["pass"] != 1:  # pass 1 repeats pass 0
                hits.append(op["bitstring"] in optimum_set)
                residuals.append(residual)
        failed += op["error"] is not None
        if op["error"] and op["error"] not in seen:
            seen.add(op["error"])
            print(f"FAILED {name} {op['kind']} {op['step']} pass {op['pass']}: {op['error']}", file=sys.stderr)
    attempted = len(report["ops"])
    quality = report["quality"] = {
        "failed_fraction": failed / attempted,
        "optimum_hit_rate": sum(hits) / len(hits) if hits else None,
        "residual_energy": statistics.median(residuals) if residuals else None,
        "solves": len(hits),
    }
    metrics = report["metrics"]
    if trace:
        for k in ("optimum_hit_rate", "residual_energy"):
            metrics[f"optimize.{k}"] = quality[k] or 0.0
            report["samples"][f"optimize.{k}"] = len(hits)
    units = declared_units(trace)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "undeclared")} for k, v in metrics.items()},
    }
    return line, report


def summary(name: str, line: dict, report: dict) -> str:
    rows = [f"== {name}: correct={line['correct']} attempted={line['attempted']} failed={line['failed']}"]
    for k, m in line["metrics"].items():
        rows.append(f"  {k:<52} {m['value']:>14.6g} {m['unit']:<8} n={report['samples'][k]}")
    q = report["quality"]
    rows.append(f"  {'failed_fraction':<52} {q['failed_fraction']:>14.6g} {'fraction':<8} n={line['attempted']}")
    for k in ("optimum_hit_rate", "residual_energy"):
        if q[k] is not None:
            rows.append(f"  {k:<52} {q[k]:>14.6g} {'fraction':<8} n={q['solves']}")
    return "\n".join(rows)


def smoke() -> int:
    """Every workload at toy size, both modes; every declared metric must appear."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for name in WORKLOADS:
        for trace in (0, 1):
            line, report = run_one(name, 0, 1.0, trace, toy=True)
            print(summary(f"{name} trace={trace}", line, report), file=sys.stderr)
            got, declared = set(line["metrics"]), set(declared_units(trace))
            if got != declared:
                problems.append(f"{name} trace={trace}: metrics {sorted(got ^ declared)} differ from BENCHMARK.json")
            if any(not isinstance(report["samples"].get(k), int) for k in got):
                problems.append(f"{name} trace={trace}: a metric has no sample count")
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: {line['failed']} of {line['attempted']} operations failed")
    for p in problems:
        print("SMOKE FAILURE:", p, file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at toy size, checking every metric")
    args = ap.parse_args()
    if not (SRC / "qaoaforge" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a qaoaforge checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS

    if args.workload == "all":
        ok = True
        for name in WORKLOADS:
            line, report = run_one(name, args.seed, args.seconds, args.trace)
            print(summary(name, line, report))
            ok = ok and line["correct"]
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    line, report = run_one(args.workload, args.seed, args.seconds, args.trace)
    env = report["env"]
    print("env: " + json.dumps(env), file=sys.stderr)
    print(summary(args.workload, line, report), file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
