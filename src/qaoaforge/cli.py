"""Command-line front end: solve, scan, verify, and brute subcommands.

Every flag can also be set through an environment variable with the
QAOAFORGE_ prefix (for example QAOAFORGE_SEED=7); explicit flags win.

Exit codes: 0 success, 1 failed verification property, 2 unreadable or
malformed problem / bad arguments, 3 size cap exceeded, 4 optimizer abort.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, qaoa, verify
from .errors import OptimizerDivergence, SizeCapError
from .ising import DIAGONAL_CAP, assignment_of_basis_index, to_spin
from .model import bits_to_string, brute_force_solve, load_problem
from .optimize import OptimizerConfig, optimize


def _env_str(name: str, fallback: str) -> str:
    return os.environ.get("QAOAFORGE_" + name, fallback)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get("QAOAFORGE_" + name)
    return fallback if raw is None else int(raw)


def _env_flag(name: str) -> bool:
    return _env_str(name, "").strip().lower() in ("1", "true", "yes", "on")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoaforge",
        description="Exact-simulation QAOA solver for QUBO/PUBO problem files.",
    )
    parser.add_argument("--version", action="version", version=f"qaoaforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="optimize a problem file and write run artifacts")
    solve.add_argument("problem_file")
    solve.add_argument("--layers", "-p", type=int, default=_env_int("LAYERS", 1))
    solve.add_argument(
        "--optimizer", choices=("spsa", "gd"), default=_env_str("OPTIMIZER", "spsa")
    )
    solve.add_argument("--restarts", type=int, default=_env_int("RESTARTS", 10))
    solve.add_argument("--seed", type=int, default=_env_int("SEED", 0))
    solve.add_argument("--shots", type=int, default=_env_int("SHOTS", 0),
                       help="0 = exact expectations")
    solve.add_argument("--iters", type=int, default=_env_int("ITERS", 2000))
    solve.add_argument("--out", default=_env_str("OUT", "qaoa_run"),
                       help="output directory for manifest/run/histogram/trace files")
    solve.add_argument("--no-scale", action="store_true", default=_env_flag("NO_SCALE"))
    solve.add_argument(
        "--squash", choices=("none", "tanh"), default=_env_str("SQUASH", "none")
    )
    solve.set_defaults(func=cmd_solve)

    scan = sub.add_parser("scan", help="write a p=1 energy landscape grid as CSV")
    scan.add_argument("problem_file")
    scan.add_argument("--resolution", type=int, default=_env_int("RESOLUTION", 33))
    scan.add_argument("--range", dest="range_spec", default=_env_str("RANGE", ""),
                      help="LO:HI in radians applied to both axes (default -pi:pi)")
    scan.add_argument("--no-scale", action="store_true", default=_env_flag("NO_SCALE"))
    scan.add_argument("--out", default=_env_str("OUT", "landscape.csv"))
    scan.set_defaults(func=cmd_scan)

    ver = sub.add_parser("verify", help="run a property-check suite")
    ver.add_argument(
        "--suite",
        choices=tuple(sorted(verify.SUITES)) + ("all",),
        default=_env_str("SUITE", "all"),
    )
    ver.add_argument("--seed", type=int, default=_env_int("SEED", 0))
    ver.set_defaults(func=cmd_verify)

    brute = sub.add_parser("brute", help="enumerate the exact optimum set")
    brute.add_argument("problem_file")
    brute.set_defaults(func=cmd_brute)

    return parser


# ------------------------------------------------------------------- solve

def _problem_manifest(path: str, problem) -> dict:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {
        "path": str(path),
        "sha256": digest,
        "kind": type(problem).__name__,
        "n": problem.n,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_histogram_csv(path: Path, spec, record) -> None:
    value_col = "count" if record.histogram_mode == "counts" else "probability"
    rows = sorted(record.histogram.items(), key=lambda kv: (spec.energies[kv[0]], kv[0]))
    lines = [f"bitstring,basis_index,scaled_energy,objective,{value_col}"]
    for z, value in rows:
        bits = assignment_of_basis_index(z, spec.hamiltonian.n)
        scaled = float(spec.energies[z])
        objective = spec.objective(scaled)
        val = str(value) if record.histogram_mode == "counts" else f"{value:.17g}"
        lines.append(f"{bits_to_string(bits)},{z},{scaled:.17g},{objective:.17g},{val}")
    path.write_text("\n".join(lines) + "\n")


def _write_trace_csv(path: Path, record) -> None:
    best = record.best_restart
    lines = ["iter,energy", f"0,{record.initial_energies[best]:.17g}"]
    for i, e in enumerate(record.traces[best], start=1):
        lines.append(f"{i},{e:.17g}")
    path.write_text("\n".join(lines) + "\n")


def _load_circuit_problem(path: str):
    """Load a problem; refuse n past the diagonal cap before to_spin.

    to_spin expands a degree-k PUBO monomial into 2^k spin terms.
    """
    problem = load_problem(path)
    if problem.n > DIAGONAL_CAP:
        raise SizeCapError(f"circuit needs n <= {DIAGONAL_CAP} variables, got n = {problem.n}")
    return problem


def cmd_solve(args) -> int:
    problem = _load_circuit_problem(args.problem_file)
    spec = qaoa.build_circuit(to_spin(problem), layers=args.layers, scaled=not args.no_scale)
    config = OptimizerConfig(
        method=args.optimizer,
        max_iters=args.iters,
        restarts=args.restarts,
        seed=args.seed,
        shots=args.shots,
        squash=args.squash,
    )
    record = optimize(spec, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "qaoaforge",
        "version": __version__,
        "command": "solve",
        "created": datetime.now(timezone.utc).isoformat(),
        "problem": _problem_manifest(args.problem_file, problem),
        "circuit": {
            "layers": args.layers,
            "scaled": not args.no_scale,
            "scale_factor": spec.k_scale,
        },
        "optimizer": record.config,
    }
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "run.json", record.to_dict())
    _write_histogram_csv(out / "histogram.csv", spec, record)
    _write_trace_csv(out / "trace.csv", record)

    print(f"best bitstring   {record.best_bitstring}  (basis index {record.best_basis_index})")
    print(f"scaled energy    {record.best_energy:.10g}")
    if args.shots:
        print(f"exact energy     {record.exact_energy:.10g}  (scaled, of the returned angles)")
    print(f"energy           {record.best_energy_unscaled:.10g}")
    print(f"objective        {record.best_objective:.10g}")
    print(f"solution cost    {record.best_cost:.10g}")
    print(f"best restart     {record.best_restart + 1} of {len(record.restart_finals)}")
    print(f"artifacts        {out / 'manifest.json'} run.json histogram.csv trace.csv")
    return 0


# -------------------------------------------------------------------- scan

def _parse_range(spec_text: str) -> tuple[float, float] | None:
    if not spec_text:
        return None
    lo, sep, hi = spec_text.partition(":")
    if not sep:
        raise ValueError(f"range must look like LO:HI, got {spec_text!r}")
    bounds = (float(lo), float(hi))
    if not bounds[0] < bounds[1]:
        raise ValueError(f"range lower bound must be below upper, got {spec_text!r}")
    return bounds


def cmd_scan(args) -> int:
    problem = _load_circuit_problem(args.problem_file)
    spec = qaoa.build_circuit(to_spin(problem), layers=1, scaled=not args.no_scale)
    bounds = _parse_range(args.range_spec)
    grid = qaoa.landscape_scan(
        spec, args.resolution, beta_range=bounds, gamma_range=bounds
    )
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(grid.to_csv())
    label = "unscaled" if args.no_scale else "scaled"
    print(f"wrote {args.resolution}x{args.resolution} {label} landscape to {out}")
    return 0


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        results.extend(verify.run_suite(name, seed=args.seed))
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        # fixed width (the longest check name), so one suite prints the lines of `--suite all` verbatim
        print(f"{status}  {r.name:<28}  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ------------------------------------------------------------------- brute

def cmd_brute(args) -> int:
    problem = load_problem(args.problem_file)
    result = brute_force_solve(problem)
    print(f"optimum cost  {result.best_cost:.10g}")
    print(f"optima        {len(result.optimum_set)}")
    for bits in result.optimum_set:
        print(f"  {bits}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # a malformed QAOAFORGE_* value raises ValueError
        return args.func(args)
    except (OSError, ValueError, OptimizerDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 4 if isinstance(exc, OptimizerDivergence) else 2


if __name__ == "__main__":
    sys.exit(main())
