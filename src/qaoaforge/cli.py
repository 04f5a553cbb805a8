"""Command-line front end: solve, scan, verify, and brute subcommands.

Every option can also be set through QAOAFORGE_<FLAG>, <FLAG> being its
long flag upper-cased with - as _ (QAOAFORGE_SEED=7, QAOAFORGE_NO_SCALE=1).
build_parser checks each set variable against its option's type and choices,
so a bad value exits 2 naming the variable before any file is read.
Explicit flags win.

Exit codes: 0 success, 1 failed verification property, 2 unreadable or
malformed problem / bad arguments, 3 size cap exceeded, 4 optimizer abort.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, qaoa, verify
from .errors import OptimizerDivergence, SizeCapError
from .ising import DIAGONAL_CAP, assignment_of_basis_index, to_spin
from .model import bits_to_string, brute_force_solve, load_problem
from .optimize import OptimizerConfig, optimize


_FLAG_WORDS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off", ""), False)


def _at_least(floor: int):
    """Option type: an integer no smaller than floor.

    argparse and _option name the type by its __name__ when they refuse a value.
    """
    def parse(text: str) -> int:
        if (value := int(text)) < floor:
            raise ValueError
        return value
    parse.__name__ = f"integer >= {floor}"
    return parse


def _option(parser: argparse.ArgumentParser, *flags: str, **kwargs) -> None:
    """add_argument, defaulting to QAOAFORGE_<FLAG> when that is set.

    <FLAG> is the first long flag upper-cased with - as _.  The value is parsed
    as the flag's: a switch through _FLAG_WORDS, else its type (or str), then its choices.
    """
    action = parser.add_argument(*flags, **kwargs)
    name = "QAOAFORGE_" + next(f for f in flags if f.startswith("--"))[2:].upper().replace("-", "_")
    if (raw := os.environ.get(name)) is None:
        return
    switch = action.const is True  # store_true
    try:
        value = _FLAG_WORDS[raw.strip().lower()] if switch else (action.type or str)(raw)
        if action.choices is not None and value not in action.choices:
            raise ValueError
    except (KeyError, ValueError):
        wanted = ("1/true/yes/on or 0/false/no/off" if switch else "/".join(map(str, action.choices or ()))
                  or f"parsable as {(action.type or str).__name__}")
        raise ValueError(f"{name} must be {wanted}, got {raw!r}") from None
    action.default = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoaforge",
        description="Exact-simulation QAOA solver for QUBO/PUBO problem files.",
    )
    parser.add_argument("--version", action="version", version=f"qaoaforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="optimize a problem file and write run artifacts")
    solve.add_argument("problem_file")
    _option(solve, "--layers", "-p", type=_at_least(1), default=1)
    _option(solve, "--optimizer", choices=("spsa", "gd"), default=OptimizerConfig.method)
    _option(solve, "--restarts", type=_at_least(1), default=OptimizerConfig.restarts)
    _option(solve, "--seed", type=_at_least(0), default=OptimizerConfig.seed)
    _option(solve, "--shots", type=_at_least(0), default=OptimizerConfig.shots, help="0 = exact expectations")
    _option(solve, "--iters", type=_at_least(0), default=OptimizerConfig.max_iters)
    _option(solve, "--out", default="qaoa_run", help="output directory for manifest/run/histogram/trace files")
    _option(solve, "--no-scale", action="store_true")
    _option(solve, "--squash", choices=("none", "tanh"), default=OptimizerConfig.squash)
    solve.set_defaults(func=cmd_solve)

    scan = sub.add_parser("scan", help="write a p=1 energy landscape grid as CSV")
    scan.add_argument("problem_file")
    _option(scan, "--resolution", type=_at_least(2), default=33)
    _option(scan, "--range", dest="range_spec", default="",
            help="LO:HI in radians for both axes, as --range=LO:HI when LO is negative (default -pi:pi)")
    _option(scan, "--no-scale", action="store_true")
    _option(scan, "--out", default="landscape.csv")
    scan.set_defaults(func=cmd_scan)

    ver = sub.add_parser("verify", help="run a property-check suite")
    _option(ver, "--suite", choices=tuple(sorted(verify.SUITES)) + ("all",), default="all")
    _option(ver, "--seed", type=_at_least(0), default=0)
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
    try:
        lo, hi = map(float, spec_text.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        raise ValueError(f"--range (QAOAFORGE_RANGE) must look like LO:HI with finite bounds, got {spec_text!r}") from None
    if not lo < hi:
        raise ValueError(f"--range (QAOAFORGE_RANGE) lower bound must be below upper, got {spec_text!r}")
    return lo, hi


def cmd_scan(args) -> int:
    bounds = _parse_range(args.range_spec)
    problem = _load_circuit_problem(args.problem_file)
    spec = qaoa.build_circuit(to_spin(problem), layers=1, scaled=not args.no_scale)
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
