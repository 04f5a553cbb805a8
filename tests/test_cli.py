import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import qaoaforge
from qaoaforge import cli, ising, qaoa
from qaoaforge.errors import OptimizerDivergence


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.json"
    f.write_text(json.dumps({
        "type": "maxcut", "vertices": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    }))
    return f


@pytest.fixture
def knapsack_file(tmp_path):
    f = tmp_path / "knap.json"
    f.write_text(json.dumps({
        "type": "knapsack", "values": [4, 4, 2, 2, 4],
        "weights": [4, 3, 1, 2, 1], "capacity": 7,
    }))
    return f


def solve_args(problem, out, extra=()):
    return ["solve", str(problem), "--layers", "2", "--iters", "300",
            "--restarts", "6", "--seed", "1", "--out", str(out), *extra]


def test_solve_writes_artifacts_and_finds_cut(c4_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(solve_args(c4_file, out)) == 0
    for name in ("manifest.json", "run.json", "histogram.csv", "trace.csv"):
        assert (out / name).exists()
    record = json.loads((out / "run.json").read_text())
    assert record["best_bitstring"] in ("0101", "1010")
    assert record["best_cost"] == -4.0
    assert "best bitstring" in capsys.readouterr().out

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"]["sha256"] == hashlib.sha256(c4_file.read_bytes()).hexdigest()
    assert manifest["circuit"]["layers"] == 2
    assert manifest["optimizer"]["seed"] == 1


def test_histogram_csv_sorted_by_energy(c4_file, tmp_path):
    out = tmp_path / "run"
    assert cli.main(solve_args(c4_file, out)) == 0
    lines = (out / "histogram.csv").read_text().strip().split("\n")
    assert lines[0] == "bitstring,basis_index,scaled_energy,objective,probability"
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    assert energies == sorted(energies)
    assert len(energies) == 16


def test_trace_csv_has_initial_row(c4_file, tmp_path):
    out = tmp_path / "run"
    assert cli.main(solve_args(c4_file, out)) == 0
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,energy"
    assert lines[1].startswith("0,")
    assert len(lines) == 2 + 300
    record = json.loads((out / "run.json").read_text())
    best = record["best_restart"]
    assert float(lines[1].split(",")[1]) == record["initial_energies"][best]


def test_solve_reproducible_from_same_inputs(c4_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(solve_args(c4_file, out1)) == 0
    assert cli.main(solve_args(c4_file, out2)) == 0
    r1 = json.loads((out1 / "run.json").read_text())
    r2 = json.loads((out2 / "run.json").read_text())
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert r1 == r2
    assert (out1 / "histogram.csv").read_text() == (out2 / "histogram.csv").read_text()


def test_exact_and_sampled_modes_find_optima(c4_file, tmp_path):
    # the ring has two optimal cuts, so the two modes may pick either one
    out0, out1 = tmp_path / "exact", tmp_path / "shots"
    assert cli.main(solve_args(c4_file, out0, ("--shots", "0"))) == 0
    assert cli.main(solve_args(c4_file, out1, ("--shots", "1000000"))) == 0
    r0 = json.loads((out0 / "run.json").read_text())
    r1 = json.loads((out1 / "run.json").read_text())
    assert r0["best_bitstring"] in {"0101", "1010"}
    assert r1["best_bitstring"] in {"0101", "1010"}
    assert r0["best_cost"] == -4 and r1["best_cost"] == -4
    assert r0["histogram_mode"] == "exact"
    assert r1["histogram_mode"] == "counts"
    assert sum(r1["histogram"].values()) == 1000000


def test_shots_summary_prints_exact_energy(c4_file, tmp_path, capsys):
    # the shot estimate of the kept angles reads low; the summary also shows their exact energy
    out = tmp_path / "shots"
    args = ["solve", str(c4_file), "--iters", "30", "--restarts", "2", "--seed", "3",
            "--shots", "2000", "--out", str(out)]
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads((out / "run.json").read_text())
    exact = [line for line in lines if line.startswith("exact energy")]
    assert len(exact) == 1 and float(exact[0].split()[2]) == float(f"{record['exact_energy']:.10g}")
    assert float(lines[1].split()[2]) == float(f"{record['best_energy']:.10g}")
    assert record["best_energy"] < record["exact_energy"]
    assert cli.main(["solve", str(c4_file), "--iters", "3", "--out", str(tmp_path / "exact")]) == 0
    assert "exact energy" not in capsys.readouterr().out


def test_solve_optimizer_and_squash_flags(c4_file, tmp_path):
    out = tmp_path / "gd"
    args = ["solve", str(c4_file), "--optimizer", "gd", "--iters", "40",
            "--restarts", "1", "--squash", "tanh", "--out", str(out)]
    assert cli.main(args) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["method"] == "gd"
    assert record["config"]["squash"] == "tanh"


def test_config_echo_lists_only_what_the_method_read(c4_file, tmp_path):
    shared = {"method", "max_iters", "restarts", "seed", "shots", "squash"}
    echoes = {}
    for method in ("gd", "spsa"):
        out = tmp_path / method
        args = ["solve", str(c4_file), "--optimizer", method, "--iters", "3",
                "--restarts", "1", "--out", str(out)]
        assert cli.main(args) == 0
        echoes[method] = json.loads((out / "manifest.json").read_text())["optimizer"]
        assert json.loads((out / "run.json").read_text())["config"] == echoes[method]
    assert set(echoes["gd"]) == shared
    assert set(echoes["spsa"]) == shared | {"a0", "A_resolved", "a0_resolved"}


def test_gd_with_shots_exits_2(c4_file, tmp_path, capsys):
    args = ["solve", str(c4_file), "--optimizer", "gd", "--shots", "100",
            "--out", str(tmp_path / "gd")]
    assert cli.main(args) == 2
    assert "shots=0" in capsys.readouterr().err
    assert not (tmp_path / "gd").exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "maxcut",\n "vertices": }')
    assert cli.main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    for command in ("solve", "brute"):
        assert cli.main([command, str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "No such file" in err
        assert "malformed JSON" not in err


def test_size_cap_exits_3(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "type": "maxcut", "vertices": 25,
        "edges": [[i, (i + 1) % 25] for i in range(25)],
    }))
    assert cli.main(["solve", str(big), "--iters", "1"]) == 3
    assert cli.main(["brute", str(big)]) == 3


def test_size_cap_comes_before_spin_conversion(tmp_path, monkeypatch):
    # one degree-20 monomial expands into 2^20 spin terms, so the cap must
    # refuse n = 25 without converting
    big = tmp_path / "pubo25.json"
    big.write_text(json.dumps({
        "type": "pubo", "n": 25, "terms": [{"idx": list(range(20)), "coef": 1.0}],
    }))

    def no_conversion(problem):
        raise AssertionError("to_spin called before the size check")

    monkeypatch.setattr(cli, "to_spin", no_conversion)
    assert cli.main(["solve", str(big), "--iters", "1"]) == 3
    assert cli.main(["scan", str(big), "--out", str(tmp_path / "grid.csv")]) == 3
    assert not (tmp_path / "grid.csv").exists()



def test_spin_term_cap_exits_3(tmp_path, monkeypatch):
    # a degree-5 monomial expands into 31 spin terms, past a cap of 15
    monkeypatch.setattr(ising, "SPIN_TERM_CAP", 15)
    f = tmp_path / "pubo5.json"
    f.write_text(json.dumps({"type": "pubo", "n": 5, "terms": [{"idx": [0, 1, 2, 3, 4], "coef": 1.0}]}))
    out = tmp_path / "run"
    assert cli.main(["solve", str(f), "--iters", "1", "--out", str(out)]) == 3
    assert not out.exists()


def test_optimizer_abort_exits_4(c4_file, monkeypatch):
    def explode(*args, **kwargs):
        raise OptimizerDivergence("boom")

    monkeypatch.setattr(cli, "optimize", explode)
    assert cli.main(["solve", str(c4_file)]) == 4


def test_scan_grid(c4_file, tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(["scan", str(c4_file), "--resolution", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("beta\\gamma,")
    assert len(lines) == 3
    assert len(lines[1].split(",")) == 3


def test_scan_scaled_vs_raw_differ(knapsack_file, tmp_path):
    a, b = tmp_path / "scaled.csv", tmp_path / "raw.csv"
    assert cli.main(["scan", str(knapsack_file), "--resolution", "9", "--out", str(a)]) == 0
    assert cli.main(["scan", str(knapsack_file), "--resolution", "9", "--no-scale",
                     "--out", str(b)]) == 0

    def values(path):
        rows = path.read_text().strip().split("\n")[1:]
        return [[float(v) for v in row.split(",")[1:]] for row in rows]

    va, vb = values(a), values(b)
    diff = max(abs(x - y) for ra, rb in zip(va, vb) for x, y in zip(ra, rb))
    assert diff > 0.0


def test_scan_range_flag(c4_file, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert cli.main(["scan", str(c4_file), "--resolution", "3",
                     "--range", "0:3.14159", "--out", str(out)]) == 0
    header = out.read_text().split("\n")[0]
    assert header.split(",")[1] == "0"
    assert cli.main(["scan", str(c4_file), "--range", "oops", "--out", str(out)]) == 2
    out.unlink()
    assert cli.main(["scan", str(c4_file), "--range", "1:0", "--out", str(out)]) == 2
    assert "lower bound must be below upper" in capsys.readouterr().err
    assert not out.exists()


def test_scan_infinite_range_exits_2(c4_file, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["scan", str(c4_file), "--range=-inf:inf", "--out", str(out)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_scan_resolution_cap_exits_3(c4_file, tmp_path, monkeypatch):
    # the cap must refuse before any grid point is computed
    def no_points(spec, params):
        raise AssertionError("grid point computed before the resolution check")

    monkeypatch.setattr(qaoa, "energy", no_points)
    out = tmp_path / "grid.csv"
    assert cli.main(["scan", str(c4_file), "--resolution", "4097", "--out", str(out)]) == 3
    assert not out.exists()


def test_brute_square_graph(c4_file, capsys):
    assert cli.main(["brute", str(c4_file)]) == 0
    out = capsys.readouterr().out
    assert "optimum cost  -4" in out
    assert "1010" in out and "0101" in out


def test_brute_empty_graph_all_optimal(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"type": "maxcut", "vertices": 3, "edges": []}))
    assert cli.main(["brute", str(f)]) == 0
    out = capsys.readouterr().out
    assert "optimum cost  0" in out
    assert "optima        8" in out


def test_fractional_or_negative_counts_exit_2(tmp_path, capsys):
    for doc, field in (
        ({"type": "maxcut", "vertices": 3.7, "edges": [[0, 1]]}, "vertices"),
        ({"type": "pubo", "n": -1, "terms": []}, "n"),
    ):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        for args in (["brute", str(f)], ["solve", str(f), "--out", str(tmp_path / "run")]):
            assert cli.main(args) == 2
            err = capsys.readouterr().err
            assert f"{field} must be a whole number" in err and "shift count" not in err
    assert not (tmp_path / "run").exists()


def test_malformed_entry_exits_2_naming_its_field(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"type": "maxcut", "vertices": 3, "edges": [[0, 1, 2]]}))
    assert cli.main(["brute", str(f)]) == 2
    err = capsys.readouterr().err
    assert "edges must be a list of [i, j] pairs" in err


def test_brute_loose_knapsack_prefers_all_ones(tmp_path, capsys):
    f = tmp_path / "loose.json"
    f.write_text(json.dumps({
        "type": "knapsack", "values": [1, 2], "weights": [1, 1], "capacity": 5,
    }))
    assert cli.main(["brute", str(f)]) == 0
    assert "11" in capsys.readouterr().out


def test_verify_suite_exit_codes(capsys):
    assert cli.main(["verify", "--suite", "gates"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        cli.verify.run_suite("nope")


def test_python_dash_m_runs_the_cli(capsys):
    # from a checkout, with only the source directory on the path
    src = str(Path(qaoaforge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qaoaforge", "verify", "--suite", "gates"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["verify", "--suite", "gates"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_verify_single_suite_lines_appear_in_all(capsys):
    assert cli.main(["verify", "--suite", "all"]) == 0
    all_lines = set(capsys.readouterr().out.splitlines())
    for suite in sorted(cli.verify.SUITES):
        assert cli.main(["verify", "--suite", suite]) == 0
        check_lines = capsys.readouterr().out.splitlines()[:-1]  # the last line is the tally
        assert check_lines and set(check_lines) <= all_lines, suite


def test_env_var_defaults(c4_file, tmp_path, monkeypatch):
    monkeypatch.setenv("QAOAFORGE_SEED", "9")
    monkeypatch.setenv("QAOAFORGE_ITERS", "25")
    out = tmp_path / "env_run"
    assert cli.main(["solve", str(c4_file), "--restarts", "1", "--out", str(out)]) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["config"]["seed"] == 9
    assert record["config"]["max_iters"] == 25
    assert json.loads((out / "manifest.json").read_text())["circuit"]["scaled"] is True
    monkeypatch.setenv("QAOAFORGE_NO_SCALE", "1")
    assert cli.main(["solve", str(c4_file), "--restarts", "1", "--out", str(out)]) == 0
    circuit = json.loads((out / "manifest.json").read_text())["circuit"]
    assert circuit["scaled"] is False and circuit["scale_factor"] == 1.0


def test_bad_env_var_exits_2(c4_file, monkeypatch, capsys):
    monkeypatch.setenv("QAOAFORGE_ITERS", "many")
    assert cli.main(["solve", str(c4_file)]) == 2
    assert "error" in capsys.readouterr().err
