import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opflow import cli, homotopy, metrics, specflow
from opflow.cli import main
from opflow.linalg import _lapack
from opflow.manifest import validate_manifest, verify_outputs


def read(path):
    return path.read_text(encoding="utf-8")


def load_manifest(outdir):
    payload = json.loads(read(outdir / "manifest.json"))
    validate_manifest(payload)
    verify_outputs(payload, outdir)
    return payload


class TestSpecgraph:
    def test_writes_csv_and_manifest(self, tmp_path):
        rc = main(["specgraph", "--samples", "16", "--grid", "64",
                   "--window", "30", "--out", str(tmp_path)])
        assert rc == 0
        lines = read(tmp_path / "specgraph.csv").splitlines()
        assert lines[0] == "theta,branch_index,lambda"
        assert len(lines) > 16
        payload = load_manifest(tmp_path)
        assert payload["command"] == "specgraph"
        assert payload["parameters"]["samples"] == 16

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["specgraph", "--samples", "16", "--grid", "32", "--out", str(out)])
        assert (a / "specgraph.csv").read_bytes() == (b / "specgraph.csv").read_bytes()

    def test_crossing_near_quarter_turn(self, tmp_path):
        main(["specgraph", "--samples", "32", "--grid", "64",
              "--window", "30", "--out", str(tmp_path)])
        rows = [line.split(",") for line in
                read(tmp_path / "specgraph.csv").splitlines()[1:]]
        by_theta = {}
        for theta, _, lam in rows:
            by_theta.setdefault(float(theta), []).append(float(lam))
        thetas = sorted(by_theta)
        nearest = [min(by_theta[t], key=abs) for t in thetas]
        sign_changes = [
            (t1, t2) for t1, t2, v1, v2 in
            zip(thetas, thetas[1:], nearest, nearest[1:]) if v1 < 0 <= v2
        ]
        assert len(sign_changes) == 1
        lo, hi = sign_changes[0]
        assert abs(0.5 * (lo + hi) - np.pi / 4) <= 2 * np.pi / 32

    def test_too_few_samples_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["specgraph", "--samples", "4", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestSpecflow:
    def test_cross_path(self, tmp_path):
        rc = main(["specflow", "--path", "cross", "--samples", "8", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(read(tmp_path / "specflow.json"))
        assert payload["flow"] == 1
        assert set(payload) == {"flow", "partition", "crossings"}
        load_manifest(tmp_path)

    def test_const_path(self, tmp_path):
        rc = main(["specflow", "--path", "const", "--samples", "8", "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads(read(tmp_path / "specflow.json"))["flow"] == 0

    def test_robin_small(self, tmp_path):
        rc = main(["specflow", "--path", "robin", "--grid", "100",
                   "--samples", "24", "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads(read(tmp_path / "specflow.json"))["flow"] == 1

    @pytest.mark.parametrize("window", ["10", "1e3", "1e6"])
    def test_large_windows_count_the_crossing(self, tmp_path, window):
        rc = main(["specflow", "--grid", "64", "--samples", "16", "--window", window,
                   "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads(read(tmp_path / "specflow.json"))["flow"] == 1

    # the robin-flow benchmark workload's output check, at its smoke and full sizes
    @pytest.mark.parametrize("grid, samples", [("64", "16"), ("800", "64")])
    def test_robin_flow_workload_output(self, tmp_path, grid, samples):
        rc = main(["specflow", "--path", "robin", "--grid", grid, "--samples", samples,
                   "--window", "1.0", "--max-depth", "24", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(read(tmp_path / "specflow.json"))
        assert report["flow"] == 1
        (crossing,) = report["crossings"]
        assert crossing["theta_lo"] <= np.pi / 4 <= crossing["theta_hi"]
        load_manifest(tmp_path)

    @pytest.mark.parametrize("flags, grid", [
        (["--path", "cross"], None),
        (["--path", "robin", "--grid", "100"], 100),
    ])
    def test_manifest_grid_only_for_robin(self, tmp_path, flags, grid):
        assert main(["specflow", *flags, "--samples", "16", "--out", str(tmp_path)]) == 0
        assert load_manifest(tmp_path)["parameters"]["grid"] == grid

    def test_help_lists_the_builtin_paths_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["specflow", "--help"])
        assert exc.value.code == 0 and "--path {robin,const,cross}" in capsys.readouterr().out


class TestDichotomy:
    def test_header_and_thresholds(self, tmp_path):
        rc = main(["dichotomy", "--grid", "128", "--points", "4", "--out", str(tmp_path)])
        assert rc == 0
        lines = read(tmp_path / "dichotomy.csv").splitlines()
        assert lines[0] == "x1,riesz_lower_bound,gap_dist"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == 1e-4 and first[1] >= 0.9 and first[2] <= 0.2
        assert last[0] == 0.9 and last[1] < 0.5
        load_manifest(tmp_path)


class TestIdentities:
    def test_passes_at_default_tolerance(self, tmp_path, capsys):
        rc = main(["identities", "--dim", "8", "--trials", "40", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max deviation" in out
        load_manifest(tmp_path)

    def test_unattainable_tolerance_fails(self, tmp_path):
        rc = main(["identities", "--dim", "6", "--trials", "10",
                   "--tolerance", "1e-30", "--out", str(tmp_path)])
        assert rc == 1

    def test_worst_deviation_equal_to_the_tolerance_passes(self, tmp_path):
        argv = ["identities", "--dim", "4", "--trials", "5", "--out", str(tmp_path)]
        main(argv)
        worst = max(json.loads(read(tmp_path / "identities.json"))["deviations"].values())
        assert main([*argv, "--tolerance", repr(worst)]) == 0


class TestHomotopyDemo:
    def test_monotone_and_exit_zero(self, tmp_path):
        rc = main(["homotopy-demo", "--grids", "64,128", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(read(tmp_path / "homotopy_demo.json"))
        assert payload["delta_monotone_decreasing"] is True
        assert payload["endpoints_exact"] is True
        load_manifest(tmp_path)

    def test_smallest_grid_is_8_and_c_is_delta_times_n(self, tmp_path, capsys):
        assert main(["homotopy-demo", "--grids", "8,17", "--modes", "4", "--out", str(tmp_path)]) == 0
        payload = json.loads(read(tmp_path / "homotopy_demo.json"))
        delta = payload["delta_by_grid"]
        assert payload["measured_c"] == {n: delta[n] * int(n) for n in ("8", "17")}
        assert f"n=17: delta={delta['17']:.5f} (C ~ {delta['17'] * 17:.1f})" in capsys.readouterr().out
        # an odd last grid takes the odd retraction on the next even size
        assert payload["odd_unitary_retraction_defect"] == homotopy.odd_retraction_defect(18, seed=0)

    @pytest.mark.parametrize("name, value, rc", [
        ("discretization_tolerance", 0.25, 1),  # equal deltas do not decrease
        ("zk_injectivity_margin", 1e-8, 1),  # the margin must exceed 1e-8
        ("odd_retraction_defect", 1e-9, 0),  # a defect of 1e-9 passes
    ])
    def test_each_check_at_its_edge(self, tmp_path, capsys, monkeypatch, name, value, rc):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: value)
        assert main(["homotopy-demo", "--grids", "16,32", "--modes", "4", "--out", str(tmp_path)]) == rc
        assert f"homotopy checks {'FAILED' if rc else 'passed'}" in capsys.readouterr().out


class TestSurgery:
    def test_bound_holds(self, tmp_path):
        rc = main(["surgery", "--instances", "5", "--eps", "0.5,0.1", "--out", str(tmp_path)])
        assert rc == 0
        lines = read(tmp_path / "surgery.csv").splitlines()
        assert lines[0] == "eps,instance,dim,c,arc_radius,deviation,holds"
        assert all(line.endswith(",1") for line in lines[1:])
        load_manifest(tmp_path)


class TestConfig:
    def test_config_presets_flags(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("samples = 16\ngrid = 32\n# comment\nwindow = 25\n")
        rc = main(["specgraph", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(read(tmp_path / "manifest.json"))
        assert payload["parameters"]["samples"] == 16
        assert payload["parameters"]["window"] == 25.0
        assert "config" in payload["input_hashes"]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("samples = 16\ngrid = 32\n")
        main(["specgraph", "--config", str(cfg), "--samples", "17", "--out", str(tmp_path)])
        payload = json.loads(read(tmp_path / "manifest.json"))
        assert payload["parameters"]["samples"] == 17

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("samples = 16\ngrid = 32\n")
        monkeypatch.setenv("OPFLOW_CONFIG", str(cfg))
        rc = main(["specgraph", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(read(tmp_path / "manifest.json"))
        assert payload["parameters"]["samples"] == 16

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("samples 16\n")
        with pytest.raises(SystemExit) as exc:
            main(["specgraph", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2


    def test_bad_value_names_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("grid = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["specgraph", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_other_commands_keys_ignored(self, tmp_path):
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("samples = 16\ngrid = 32\nx1_min = 0.5\n")
        rc = main(["specgraph", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert "x1_min" not in load_manifest(tmp_path)["parameters"]


@pytest.mark.parametrize("argv, preset", [
    pytest.param(["specflow", "--window", "0"], None, id="specflow-window-zero"),
    pytest.param(["specflow", "--window", "-1"], None, id="specflow-window-negative"),
    pytest.param(["specflow", "--grid", "8"], None, id="specflow-grid"),
    pytest.param(["dichotomy", "--grid", "8"], None, id="dichotomy-grid"),
    pytest.param(["homotopy-demo", "--modes", "0"], None, id="homotopy-modes"),
    pytest.param(["specflow"], "path = bogus\n", id="preset-path-choice"),
    pytest.param(["specgraph", "--workers", "2"], None, id="workers-removed"),
    pytest.param(["surgery", "--eps", "4"], None, id="surgery-eps-4"),
    pytest.param(["surgery", "--eps", "inf"], None, id="surgery-eps-inf"),
    pytest.param(["surgery", "--eps", "nan"], None, id="surgery-eps-nan"),
    pytest.param(["surgery", "--eps", "0.5,abc"], None, id="surgery-eps-not-a-number"),
    pytest.param(["homotopy-demo", "--grids", "16,abc"], None, id="homotopy-grids-not-an-int"),
    pytest.param(["specflow", "--window", "nan"], None, id="specflow-window-nan"),
    pytest.param(["specgraph", "--window", "nan"], None, id="specgraph-window-nan"),
    pytest.param(["dichotomy", "--x1-max", "inf"], None, id="dichotomy-x1-max-inf"),
    pytest.param(["dichotomy", "--x1-min", "0"], None, id="dichotomy-x1-min-zero"),
    pytest.param(["dichotomy", "--x1-min", "0.5", "--x1-max", "0.5"], None, id="dichotomy-x1-equal"),
    pytest.param(["identities", "--tolerance", "nan"], None, id="identities-tolerance-nan"),
    pytest.param(["specflow", "--max-depth", "-1"], None, id="specflow-max-depth-negative"),
    pytest.param(["homotopy-demo", "--grids", "32,16"], None, id="homotopy-grids-descending"),
    pytest.param(["homotopy-demo", "--grids", "16,16"], None, id="homotopy-grids-repeated"),
    pytest.param(["specflow", "--window", "inf"], None, id="specflow-window-inf"),
    pytest.param(["dichotomy", "--grid", "16", "--points", "2", "--x1-min", "1e-310",
                  "--x1-max", "0.5"], None, id="dichotomy-x1-min-subnormal"),
    pytest.param(["surgery", "--instances", "1", "--eps", "1e-300"], None, id="surgery-eps-1e-300"),
    pytest.param(["surgery", "--instances", "100", "--eps", "1e-15"], None,
                 id="surgery-eps-below-rounding-floor"),
    pytest.param(["specflow", "--samples", "1"], None, id="specflow-samples-1"),
    pytest.param(["dichotomy", "--points", "1"], None, id="dichotomy-points-1"),
    pytest.param(["surgery", "--instances", "0"], None, id="surgery-instances-0"),
])
def test_bad_value_is_usage_error(tmp_path, argv, preset):
    if preset is not None:
        cfg = tmp_path / "preset.cfg"
        cfg.write_text(preset)
        argv = [*argv, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_far_pair_is_a_threshold_failure(tmp_path, capsys):
    argv = ["dichotomy", "--grid", "400", "--points", "2", "--x1-min", "1e-50",
            "--x1-max", "1e-20", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "exceeds 1" in capsys.readouterr().err
    assert not (tmp_path / "dichotomy.csv").exists()


def test_gap_without_a_certified_digit_is_a_threshold_failure(tmp_path, capsys):
    """Rows at x1 = 1e-16 and 1e-12 read a gap below 1 that is below eps max |(B - A)_ij|."""
    argv = ["dichotomy", "--grid", "400", "--points", "2", "--x1-min", "1e-16",
            "--x1-max", "1e-12", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("dichotomy: gap ") and "no certified digit" in err and "dim 400" in err
    assert not (tmp_path / "dichotomy.csv").exists()


def test_lanczos_failure_is_one_stderr_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(metrics, "LANCZOS_STEPS", 2)  # the Robin pairs need more steps
    assert main(["dichotomy", "--grid", "32", "--points", "2", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("dichotomy: ")


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_failed_banded_eigenpair_is_one_stderr_line(tmp_path, capsys, monkeypatch, routine):
    """stebz fails on the comparison operator's lowest eigenvalue, stein on a Ritz vector."""
    lapack = _lapack()
    real = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine, lambda *args: (*real(*args)[:-1], 1))
    assert main(["dichotomy", "--grid", "32", "--points", "2", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"dichotomy: {routine[1:]} for eigenvalue ")
    assert "failed: info = 1" in err and "LinAlgError" not in err


def test_failed_stebz_count_is_one_stderr_line(tmp_path, capsys, monkeypatch):
    """specgraph's window count calls stebz; the Robin loop's flow reads its corner block and calls none."""
    lapack = _lapack()
    real = lapack.dstebz
    monkeypatch.setattr(lapack, "dstebz", lambda *args: (*real(*args)[:-1], 1))
    assert main(["specgraph", "--grid", "64", "--samples", "16", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("specgraph: stebz count above ")
    assert "failed on dim 64: info = 1" in err and "Traceback" not in err
    assert main(["specflow", "--grid", "64", "--samples", "16", "--out", str(tmp_path)]) == 0


def test_failed_stebz_window_is_one_stderr_line(tmp_path, capsys, monkeypatch):
    """Only the window's bisection (abstol = 0 on a value range) fails; the count before it succeeds."""
    lapack = _lapack()
    real = lapack.dstebz

    def window_fails(*args):
        out = real(*args)
        return (*out[:-1], 1) if args[2] == 1 and args[7] == 0.0 else out

    monkeypatch.setattr(lapack, "dstebz", window_fails)
    assert main(["specgraph", "--grid", "64", "--samples", "16", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("specgraph: stebz window [")
    assert "failed on dim 64: info = 1" in err and "Traceback" not in err
    assert not (tmp_path / "specgraph.csv").exists()


def test_refinement_budget_is_one_stderr_line(tmp_path, capsys):
    assert main(["specflow", "--grid", "64", "--samples", "2", "--max-depth", "0",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("specflow: refinement budget exhausted on [")
    assert "at depth 0: phase step" in err and "residual" in err


def test_bracket_disagreement_is_one_stderr_line(tmp_path, capsys, monkeypatch):
    lift = specflow._lift
    monkeypatch.setattr(specflow, "_lift", lambda w, radius=np.inf: lift(w, radius) + (
        1.2 * np.pi if radius == np.inf and w[0] > 0 else 0.0))
    assert main(["specflow", "--path", "cross", "--samples", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("specflow: brackets sum to 1") and "worst residual" in err


def test_usage_error_in_a_process_has_no_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-m", "opflow.cli", "specflow", "--grid", "8",
                          "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr and "specflow: grid must" in out.stderr


# Tiny flags per command, and the manifest parameters each must record:
# every flag of the command except --out and --config.
TINY_RUNS = {
    "specgraph": (["--samples", "16", "--grid", "32"],
                  {"samples", "grid", "window", "seed"}),
    "specflow": (["--path", "cross", "--samples", "8"],
                 {"path", "grid", "samples", "window", "max_depth", "seed"}),
    "dichotomy": (["--grid", "32", "--points", "2"],
                  {"grid", "points", "x1_min", "x1_max", "seed"}),
    "identities": (["--dim", "4", "--trials", "2"],
                   {"dim", "trials", "tolerance", "seed"}),
    "homotopy-demo": (["--grids", "16,32", "--modes", "2"],
                      {"grids", "modes", "seed"}),
    "surgery": (["--instances", "1", "--eps", "0.5"],
                {"instances", "eps", "seed"}),
}


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_manifest_parameters_are_the_flags(tmp_path, command):
    flags, expected = TINY_RUNS[command]
    main([command, *flags, "--out", str(tmp_path)])
    assert set(load_manifest(tmp_path)["parameters"]) == expected


def test_rerun_into_the_same_directory_replaces_its_outputs(tmp_path):
    fresh = tmp_path / "fresh"
    main(["specflow", "--path", "cross", "--samples", "8", "--out", str(fresh)])
    for samples in ("16", "8"):  # the first run leaves longer files than the second writes
        main(["specflow", "--path", "cross", "--samples", samples, "--out", str(tmp_path)])
    assert load_manifest(tmp_path)["parameters"]["samples"] == 8
    assert (tmp_path / "specflow.json").read_bytes() == (fresh / "specflow.json").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "opflow" in capsys.readouterr().out


def test_start_up_does_not_load_sparse_linalg():
    """``scipy.sparse`` and ``scipy.sparse.linalg`` are imported by the routes that need them,
    never at start-up."""
    code = ("import sys, opflow.cli; opflow.cli.build_parser(); "
            "print('scipy.sparse' in sys.modules or 'scipy.sparse.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_dichotomy_loads_no_sparse_module(tmp_path):
    """``gap_dist`` runs its own Lanczos, so ``dichotomy`` never imports ``scipy.sparse``."""
    code = ("import sys, opflow.cli; code = opflow.cli.main(['dichotomy', '--grid', '40', "
            f"'--points', '3', '--out', {str(tmp_path)!r}]); "
            "print(code, 'scipy.sparse' in sys.modules, 'scipy.sparse.linalg' in sys.modules)")
    assert _fresh_run(code) == "0 False False"


def _fresh_run(code: str) -> str:
    """The last stdout line of ``code`` run by a fresh interpreter on this checkout's ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("OPFLOW_CONFIG", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.splitlines()[-1]


LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_start_up_loads_no_scipy():
    """``opflow.linalg`` loads scipy's LAPACK module on first use, so no scipy module loads at start-up."""
    code = f"import sys, opflow.cli; opflow.cli.build_parser(); print({LOADED_SCIPY})"
    assert _fresh_run(code) == "[]"


@pytest.mark.parametrize("argv", [["identities", "--dim", "6", "--trials", "40"],
                                  ["surgery", "--instances", "5", "--eps", "0.5,0.1"]],
                         ids=["identities", "surgery"])
def test_dense_commands_load_no_scipy(argv, tmp_path):
    code = (f"import sys, opflow.cli; code = opflow.cli.main({[*argv, '--out', str(tmp_path)]!r}); "
            f"print(code, {LOADED_SCIPY})")
    assert _fresh_run(code) == "0 []"
    load_manifest(tmp_path)


def test_banded_command_loads_scipy_linalg_and_keeps_the_golden_flow(tmp_path):
    code = ("import sys, opflow.cli; code = opflow.cli.main(['specflow', '--path', 'robin', "
            f"'--grid', '64', '--samples', '16', '--out', {str(tmp_path)!r}]); "
            "print(code, 'scipy.linalg._flapack' in sys.modules)")  # the module _lapack() returns
    assert _fresh_run(code) == "0 True"
    golden = json.loads(read(Path(__file__).with_name("golden.json")))["specflow"]
    report = json.loads(read(tmp_path / "specflow.json"))
    assert (report["flow"], report["crossings"], report["partition"]) == (
        golden["flow"], golden["crossings"], golden["partition"])


@pytest.mark.parametrize("command", ["specgraph", "specflow", "dichotomy", "identities",
                                     "homotopy-demo", "surgery"])
def test_every_parameter_can_be_preset(tmp_path, command):
    """A config key becomes ``--`` plus the key with ``_`` as ``-``, so that must name a flag."""
    parser = cli.build_parser()
    plain = vars(parser.parse_args([command]))
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in plain.items()
                           if key not in ("command", "func", "config")))
    preset = vars(cli._parse_with_config(parser, [command, "--config", str(cfg)]))
    assert preset == {**plain, "config": str(cfg)}


def test_config_presets_do_not_carry_into_the_next_call(tmp_path, monkeypatch):
    """``main`` reuses one parser, so a preset must be gone when the next call parses."""
    monkeypatch.delenv("OPFLOW_CONFIG", raising=False)
    cfg = tmp_path / "preset.cfg"
    cfg.write_text("samples = 8\nwindow = 2.0\nmax_depth = 3\n")
    argv = ["specflow", "--path", "const"]
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "preset")]) == 0
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    preset = load_manifest(tmp_path / "preset")["parameters"]
    plain = load_manifest(tmp_path / "plain")["parameters"]
    assert (preset["samples"], preset["window"], preset["max_depth"]) == (8, 2.0, 3)
    assert (plain["samples"], plain["window"], plain["max_depth"]) == (64, 1.0, 24)
