import json

import numpy as np
import pytest

from opflow.cli import main
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

    @pytest.mark.parametrize("flags, grid", [
        (["--path", "cross"], None),
        (["--path", "robin", "--grid", "100"], 100),
    ])
    def test_manifest_grid_only_for_robin(self, tmp_path, flags, grid):
        assert main(["specflow", *flags, "--samples", "16", "--out", str(tmp_path)]) == 0
        assert load_manifest(tmp_path)["parameters"]["grid"] == grid


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


class TestHomotopyDemo:
    def test_monotone_and_exit_zero(self, tmp_path):
        rc = main(["homotopy-demo", "--grids", "64,128", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(read(tmp_path / "homotopy_demo.json"))
        assert payload["delta_monotone_decreasing"] is True
        assert payload["endpoints_exact"] is True
        load_manifest(tmp_path)


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
])
def test_bad_value_is_usage_error(tmp_path, argv, preset):
    if preset is not None:
        cfg = tmp_path / "preset.cfg"
        cfg.write_text(preset)
        argv = [*argv, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "opflow" in capsys.readouterr().out
