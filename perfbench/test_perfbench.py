"""Tests of the benchmark itself: span arithmetic, failure counting, a smoke run.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracer import op_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

# (name, start, end, parent, size): one op whose root is span 0, then the next op
SPANS = [
    ("bench.op", 0.0, 10.0, -1, 0),
    ("cli.main", 0.5, 9.5, 0, 0),
    ("linalg.op_norm", 1.0, 4.0, 1, 0),
    ("lapack.np.eigvalsh", 1.5, 3.5, 2, 10),
    ("linalg.op_norm", 5.0, 6.0, 1, 0),
    ("lapack.np.svd", 5.2, 5.8, 4, 4),
    ("lapack.sp.svdvals", 6.5, 8.5, 1, 3),
    ("lapack.sp.svd", 7.0, 8.0, 6, 3),
    ("manifest.RunManifest.write", 8.6, 9.0, 1, 0),
    ("manifest.validate_manifest", 8.7, 8.8, 8, 0),
    ("bench.op", 11.0, 12.0, -1, 0),
    ("linalg.op_norm", 11.0, 11.5, 10, 0),
]


def test_self_time_is_duration_minus_direct_children():
    own = self_times(SPANS, 0, 10)
    expected = [1.0, 2.6, 1.0, 2.0, 0.4, 0.6, 1.0, 1.0, 0.3, 0.1]
    assert [own[i] for i in range(10)] == pytest.approx(expected)
    assert sum(own.values()) == pytest.approx(10.0)


def test_op_metrics_of_a_synthetic_span_tree():
    m = op_metrics(SPANS, 0)
    assert m["trace.spans"] == 10  # stops before the next op's root
    assert m["cli.self_s"] == pytest.approx(2.6)
    assert m["linalg.self_s"] == pytest.approx(1.4)
    assert m["linalg.op_norm_calls"] == 2
    assert m["linalg.op_norm_s"] == pytest.approx(4.0)
    assert m["lapack.eig_calls"] == 1
    assert m["lapack.eig_s"] == pytest.approx(2.0)
    assert m["lapack.eig_work"] == 1000
    assert m["lapack.eig_p50_s"] == m["lapack.eig_p90_s"] == pytest.approx(2.0)
    # svd nested inside svdvals counts once, as the outer call
    assert m["lapack.svd_calls"] == 2
    assert m["lapack.svd_s"] == pytest.approx(2.6)
    assert m["manifest.calls"] == 1
    assert m["manifest.s"] == pytest.approx(0.4)
    assert m["sturm.assemble_calls"] == 0


def _fake_cli(write):
    """A stand-in for ``opflow.cli.main`` that writes given outputs plus a manifest."""
    from opflow.manifest import RunManifest

    def main(args):
        command, out = args[0], Path(args[args.index("--out") + 1])
        out.mkdir(parents=True)
        manifest = RunManifest.create(command, {}, "0")
        for name in write(out):
            manifest.record_output(out / name, out)
        manifest.write(out / "manifest.json")
        return 0

    return main


def _specflow(flow, crossings):
    def write(out):
        report = {"flow": flow, "partition": [0.1, 0.8, 3.2], "crossings": crossings}
        (out / "specflow.json").write_text(json.dumps(report))
        return ["specflow.json"]
    return write


def _dichotomy(shift=0.0):
    """Writes the reference rows, with the fourth gap shifted by ``shift``."""
    command = WORKLOADS["gap-dichotomy"].commands[0]

    def write(out):
        rows = load_reference()["dichotomy"][" ".join(command)]
        lines = ["x1,riesz_lower_bound,gap_dist"]
        lines += [f"{x!r},{r!r},{g + (shift if i == 3 else 0.0)!r}"
                  for i, (x, r, g) in enumerate(rows)]
        (out / "dichotomy.csv").write_text("\n".join(lines) + "\n")
        return ["dichotomy.csv"]

    return write


CROSSING = [{"theta_lo": 0.7, "theta_hi": 0.8, "direction": 1}]


@pytest.mark.parametrize("workload, write, ok", [
    ("robin-flow", _specflow(1, CROSSING), True),
    ("robin-flow", _specflow(0, []), False),
    ("robin-flow", _specflow(1, [{"theta_lo": 0.8, "theta_hi": 0.9, "direction": 1}]), False),
    ("gap-dichotomy", _dichotomy(), True),
    ("gap-dichotomy", _dichotomy(shift=1e-6), False),
])
def test_a_corrupted_output_counts_as_a_failed_op(tmp_path, workload, write, ok):
    spec = WORKLOADS[workload]
    reference = load_reference()
    ops = [dict(child.run_op(_fake_cli(write), spec.commands, 1, tmp_path, spec.check,
                             reference), warmup=i == 0, traced=False)
           for i in range(2)]
    assert all((op["error"] is None) == ok for op in ops)
    fail_ratio = 1.0 - run.end_to_end({"ops": ops, "peak_rss_kb": 1024}, 1.0)["ok_ratio"]
    assert fail_ratio == (0.0 if ok else 1.0)


def test_an_output_the_manifest_does_not_vouch_for_fails(tmp_path):
    spec = WORKLOADS["gap-dichotomy"]
    main = _fake_cli(_dichotomy())

    def main_then_tamper(args):
        code = main(args)
        path = Path(args[args.index("--out") + 1]) / "dichotomy.csv"
        path.write_text(path.read_text() + "\n")
        return code

    op = child.run_op(main_then_tamper, spec.commands, 1, tmp_path, spec.check,
                      load_reference())
    assert "hash mismatch" in op["error"]


def test_a_failing_exit_code_fails_the_op(tmp_path):
    spec = WORKLOADS["robin-flow"]
    op = child.run_op(lambda args: 1, spec.commands, 1, tmp_path, spec.check, {})
    assert op["error"] == "exit codes [1]"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_of_every_workload_passes_its_checks(tmp_path, workload):
    import opflow.linalg
    import opflow.metrics
    import scipy.linalg

    def bindings():
        hermop = vars(opflow.linalg.HermOp)
        return [np.linalg.eigvalsh, scipy.linalg.schur, opflow.linalg.op_norm,
                opflow.metrics.op_norm, hermop["__init__"], hermop["eigenvalues"]]

    before = bindings()
    spans = tmp_path / "spans.csv"
    result = child.run(workload, 1, 0.0, True, tmp_path, spans, WORKLOADS[workload].smoke)
    assert [op["error"] for op in result["ops"]] == [None] * 3
    assert [op["traced"] for op in result["ops"]] == [False, True, False]
    layers = result["layers"]
    assert layers["trace.spans"] > 1
    assert layers["cli.self_s"] > 0
    if workload == "robin-flow":
        assert layers["lapack.eig_calls"] >= layers["sturm.assemble_calls"] > 16
        assert layers["specflow.segments"] == 16 + layers["specflow.bisections"]
    if workload == "homotopy":
        assert layers["lapack.svd_calls"] > 0 and layers["lapack.schur_s"] > 0
    # every wrapper is gone again
    assert all(a is b for a, b in zip(bindings(), before))
    lines = spans.read_text().splitlines()
    assert lines[0] == "index,name,start,end,parent,size"
    assert len(lines) - 1 >= layers["trace.spans"]
    assert [p.name for p in tmp_path.iterdir()] == ["spans.csv"]  # op directories removed


def test_reference_covers_every_seed_the_benchmark_passes():
    from workloads import REFERENCE_SEEDS

    reference = load_reference()
    for command in WORKLOADS["homotopy"].commands + WORKLOADS["homotopy"].smoke:
        margins = reference["homotopy"][" ".join(command)]["zk_min_singular_value"]
        assert sorted(map(int, margins)) == list(range(REFERENCE_SEEDS))
        assert all(math.isfinite(v) and v > 1e-8 for v in margins.values())
