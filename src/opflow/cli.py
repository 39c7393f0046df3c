"""Command-line surface: spectral sweeps, flow, dichotomy, and identity suites.

Every command writes its data files (CSV/JSON) plus a ``manifest.json`` into
the output directory, through ``manifest.write_lines`` and in ``manifest.json_text``'s
JSON form, and is deterministic given its flags and ``--seed``.
Exit codes: 0 success, 1 threshold failure, 2 usage error.  Only ``main`` maps package
errors to them (``ValidationError`` 2; ``NonConvergenceError``, ``ConditioningError`` 1, one
stderr line; others are bugs and keep their traceback).  Argument domains are the library's.

A flat key-value config file (``key = value`` lines, ``#`` comments) can
preset any flag of the chosen command.  Each known pair is inserted as
``--flag=value`` right after the command name and parsed with the rest, so it
meets the flag's own type and choice checks (exit 2 on a bad value), and an
explicit flag, parsed later, wins.  Keys that are not flags of that command
are ignored.  The config path comes from ``--config`` or the ``OPFLOW_CONFIG``
environment variable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConditioningError, NonConvergenceError, ValidationError
from .homotopy import (
    GridSpace,
    compactify_homotopy,
    default_compact_factor,
    discretization_tolerance,
    isometry_defect,
    odd_retraction_defect,
    shrink_isometry,
    stretch_isometry,
    zk_injectivity_margin,
)
from .linalg import HermOp
from .manifest import RunManifest, json_text, write_lines
from .specflow import OperatorPath, spectral_flow
from .sturm import dichotomy_sweep, robin_generator, spectral_graph
from .transforms import identity_suite
from .classify import surgery_bound_trials

CONFIG_ENV = "OPFLOW_CONFIG"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form (deterministic full precision)."""
    return repr(float(x))


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_path(args: argparse.Namespace) -> str | None:
    return args.config or os.environ.get(CONFIG_ENV)


def _parse_with_config(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv, with the config file's values inserted ahead of the subcommand's flags.

    The known keys are the subcommand's own: its namespace less ``command``,
    ``func`` and ``config``.  Every flag is ``--`` plus its dest with ``_`` as
    ``-``, so ``max_depth = 3`` becomes ``--max-depth=3``.  The parser itself
    is never changed, so one parser serves every call.
    """
    args = parser.parse_args(argv)
    path = _config_path(args)
    if not path:
        return args
    try:
        values = _read_config(path)
    except (OSError, ValueError) as exc:
        parser.error(f"bad config file: {exc}")
    known = vars(args).keys() - {"command", "func", "config"}
    presets = [f"--{key.replace('_', '-')}={values[key]}" for key in values if key in known]
    argv = sys.argv[1:] if argv is None else list(argv)
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + presets + argv[at:])


# Namespace entries that are not parameters of the computation.
_NOT_PARAMETERS = ("command", "func", "out", "config")


def _emit(args: argparse.Namespace, filename: str, payload) -> Path:
    """Write one data file plus ``manifest.json`` into ``--out``, both by ``write_lines``.

    A dict is written as ``json_text``, a ``(header, rows)`` pair as CSV lines, streamed.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / filename
    if isinstance(payload, dict):
        write_lines(path, [json_text(payload)])
    else:
        header, rows = payload
        write_lines(path, itertools.chain([header + "\n"], (",".join(row) + "\n" for row in rows)))
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    config = _config_path(args)
    manifest = RunManifest.create(args.command, params, __version__,
                                  {"config": config} if config else None)
    manifest.record_output(path, out)
    manifest.write(out / "manifest.json")
    return path


def cmd_specgraph(args, parser) -> int:
    records = spectral_graph(args.samples, args.grid, args.window)
    rows = (
        (_fmt(theta), str(int(k)), _fmt(lam))
        for theta, indices, values in records
        for k, lam in zip(indices, values)
    )
    csv_path = _emit(args, "specgraph.csv", ("theta,branch_index,lambda", rows))
    print(f"wrote {csv_path}")
    return 0


_BUILTIN_PATHS = {  # specflow --path: each builtin name -> (grid, samples) -> its sampled path
    "robin": lambda grid, n: OperatorPath.sample(robin_generator(grid), 0.0, math.pi, n, closed=True),
    "const": lambda grid, n: OperatorPath.sample(lambda t: HermOp(np.diag([1.0, 2.0])), 0.0, 1.0, n),
    "cross": lambda grid, n: OperatorPath.sample(lambda t: HermOp(np.diag([t - 0.5, 2.0])), 0.0, 1.0, n),
}


def cmd_specflow(args, parser) -> int:
    if args.samples < 2:
        parser.error("--samples must be at least 2")
    if args.path != "robin":
        args.grid = None  # only the robin path has a grid; the manifest says so
    path = _BUILTIN_PATHS[args.path](args.grid, args.samples)
    report = spectral_flow(path, window0=args.window, max_depth=args.max_depth)
    json_path = _emit(args, "specflow.json", report.to_json_dict())
    print(f"flow = {report.flow} ({len(report.crossings)} crossing brackets); wrote {json_path}")
    return 0


def cmd_dichotomy(args, parser) -> int:
    if args.points < 2:
        parser.error("--points must be at least 2")
    if not (0 < args.x1_min < args.x1_max < math.inf):
        parser.error("need 0 < --x1-min < --x1-max < inf")
    x1s = np.geomspace(args.x1_min, args.x1_max, args.points)
    rows = [(_fmt(x1), _fmt(riesz_lower), _fmt(gap))
            for x1, (riesz_lower, gap) in zip(x1s, dichotomy_sweep(x1s.tolist(), args.grid))]
    csv_path = _emit(args, "dichotomy.csv", ("x1,riesz_lower_bound,gap_dist", rows))
    print(f"wrote {csv_path}")
    return 0


def cmd_identities(args, parser) -> int:
    if math.isnan(args.tolerance):
        parser.error("--tolerance must be a number")
    deviations = identity_suite(dim=args.dim, trials=args.trials, seed=args.seed)
    worst = max(deviations.values())
    for name in sorted(deviations):
        print(f"{name:32s} max deviation {deviations[name]:.3e}")
    _emit(args, "identities.json", {"deviations": deviations, "tolerance": args.tolerance})
    ok = worst <= args.tolerance
    print(f"worst deviation {worst:.3e} {'<=' if ok else '>'} tolerance {args.tolerance:g}")
    return 0 if ok else 1


def cmd_homotopy_demo(args, parser) -> int:
    try:
        grids = [int(g) for g in str(args.grids).split(",") if g.strip()]
    except ValueError:
        parser.error(f"--grids: expected comma-separated integers, got {args.grids!r}")
    if len(grids) < 2 or grids[0] < 8 or any(a >= b for a, b in zip(grids, grids[1:])):
        parser.error("--grids needs at least two strictly ascending grid sizes >= 8")
    deltas = {n: discretization_tolerance(n, modes=args.modes) for n in grids}
    monotone = all(deltas[a] > deltas[b] for a, b in zip(grids, grids[1:]))

    n0 = grids[-1]
    grid = GridSpace(n0)
    endpoint_exact = bool(
        np.array_equal(shrink_isometry(1.0, grid), np.eye(n0))
        and np.array_equal(stretch_isometry(0.0, grid), np.eye(n0))
    )
    inj = zk_injectivity_margin(n0, seed=args.seed)
    odd = odd_retraction_defect(n0 if n0 % 2 == 0 else n0 + 1, seed=args.seed)
    A = HermOp(np.diag(np.linspace(1.0, 3.0, 8)))
    comp_exact = bool(compactify_homotopy(0.0, A, default_compact_factor(8)) is A)
    _emit(args, "homotopy_demo.json", {
        "delta_by_grid": {str(n): deltas[n] for n in grids},
        "delta_monotone_decreasing": monotone,
        "measured_c": {str(n): deltas[n] * n for n in grids},
        "endpoints_exact": endpoint_exact and comp_exact,
        "zk_min_singular_value": inj,
        "odd_unitary_retraction_defect": odd,
        "isometry_defect_t_half": isometry_defect(
            shrink_isometry(0.5, grid), grid, args.modes),
    })
    for n in grids:
        print(f"n={n}: delta={deltas[n]:.5f} (C ~ {deltas[n]*n:.1f})")
    ok = monotone and endpoint_exact and inj > 1e-8 and odd <= 1e-9
    print("homotopy checks", "passed" if ok else "FAILED")
    return 0 if ok else 1


def cmd_surgery(args, parser) -> int:
    if args.instances < 1:
        parser.error("--instances must be positive")
    try:
        eps_values = [float(e) for e in str(args.eps).split(",") if e.strip()]
    except ValueError:
        eps_values = []
    if not eps_values:
        parser.error(f"--eps: expected comma-separated numbers, got {args.eps!r}")
    records = surgery_bound_trials(eps_values, instances=args.instances, seed=args.seed)
    rows = (
        (_fmt(r["eps"]), str(r["instance"]), str(r["dim"]), _fmt(r["c"]),
         _fmt(r["arc_radius"]), _fmt(r["deviation"]), str(int(r["holds"])))
        for r in records
    )
    csv_path = _emit(args, "surgery.csv", ("eps,instance,dim,c,arc_radius,deviation,holds", rows))
    violations = [r for r in records if not r["holds"]]
    print(f"{len(records)} instances, {len(violations)} bound violations; wrote {csv_path}")
    return 0 if not violations else 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=".", metavar="DIR", help="output directory (default: .)")
    sub.add_argument("--seed", type=int, default=0, metavar="N")
    sub.add_argument("--config", default=None, metavar="PATH",
                     help=f"flat key=value preset file (or ${CONFIG_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opflow",
        description="Operator transforms, spectral flow, and boundary-family experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sg = subs.add_parser("specgraph", help="Sweep the boundary family and emit its spectral graph.")
    sg.add_argument("--samples", type=int, default=128, metavar="N")
    sg.add_argument("--grid", type=int, default=800, metavar="N")
    sg.add_argument("--window", type=float, default=50.0, metavar="W")
    _add_common(sg)
    sg.set_defaults(func=cmd_specgraph)

    sf = subs.add_parser("specflow", help="Spectral flow of a builtin operator path.")
    sf.add_argument("--path", choices=list(_BUILTIN_PATHS), default="robin")
    sf.add_argument("--grid", type=int, default=800, metavar="N")
    sf.add_argument("--samples", type=int, default=64, metavar="N")
    sf.add_argument("--window", type=float, default=1.0, metavar="W",
                    help="read each point's spectrum on [-2W, 2W]; it places the crossing "
                         "brackets but does not decide the flow (default: 1.0)")
    sf.add_argument("--max-depth", type=int, default=24, dest="max_depth", metavar="D",
                    help="bisections allowed below each sample step (default: 24)")
    _add_common(sf)
    sf.set_defaults(func=cmd_specflow)

    di = subs.add_parser("dichotomy", help="Transform-vs-graph distance sweep toward Dirichlet.")
    di.add_argument("--grid", type=int, default=400, metavar="N")
    di.add_argument("--points", type=int, default=9, metavar="N")
    di.add_argument("--x1-min", type=float, default=1e-4, dest="x1_min", metavar="X")
    di.add_argument("--x1-max", type=float, default=0.9, dest="x1_max", metavar="X")
    _add_common(di)
    di.set_defaults(func=cmd_dichotomy)

    idn = subs.add_parser("identities", help="Randomized transform identity suite.")
    idn.add_argument("--dim", type=int, default=16, metavar="N")
    idn.add_argument("--trials", type=int, default=500, metavar="N")
    idn.add_argument("--tolerance", type=float, default=1e-9, metavar="T")
    _add_common(idn)
    idn.set_defaults(func=cmd_identities)

    hd = subs.add_parser("homotopy-demo", help="Discretization tolerances of the homotopy formulas.")
    hd.add_argument("--grids", default="128,256,512", metavar="N1,N2,...")
    hd.add_argument("--modes", type=int, default=12, metavar="J")
    _add_common(hd)
    hd.set_defaults(func=cmd_homotopy_demo)

    su = subs.add_parser("surgery", help="Cayley-distance bound for window surgery.")
    su.add_argument("--instances", type=int, default=100, metavar="N")
    su.add_argument("--eps", default="0.5,0.1,0.02", metavar="E1,E2,...")
    _add_common(su)
    su.set_defaults(func=cmd_surgery)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process (``build_parser`` builds a new one)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = _parse_with_config(parser, argv)
    try:
        return args.func(args, parser)
    except ValidationError as exc:
        parser.error(f"{args.command}: {exc}")
    except (NonConvergenceError, ConditioningError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
