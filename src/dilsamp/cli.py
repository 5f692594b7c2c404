"""Command-line interface: subcommand dispatch and artifact emission.

Subcommands: ``coeffs`` (ball-moment table), ``calibrate`` (solve family
parameters), ``strang-fix`` (lattice moment-condition residuals),
``lemma10`` (randomized chain-rule identity check), ``expand`` (pointwise
expansion values), ``study`` (convergence order fit).  Artifacts are CSV
and JSON files in the ``--out`` directory, written deterministically:
identical inputs and seed give byte-identical outputs.

Exit codes: 0 pass, 1 failed verdict or failed calibration, 2 bad
configuration or flags.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import convergence_study, level_slabs, study_domain
from .calibrate import CalibrationError
from .config import (
    ConfigError,
    ExperimentConfig,
    _build_generator,
    _check_params,
    _json_number,
    parse_config,
)
from .diffop import ball_moments
from .generators import named_generators, strang_fix_table
from .multiindex import indices_below
from .signals import polynomial
from .taylor import verify_taylor_recombination


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _sanitize(obj):
    """Replace non-finite floats with null for strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """Write the header and the rows (lists of cells) line by line, into a
    file renamed to ``path`` once complete: a failing row leaves no file."""
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w") as fh:
            fh.write(header + "\n")
            for cells in rows:
                fh.write(",".join(cells) + "\n")
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    part.replace(path)


def _load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"config: {e}") from e
    return parse_config(text)


def _meta_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_coeffs(args, out: Path) -> int:
    if args.dim < 1:
        raise ConfigError("--dim: must be at least 1")
    if args.order < 0:
        raise ConfigError("--order: must be non-negative")
    table = ball_moments(args.dim, args.order, args.h)
    moments = [
        {"beta": list(beta), "value": table[beta]}
        for beta in indices_below(args.order + 1, args.dim)
    ]
    path = out / "coeffs.json"
    _write_json(path, {
        "dim": args.dim,
        "order": args.order,
        "h": args.h,
        "moments": moments,
    })
    print(f"wrote {path} ({len(moments)} moments)")
    return 0


def cmd_calibrate(args, out: Path) -> int:
    result = _load_config(args.config).calibrate()
    residuals = [
        {"gamma": list(g), "value": _json_number(v)}
        for g, v in sorted(result.residuals.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    ]
    path = out / "calibration.json"
    _write_json(path, {
        "family": result.family,
        "target_order": result.target_order,
        "params": {k: _json_number(v) for k, v in result.params.items()},
        "max_residual": result.max_residual,
        "residuals": residuals,
        "dropped": [list(g) for g in result.dropped],
    })
    shown = ", ".join(
        f"{k}={complex(v).real:.6g}" for k, v in result.params.items()
    )
    print(f"wrote {path} ({shown}; max residual {result.max_residual:.3e})")
    return 0


def _flag_generator(args):
    values = args.params
    if values is not None:
        try:
            values = [float(v) for v in values.split(",")]
        except ValueError as e:
            raise ConfigError(f"--params: {e}") from e
    params = _check_params(args.generator, values, "--params")
    d = (args.dim or 1) if params is None else named_generators[args.generator]().d
    if args.dim not in (None, d):
        raise ConfigError(f"--dim: {args.generator} is {d}-d, got {args.dim}")
    return _build_generator(args.generator, params, d)


def cmd_strang_fix(args, out: Path) -> int:
    if args.dim is not None and args.dim < 1:
        raise ConfigError("--dim: must be at least 1")
    if args.nmax < 1:
        raise ConfigError("--nmax: must be at least 1")
    g = _flag_generator(args)
    order, rows = strang_fix_table(g, args.nmax, args.tol)
    table = [
        {"k": list(k), "beta": list(beta), "residual": r}
        for k, beta, r in rows
    ]
    path = out / "strang_fix.json"
    _write_json(path, {
        "generator": args.generator,
        "n_max": args.nmax,
        "tol": args.tol,
        "order": order,
        "table": table,
    })
    print(f"wrote {path} (order {order}, {len(table)} residuals)")
    return 0


def cmd_lemma10(args, out: Path) -> int:
    if args.dim < 1:
        raise ConfigError("--dim: must be at least 1")
    if args.trials < 1:
        raise ConfigError("--trials: must be at least 1")
    rng = np.random.default_rng(args.seed)
    d = args.dim
    worst = 0.0
    for _ in range(args.trials):
        coeffs = {
            alpha: rng.standard_normal() for alpha in indices_below(5, d)
        }
        f = polynomial(d, coeffs)
        a = rng.integers(-3, 4, size=(d, d))
        x = rng.uniform(-1.0, 1.0, size=d)
        t = rng.uniform(-1.0, 1.0, size=d)
        worst = max(worst, float(verify_taylor_recombination(f, a, x, t, nmax=4)))
    ok = bool(worst < args.tol)
    path = out / "lemma10.json"
    _write_json(path, {
        "dim": d,
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
        "max_residual": worst,
        "pass": ok,
    })
    print(f"wrote {path} (max residual {worst:.3e}, "
          f"{'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def cmd_expand(args, out: Path) -> int:
    cfg = _load_config(args.config)
    if args.level < 0:
        raise ConfigError("--level: must be non-negative")
    plan, _ = cfg.build_plan()
    j = args.level
    domain = study_domain(plan)
    path = out / "expand.csv"
    header = ",".join(f"x{i + 1}" for i in range(plan.generator.d)) + ",re,im"
    try:
        grid, _, slabs = level_slabs(plan, domain, j)
        # slab by slab: neither the grid's rows nor its values are held whole
        _write_csv(path, header, (
            [_fmt(c) for c in pt] + [_fmt(v.real), _fmt(v.imag)]
            for part, vals in slabs
            for pt, v in zip(part.points(), vals)
        ))
    except OverflowError as e:
        raise ConfigError(f"--level: {j} is out of range ({e})") from e
    except ValueError as e:
        raise ConfigError(f"expand: {e}") from e
    print(f"wrote {path} ({len(grid)} points at level {j})")
    return 0


def cmd_study(args, out: Path) -> int:
    cfg = _load_config(args.config)
    plan, calibration = cfg.build_plan()
    try:
        report = convergence_study(plan)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"study: {e}") from e
    csv_path = out / "study.csv"
    _write_csv(
        csv_path,
        "j,log_scale,error",
        ([str(j), _fmt(math.log(s)), _fmt(e)]
         for j, s, e in zip(report.levels, report.scales, report.errors)),
    )
    echo = cfg.echo(
        calibration, domain_halfwidth=report.meta["domain_halfwidth"]
    )
    json_path = out / "report.json"
    _write_json(json_path, {
        "levels": list(report.levels),
        "scales": list(report.scales),
        "errors": list(report.errors),
        "fitted_slope": report.fitted_slope,
        "fit_r2": report.fit_r2,
        "used_levels": list(report.used_levels),
        "predicted_rate": report.predicted_rate,
        "predicted_case": report.predicted_case,
        "slope_tolerance": report.slope_tolerance,
        "verdict": report.verdict,
        "meta": {k: _meta_value(v) for k, v in report.meta.items()},
        "config_echo": echo,
    })
    print(
        f"wrote {json_path} (verdict {report.verdict}: slope "
        f"{report.fitted_slope:.4f}, predicted {report.predicted_rate:g} "
        f"[{report.predicted_case}])"
    )
    return 0 if report.verdict == "pass" else 1


# ---------------------------------------------------------------------------
# parser


def _finite_positive(text: str) -> float:
    """The argparse type of the float flags: a finite number above zero."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilsamp",
        description="Sampling expansions under matrix dilations: "
                    "calibration, expansion, and convergence studies.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", metavar="DIR",
                        help="artifact directory (default ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common],
                       help="ball-moment coefficient table")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--h", type=_finite_positive, required=True)
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser("calibrate", parents=[common],
                       help="solve family parameters against the "
                            "configured operator")
    p.add_argument("config", help="experiment JSON path")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("strang-fix", parents=[common],
                       help="lattice moment-condition residuals")
    p.add_argument("--generator", required=True,
                   choices=sorted(named_generators))
    p.add_argument("--dim", type=int, default=None)  # default 1, or the family's
    p.add_argument("--params", default=None,
                   help="comma-separated family parameters")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--tol", type=_finite_positive, default=1e-7)
    p.set_defaults(handler=cmd_strang_fix)

    p = sub.add_parser("lemma10", parents=[common],
                       help="randomized chain-rule identity residual")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_finite_positive, default=1e-10)
    p.set_defaults(handler=cmd_lemma10)

    p = sub.add_parser("expand", parents=[common],
                       help="pointwise expansion values at one level")
    p.add_argument("config", help="experiment JSON path")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("study", parents=[common],
                       help="convergence-order study")
    p.add_argument("config", help="experiment JSON path")
    p.set_defaults(handler=cmd_study)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.handler(args, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CalibrationError as e:
        print(f"calibration failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
