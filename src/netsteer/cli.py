"""Command-line front end.

    netsteer verify-swap  --out swap.csv
    netsteer activation   --n 3 --eta-boundary --omega-steps 1001 --out act.csv
    netsteer claims-demo  --omega 0.9 --out demo.json
    netsteer nlhs         --fixture sep_loc_sep --realize --out report.json

Exit status is 0 iff every per-point identity check passed its tolerance;
a numeric check failing inside a computation exits 1 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import errno
import importlib.resources
import os
import sys
from pathlib import Path

from .experiments import (
    AXIS_PRESETS,
    ExperimentReport,
    SpecError,
    SweepSpec,
    run_activation,
    run_claims_demo,
    run_nlhs,
    run_verify_swap,
    write_csv,
    write_json,
)
from .certificates import PipelinePreconditionError
from .nlhs import ModelNotFoundError, PatternError
from .nlhs_io import FixtureError, _JSONText, save_model
from .operators import NotHermitianError, NotPositiveError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=None, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_range(p: argparse.ArgumentParser, name: str, steps: int) -> None:
    p.add_argument(f"--{name}-min", type=float, default=0.0)
    p.add_argument(f"--{name}-max", type=float, default=1.0)
    p.add_argument(f"--{name}-steps", type=int, default=steps)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsteer",
        description="Network steering experiments on linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-swap", help="check the erased-Werner swap identity")
    _add_range(p, "eta", 21)
    _add_range(p, "omega", 21)
    _add_common(p)

    p = sub.add_parser("activation", help="sweep the steering-activation region")
    p.add_argument("--n", type=int, default=3, help="number of parties (>= 3)")
    p.add_argument("--eta-boundary", action="store_true",
                   help="tie eta to the unsteerability boundary (2/3)(1 - omega)")
    _add_range(p, "eta", 21)
    _add_range(p, "omega", 21)
    _add_common(p)

    p = sub.add_parser("claims-demo", help="input-encoding network steering demo")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--axes", choices=sorted(AXIS_PRESETS), default="zx")
    _add_common(p)

    p = sub.add_parser("nlhs", help="build an NLHS model from a fixture")
    p.add_argument("--fixture", required=True,
                   help="path to a fixture file, or the name of a bundled one")
    p.add_argument("--realize", action="store_true",
                   help="also round-trip through the separable realisation")
    p.add_argument("--model-out", type=Path, default=None,
                   help="write the serialized NLHS model here")
    _add_common(p)
    return parser


def _resolve_fixture(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    bundled = importlib.resources.files("netsteer") / "fixtures" / f"{name}.json"
    with importlib.resources.as_file(bundled) as p:
        if p.exists():
            return Path(p)
    raise FixtureError(f"fixture {name!r} not found on disk or among bundled ones")


def _sweep_spec(args, **kwargs) -> SweepSpec:
    return SweepSpec(
        eta_range=(args.eta_min, args.eta_max, args.eta_steps),
        omega_range=(args.omega_min, args.omega_max, args.omega_steps),
        **kwargs,
    )


def _emit(report: ExperimentReport, args) -> None:
    if args.out is not None:
        if args.format == "csv":
            write_csv(report, args.out)
        else:
            write_json(report, args.out)
    status = "ok" if report.ok else "FAILED"
    print(
        f"{report.name}: {status}  "
        f"max_deviation={report.max_deviation:.3e}  "
        f"records={len(next(iter(report.columns.values())))}  "
        f"wall_time={report.wall_time:.2f}s"
    )
    for key, val in report.extra.items():
        if key not in ("model", "transcript"):
            print(f"  {key}: {val}")


def _check_writable(path: Path) -> None:
    """Raise the OSError that writing ``path`` would raise when it is a
    directory or its parent is not a writable directory; creates and
    truncates nothing."""
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    elif not os.access(path.parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _write_error(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in (args.out, getattr(args, "model_out", None)):
            if path is not None:
                _check_writable(path)
    except OSError as exc:
        return _write_error(exc)
    try:
        if args.command == "verify-swap":
            report = run_verify_swap(_sweep_spec(args))
        elif args.command == "activation":
            spec = _sweep_spec(args, n_parties=args.n, eta_boundary=args.eta_boundary)
            report = run_activation(spec)
        elif args.command == "claims-demo":
            report = run_claims_demo(args.omega, args.axes)
        elif args.command == "nlhs":
            fixture = _resolve_fixture(args.fixture)
            report = run_nlhs(fixture, realize=args.realize)
        else:  # pragma: no cover
            raise AssertionError(args.command)
    except PipelinePreconditionError as exc:
        print(f"error: precondition not met: {exc}", file=sys.stderr)
        return 2
    except (FixtureError, PatternError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelNotFoundError as exc:
        print(f"error: no model found: {exc}", file=sys.stderr)
        return 3
    except (NotHermitianError, NotPositiveError) as exc:
        print(f"error: numeric check failed: {exc}", file=sys.stderr)
        return 1
    try:
        if getattr(args, "model_out", None) is not None:
            # encoded once, for the model file and for the report's "model"
            report.extra["model"] = _JSONText(report.extra["model"])
            save_model(report.extra["model"], args.model_out)
        _emit(report, args)
    except OSError as exc:
        return _write_error(exc)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
