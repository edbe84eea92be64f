"""Command-line interface.

Subcommands:
    run       execute a sweep described by a JSON config, emit CSV
    verify    cross-validate the model against the Monte Carlo and decoy oracles
    optimize  print the optimal intensities for one channel geometry

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 verification
failures present, 4 environment error (a dependency that cannot be imported,
such as a scipy without the HiGHS core that ``verify`` needs).  The
MPQKD_SEED environment variable overrides the seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .model import SystemParams, parse_pairing_interval
from .optimize import OptimizationProblem, optimize_intensities
from .sweep import (
    CSV_COLUMNS,
    SweepValidationError,
    format_row,
    load_spec,
    run_sweep,
    verify_oracles,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpqkd-sim",
        description="Asymmetric mode-pairing QKD simulation and optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run a sweep from a JSON config")
    run_cmd.add_argument("--config", required=True, help="path to the sweep JSON")
    run_cmd.add_argument("--out", help="CSV output path (overrides the config)")
    run_cmd.add_argument("--workers", type=int, help="parallel workers (overrides the config)")

    verify_cmd = sub.add_parser("verify", help="run the oracle verification harness")
    verify_cmd.add_argument("--config", required=True, help="path to the sweep JSON")

    opt_cmd = sub.add_parser("optimize", help="optimize intensities for one geometry")
    opt_cmd.add_argument("--la", type=float, required=True, help="shorter arm length, km")
    opt_cmd.add_argument(
        "--delta", type=float, required=True, help="transmittance ratio eta_a/eta_b (>= 1)"
    )
    opt_cmd.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help="maximal pairing interval (integer or 'inf')",
    )
    opt_cmd.add_argument("--e-d", type=float, default=0.04, help="misalignment error")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args.config)
    if args.workers is not None:
        spec = replace(spec, workers=args.workers)
    if args.out is not None:
        spec = replace(spec, out=args.out)
    rows = run_sweep(spec)
    if spec.out:
        print(f"wrote {len(rows)} rows to {spec.out}")
    else:
        print(",".join(CSV_COLUMNS))
        for row in rows:
            print(format_row(row))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_spec(args.config)
    report = verify_oracles(spec)
    failures = 0
    for entry in report:
        status = "PASS" if entry["passed"] else "FAIL"
        failures += not entry["passed"]
        print(f"{status} {entry['check']} (deviation={entry['deviation']:.3e})")
    print(f"{len(report) - failures}/{len(report)} checks passed")
    return 3 if failures else 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    problem = OptimizationProblem(
        distance_a_km=args.la,
        delta=args.delta,
        lam=parse_pairing_interval(args.lam),
        params=SystemParams(e_d=args.e_d),
    )
    report = optimize_intensities(problem)
    print(
        json.dumps(
            {
                "mu_a": report.mu_a_star,
                "mu_b": report.mu_b_star,
                "rate": report.r_star,
                "converged": report.converged,
                "iterations": report.iterations,
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_optimize(args)
    except (SweepValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
