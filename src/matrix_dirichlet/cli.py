"""Command line front end: verify identity suites, simulate paths, and
sample the stationary matrix Dirichlet law.

Exit codes: 0 success, 1 check or simulation failure, 2 usage error (bad
flags, an unreadable model or x0 file, an --out that cannot be written).
All commands are deterministic given their flags and seed.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import MatrixDirichletError, StepRejectedError
from .linalg import _chunk_sizes
from .matrix_simplex import (
    MatrixSimplexPoint, Model1Params, _direct_draws, model1, model2,
    params_from_json, point_to_real, simplex_layout)
from .sde import SimConfig, _write_rows, simulate, write_path_csv
from .verify import SUITE_NAMES, format_report, run_suite


def _out_problem(path):
    """Why --out cannot be written, or None; checked before any work runs."""
    folder = os.path.dirname(os.path.abspath(path))
    if not path or not os.path.isdir(folder):
        return "no such directory"
    if os.path.isdir(path):
        return "is a directory"
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        return "permission denied"
    return None


def _written(write, *args, **kwargs):
    """Run write(*args, **kwargs), which writes --out: 0, or 2 with a
    message when the file cannot be written."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        print("error: cannot write --out: %s" % exc, file=sys.stderr)
        return 2
    return 0


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _cmd_verify(args):
    report = run_suite(args.suite, seed=args.seed, samples=args.samples)
    for line in format_report(report):
        print(line)
    if args.out is not None and _written(_write_json, report, args.out):
        return 2
    return 0 if report["pass"] else 1


def _cmd_simulate(args, parser):
    if not 0 < args.dt < np.inf:
        parser.error("dt must be positive and finite")
    try:
        with open(args.model) as fh:
            params, n, d = params_from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        print("error: cannot read model file: %s" % exc, file=sys.stderr)
        return 2
    model = (model1(params, d) if isinstance(params, Model1Params)
             else model2(params, n))
    if args.x0 == "auto":
        # barycenter of the simplex: every block Id/(n+1)
        point = MatrixSimplexPoint(
            [np.eye(d, dtype=complex) / (n + 1) for _ in range(n)])
        x0 = point_to_real(point)
    else:
        try:
            with open(args.x0) as fh:
                x0 = np.asarray(json.load(fh), dtype=float)
        except (OSError, ValueError, TypeError) as exc:
            print("error: cannot read x0 file: %s" % exc, file=sys.stderr)
            return 2
        if x0.shape != (model.dim,):
            print("error: x0 has %d coordinates, model needs %d"
                  % (x0.size, model.dim), file=sys.stderr)
            return 2
    try:
        config = SimConfig(dt=args.dt, n_steps=args.steps, thin=args.thin,
                           seed=args.seed, burn_in=args.burn_in)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        summary = simulate(model, x0, config, record=True)
    except StepRejectedError as exc:
        print("simulation failed: %s" % exc, file=sys.stderr)
        if exc.position is not None:
            print("  position: %s" % np.array2string(exc.position),
                  file=sys.stderr)
        if exc.proposal is not None:
            print("  proposal: %s" % np.array2string(exc.proposal),
                  file=sys.stderr)
        return 1
    if _written(write_path_csv, summary, args.out,
                names=simplex_layout(n, d).coordinate_names()):
        return 2
    print("wrote %d states to %s (rejection fraction %.2e)"
          % (summary.count, args.out, summary.rejection_fraction))
    return 0


def _cmd_sample(args, parser):
    dims = args.dims
    if len(dims) < 2:
        parser.error("need at least two dims")
    if any(r < args.d for r in dims):
        parser.error("every dim must be >= d (got d=%d, dims=%s)"
                     % (args.d, dims))
    if _written(_write_draws, args.out, args.d, dims, args.n, args.seed):
        return 2
    print("wrote %d draws to %s" % (args.n, args.out))
    return 0


def _write_draws(path, d, dims, count, seed):
    """count direct matrix Dirichlet draws as CSV rows of real coordinates,
    in `linalg._chunk_sizes` chunks, so a row's bits do not depend on count."""
    layout = simplex_layout(len(dims) - 1, d)
    rng = np.random.Generator(np.random.Philox(seed))
    with open(path, "w", newline="") as fh:
        fh.write("# law: matrix-dirichlet d=%d dims=%s seed=%d\n"
                 % (d, ",".join(str(r) for r in dims), seed))
        csv.writer(fh).writerow(layout.coordinate_names())
        for K in _chunk_sizes(count):
            _write_rows(fh, layout.to_real(_direct_draws(d, dims, rng, K)))


def _int_at_least(minimum):
    """argparse type: an integer >= minimum."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "%r is not an integer" % text) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be >= %d, got %d" % (minimum, value))
        return value
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # Philox takes any non-negative integer key


def _positive_int_list(text):
    """argparse type: comma-separated integers >= 1."""
    return [_positive_int(s) for s in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matrix-dirichlet",
        description="Dirichlet diffusions on simplices of Hermitian "
                    "matrices: verification suites, path simulation, and "
                    "direct sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="points or frames of each identity check (default "
                        "per suite); the Monte Carlo checks keep their own "
                        "draw counts")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("simulate", help="integrate a matrix model")
    p.add_argument("--model", required=True,
                   help="JSON parameter file (schema 1)")
    p.add_argument("--x0", default="auto",
                   help='JSON file of realified coordinates, or "auto" '
                        "for the barycenter")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--thin", type=_positive_int, default=1)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="CSV path output")

    p = sub.add_parser("sample", help="draw from the stationary law")
    p.add_argument("--law", required=True, choices=["matrix-dirichlet"])
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--dims", type=_positive_int_list, required=True,
                   help="comma-separated Wishart degrees d1,..,dk")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="number of draws")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="CSV output")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is not None:
        problem = _out_problem(args.out)
        if problem:
            print("error: cannot write --out %s: %s" % (args.out, problem),
                  file=sys.stderr)
            return 2
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "simulate":
            return _cmd_simulate(args, parser)
        if args.command == "sample":
            return _cmd_sample(args, parser)
    except MatrixDirichletError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
