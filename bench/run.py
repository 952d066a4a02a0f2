"""Benchmark of the matrix-dirichlet package: one workload per run.

    python3 bench/run.py --workload em-scalar --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (ops_per_s, setup_s, peak_rss_mib); with --trace 1 they are
the per-layer ones, taken from spans recorded around the package's public
entry points, and the spans are written to bench/out/.  Rates and set-up
times are stated at a fixed speed of the machine, measured by a reference
loop timed after each timed call.  See bench/README.md.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS thread: the load is a single closed-loop chain
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import REF_RATE, WORKLOADS, Z_MAX, reference_rate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_CHILDREN = 4  # extra set-ups in fresh processes for the setup_s median
CHILD_TIMEOUT = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """The package from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "matrix_dirichlet", "__init__.py")):
        print("error: no src/matrix_dirichlet under %s" % ROOT,
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import matrix_dirichlet as md
    if not os.path.abspath(md.__file__).startswith(SRC + os.sep):
        print("error: matrix_dirichlet imported from %s, not %s"
              % (md.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    return md


def environment(seed):
    import numpy as np
    import scipy
    env = {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "blas_threads": None,
        "commit": git_commit(),
        "seed": seed,
    }
    try:
        env["openblas"] = np.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    env["blas_threads"] = blas_threads() or os.environ["OPENBLAS_NUM_THREADS"]
    return env


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if found."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_setup_seconds(args):
    """Set-up times of the same workload in fresh processes, one at a time:
    a list of {"setup_s", "raw_s"}."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
    return out


def run_phase(workload, seconds, tracer=None):
    """Rounds until `seconds` have passed; returns (rounds, attempted,
    failed), where rounds holds (operations, laps) per round."""
    workload.start_phase()
    rounds = []
    attempted = failed = 0
    t_end = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op_id += 1
        ops, laps, bad = workload.round()
        rounds.append((ops, laps))
        attempted += ops
        failed += bad
        if tracer is not None and tracer.first_round_evals is None:
            tracer.first_round_evals = tracer.projection_evals
        if perf_counter() >= t_end:
            return rounds, attempted, failed


def rate_medians(rounds):
    """Medians over the rounds of the rate at REF_RATE, the raw rate and the
    time-weighted reference rate.  A lap's seconds at REF_RATE are its
    seconds times the reference rate measured right after it over
    REF_RATE."""
    at_ref, raw, ref = [], [], []
    for ops, laps in rounds:
        secs = sum(s for s, _ in laps)
        ref_secs = sum(s * rate / REF_RATE for s, rate in laps)
        at_ref.append(ops / ref_secs)
        raw.append(ops / secs)
        ref.append(REF_RATE * ref_secs / secs)
    return (statistics.median(at_ref), statistics.median(raw),
            statistics.median(ref))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    md = import_package()

    workdir = os.path.join(HERE, "out", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](md, args.seed, workdir)
        workload.warm_up()
        setup_raw_s = perf_counter() - T_START
        setup_s = setup_raw_s * reference_rate() / REF_RATE
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_s": setup_raw_s}))
            return 0
        if args.trace:
            attempted, failed, metrics, raw = traced_run(args, md, workload)
        else:
            attempted, failed, metrics, raw = plain_run(args, workload,
                                                        setup_s, setup_raw_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env " + json.dumps(environment(args.seed)))
    for name, m in metrics.items():
        print("# %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, m in raw.items():
        print("# raw, not stated at REF_RATE: %-24s %14.6g %s"
              % (name, m["value"], m["unit"]))
    print("# failed_frac %.6g (%d of %d operations)"
          % (failed / attempted, failed, attempted))
    for label, z in workload.z.items():
        print("# path-mean z %-12s %.3f (bound %.1f)"
              % (label, z, Z_MAX[label]))
    for msg in workload.msgs:
        print("# check failed: %s" % msg)
    print(json.dumps({"correct": failed == 0 and not workload.msgs,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def plain_run(args, workload, setup_s, setup_raw_s):
    """End-to-end metrics; returns (attempted, failed, metrics, raw
    figures)."""
    rounds, attempted, failed = run_phase(workload, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = min(attempted, failed + workload.check())
    children = child_setup_seconds(args)
    rate, raw_rate, ref_rate = rate_medians(rounds)
    return attempted, failed, {
        "ops_per_s": metric(rate, "1/s"),
        "setup_s": metric(statistics.median(
            [setup_s] + [c["setup_s"] for c in children]), "s"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }, {
        "ops_per_s": metric(raw_rate, "1/s"),
        "setup_s": metric(statistics.median(
            [setup_raw_s] + [c["raw_s"] for c in children]), "s"),
        "reference_rate": metric(ref_rate, "1/s"),
    }


def traced_run(args, md, workload):
    """Per-layer metrics: `--seconds` untraced, then the same calls traced for
    as long again; returns (attempted, failed, metrics, raw figures)."""
    import tracing

    # the tracer wraps every submodule, including those the workload's own
    # imports did not load
    for info in pkgutil.iter_modules(md.__path__):
        if info.name != "__main__":
            importlib.import_module(md.__name__ + "." + info.name)
    plain_rounds, attempted, failed = run_phase(workload, args.seconds)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, md)
    workload.build()
    tracer.active = True
    traced_rounds, n, bad = run_phase(workload, args.seconds, tracer)
    tracer.active = False
    attempted += n
    failed = min(attempted, failed + bad + workload.check())

    metrics = tracing.per_layer_metrics(tracer, workload.counts)
    plain, plain_raw, _ = rate_medians(plain_rounds)
    traced, traced_raw, _ = rate_medians(traced_rounds)
    metrics["trace.untraced_ops_per_s"] = metric(plain, "1/s")
    metrics["trace.traced_ops_per_s"] = metric(traced, "1/s")
    metrics["trace.overhead_pct"] = metric(100.0 * (plain / traced - 1.0),
                                           "%")
    tracer.save(os.path.join(HERE, "out", "trace-%s-seed%d.npz"
                             % (args.workload, args.seed)))
    return attempted, failed, metrics, {
        "trace.untraced_ops_per_s": metric(plain_raw, "1/s"),
        "trace.traced_ops_per_s": metric(traced_raw, "1/s"),
    }


if __name__ == "__main__":
    sys.exit(main())
