"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, warms up every code
path it times, and then runs rounds: one call of `round()` issues a fixed
batch of operations closed-loop (the next call starts when the previous one
has returned) and returns (operations, laps, failed operations).  A lap is
one timed call or loop of calls into the package: (seconds, the reference
loop's rate measured right after it).  Outputs are kept so that `check()`
can test them after the timed phases; it returns the further failed
operations.  Each failure leaves a line in `msgs`.

Operations: one outer Euler-Maruyama step of length dt (`em-*`), one draw
or group step (`sample`), one identity check (`verify`).
"""

import contextlib
import importlib
import io
import json
import os
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
# Rates and set-up times are stated as if the reference loop ran at this many
# iterations per second, about its median on the machine the benchmark was
# calibrated on (see bench/README.md).
REF_RATE = 25000.0
REF_ITERS = 500
# Loose bounds on the largest |path mean - stationary mean| / standard error
# over a model's coordinates (20 batch means; under the null roughly the
# largest of k t-values with 19 degrees of freedom, with heavier tails where
# the path is short in model time).  Over chains of the length a 20 s run
# records, the null z reached 3.4 in 50 (scalar, k=2), 3.3 in 50 (model I
# d=2, k=4) and 5.7 in 150 (model I d=3 n=3, k=27, 7 time units at most);
# a bound must stay clear of the null's far tail, since one false alarm
# fails a run.  See bench/README.md for the power of the scalar bound.
Z_MAX = {"scalar": 4.5, "model1-d2n1": 5.0, "model1-d3n3": 8.0}


def reference_rate():
    """Iterations per second of a fixed loop of small numpy and LAPACK calls,
    like those of the package's hot paths.  On a shared host the speed of
    the machine wanders by up to 1.7x over seconds; this loop, timed right
    after each timed call, tracks it."""
    S = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    x = np.ones(3)
    t0 = perf_counter()
    for _ in range(REF_ITERS):
        L = np.linalg.cholesky(S)
        x = x + 1e-3 * (np.linalg.solve(L, x) - x.mean())
        np.linalg.eigvalsh(S + np.outer(x, x))
    return REF_ITERS / (perf_counter() - t0)


def lap(secs):
    """(secs, reference rate): run right after a timed call."""
    return secs, reference_rate()


def _seeds(seed, n=4096):
    """Philox seeds handed to the package, all derived from the workload
    seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [int(s) for s in rng.integers(0, 2 ** 31, size=n)]


def _call_cli(md, argv):
    """cli.main with its report lines swallowed; returns (exit code,
    lap)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        try:
            rc = md.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except RuntimeError:  # a sampler that gave up
            rc = 1
        secs = perf_counter() - t0
    return rc, lap(secs)


def _read_rows(path, skip):
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _mean_z(states, target, n_batches=20):
    """Largest |mean - target| / batch-means standard error."""
    states = np.asarray(states)
    bs = states.shape[0] // n_batches
    if bs < 1:
        return np.inf
    bm = states[:n_batches * bs].reshape(n_batches, bs, -1).mean(axis=1)
    se = np.clip(bm.std(axis=0, ddof=1) / np.sqrt(n_batches), 1e-12, None)
    return float(np.max(np.abs(states.mean(axis=0) - target) / se))


class Workload:
    name = ""
    MODULES = ()  # the package's submodules this workload calls

    def __init__(self, md, seed, workdir):
        for mod in self.MODULES:
            importlib.import_module(md.__name__ + "." + mod)
        self.md = md
        self.seeds = _seeds(seed)
        self.workdir = workdir
        self.counts = {}
        self.msgs = []
        self.z = {}  # path-mean z of each mean-checked model
        self.setup()
        self.build()

    def setup(self):
        """Inputs and fixtures that do not depend on instrumentation."""

    def build(self):
        """Objects whose callables the tracer wraps at construction."""

    def start_phase(self):
        """Restart the seed list so each timed phase issues the same
        calls."""
        self.k = 0
        self.counts = {}

    def next_seed(self):
        s = self.seeds[self.k % len(self.seeds)]
        self.k += 1
        return s

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def fail(self, n, msg):
        self.msgs.append(msg)
        return n

    def keep(self, paths, key, states, n, label):
        """Store a call's recorded states under its seed index; returns the
        failed operations.  The traced half of a traced run repeats the
        calls of the untraced half, so a repeated key must give the same
        states.  It is not stored twice: copies would pass for independent
        batches in the path-mean check and inflate its z."""
        if key not in paths:
            paths[key] = states
            return 0
        if np.array_equal(paths[key], states):
            return 0
        return self.fail(n, "%s: a repeated call gave a different path"
                         % label)

    def check(self):
        return 0


class EmScalar(Workload):
    """simulate() on the scalar Dirichlet model, n=2, A=1-I, a=(1,1,1)."""

    name = "em-scalar"
    MODULES = ("errors", "sde", "simplex")
    STEPS = 2000
    THIN = 50
    DT = 1e-3

    def setup(self):
        self.params = self.md.simplex.ScalarModelParams(
            np.ones((3, 3)) - np.eye(3), np.ones(3))
        self.x0 = np.array([1.0 / 3.0, 1.0 / 3.0])
        self.target = self.x0
        self.paths = {}
        self.first = None

    def build(self):
        self.model = self.md.simplex.scalar_model(self.params, margin=1e-10)

    def start_phase(self):
        super().start_phase()
        self.x = self.x0

    def _simulate(self, x, seed, steps):
        cfg = self.md.sde.SimConfig(dt=self.DT, n_steps=steps,
                                    thin=self.THIN, seed=seed)
        return self.md.sde.simulate(self.model, x, cfg, record=True)

    def warm_up(self):
        self._simulate(self.x0, self.seeds[-1], 20 * self.THIN)

    def round(self):
        key = self.k
        seed = self.next_seed()
        x = self.x
        t0 = perf_counter()
        try:
            s = self._simulate(x, seed, self.STEPS)
        except self.md.errors.MatrixDirichletError as exc:
            return (self.STEPS, [lap(perf_counter() - t0)],
                    self.fail(self.STEPS, "simulate: %s" % exc))
        laps = [lap(perf_counter() - t0)]
        self.x = s.states[-1]
        if self.first is None:
            self.first = (x, seed, s)
        self.count("em_steps", self.STEPS)
        return self.STEPS, laps, self.keep(self.paths, key, s.states,
                                            self.STEPS, "scalar")

    def _csv(self, summary, name):
        path = os.path.join(self.workdir, name)
        self.md.sde.write_path_csv(summary, path)
        with open(path, "rb") as fh:
            return fh.read()

    def check(self):
        failed = 0
        paths = list(self.paths.values())
        for states in paths:
            if not all(self.model.domain_test(x) for x in states):
                failed += self.fail(self.STEPS,
                                    "recorded state outside the simplex")
        if paths:
            z = self.z["scalar"] = _mean_z(np.concatenate(paths),
                                           self.target)
            if z > Z_MAX["scalar"]:
                failed += self.fail(self.STEPS * len(paths),
                                    "path mean z=%.2f from 1/3" % z)
        if self.first is not None:
            x, seed, s = self.first
            again = self._simulate(x, seed, self.STEPS)
            if self._csv(s, "a.csv") != self._csv(again, "b.csv"):
                failed += self.fail(self.STEPS,
                                    "same seed gave a different path")
        return failed


class EmMatrix(Workload):
    """`matrix-dirichlet simulate` through cli.main on three parameter
    files: model I d=2 n=1, model II d=2 n=1 at theorem_params of a
    d=2 dims=[3,3] frame, and model I d=3 n=3."""

    name = "em-matrix"
    MODULES = ("cli", "matrix_simplex", "wishart")
    # (label, outer steps per call, dt, thin); each call takes a similar time
    MODELS = [("model1-d2n1", 1400, 1e-3, 10),
              ("model2-d2n1", 1000, 5e-4, 10),
              ("model1-d3n3", 320, 1e-3, 10)]

    def setup(self):
        ms = self.md.matrix_simplex
        frame_rng = np.random.Generator(np.random.Philox(self.seeds[-2]))
        _, frame = self.md.wishart.sample_smz_frame(2, [3, 3], frame_rng)
        params2, _ = self.md.wishart.theorem_params(frame)
        specs = {
            "model1-d2n1": ms.params_to_json(ms.Model1Params(
                np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([2.0, 2.0])),
                d=2),
            "model2-d2n1": ms.params_to_json(params2, n=1),
            "model1-d3n3": ms.params_to_json(ms.Model1Params(
                np.ones((4, 4)) - np.eye(4), np.full(4, 3.0)), d=3),
        }
        self.files = {}
        self.check_models = {}
        self.x0 = {}
        for label, spec in specs.items():
            path = os.path.join(self.workdir, label + ".json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            with open(path) as fh:
                params, n, d = ms.params_from_json(json.load(fh))
            self.files[label] = path
            self.check_models[label] = (
                ms.model1(params, d) if isinstance(params, ms.Model1Params)
                else ms.model2(params, n))
            # the barycenter, which is also the stationary mean: a is
            # symmetric in every model
            self.x0[label] = ms.point_to_real(ms.MatrixSimplexPoint(
                [np.eye(d, dtype=complex) / (n + 1)] * n))
        self.paths = {label: {} for label in specs}
        self.first = {}

    def start_phase(self):
        super().start_phase()
        self.x = dict(self.x0)

    def _run(self, label, x, seed, steps, dt, thin, out):
        x0_path = os.path.join(self.workdir, "x0-%s.json" % label)
        with open(x0_path, "w") as fh:
            json.dump([float(v) for v in x], fh)
        argv = ["simulate", "--model", self.files[label], "--x0", x0_path,
                "--dt", repr(dt), "--steps", str(steps), "--thin", str(thin),
                "--seed", str(seed), "--out", out]
        return _call_cli(self.md, argv)

    def warm_up(self):
        out = os.path.join(self.workdir, "warm.csv")
        for label, _, dt, _ in self.MODELS:
            self._run(label, self.x0[label], self.seeds[-1], 40, dt, 2, out)

    def round(self):
        ops = failed = 0
        laps = []
        out = os.path.join(self.workdir, "path.csv")
        for label, steps, dt, thin in self.MODELS:
            key = self.k
            seed = self.next_seed()
            x = self.x[label]
            rc, t = self._run(label, x, seed, steps, dt, thin, out)
            laps.append(t)
            ops += steps
            if rc != 0:
                failed += self.fail(steps, "%s: simulate exited %s"
                                    % (label, rc))
                continue
            states = _read_rows(out, 4)
            self.x[label] = states[-1]
            failed += self.keep(self.paths[label], key, states, steps, label)
            self.count("em_steps", steps)
            if label not in self.first:
                with open(out, "rb") as fh:
                    self.first[label] = (x, seed, fh.read())
        return ops, laps, failed

    def check(self):
        failed = 0
        for label, steps, dt, thin in self.MODELS:
            model = self.check_models[label]
            paths = list(self.paths[label].values())
            for states in paths:
                if not all(model.domain_test(x) for x in states):
                    failed += self.fail(
                        steps, "%s: state outside the matrix simplex" % label)
            # model II at these parameters mixes too slowly for a run this
            # short to estimate the standard error of its path mean
            if paths and label in Z_MAX:
                z = self.z[label] = _mean_z(np.concatenate(paths),
                                            self.x0[label])
                if z > Z_MAX[label]:
                    failed += self.fail(steps * len(paths),
                                        "%s: path mean z=%.2f" % (label, z))
            if label in self.first:
                x, seed, data = self.first[label]
                again = os.path.join(self.workdir, "again.csv")
                rc, _ = self._run(label, x, seed, steps, dt, thin, again)
                with open(again, "rb") as fh:
                    if rc != 0 or fh.read() != data:
                        failed += self.fail(
                            steps, "%s: same seed gave a different CSV"
                            % label)
        return failed


class Sample(Workload):
    """The direct Wishart-ratio sampler through `matrix-dirichlet sample`,
    Haar SU(6) draws through extract_Z, and SU(3) Brownian steps."""

    name = "sample"
    MODULES = ("cli", "errors", "linalg", "sun")
    # each sampler takes about a third of a round
    CLI_DRAWS = 750
    HAAR_DRAWS = 1000
    SUN_STEPS = 1300
    DT = 1e-3
    TOL = 1e-10

    def setup(self):
        self.partition = self.md.sun.Partition(2, [3, 3])
        self.last_cols = self.partition.sets[-1]

    def start_phase(self):
        super().start_phase()
        self.state = self.md.sun.SUNState(np.eye(3, dtype=complex))

    def _cli(self, seed, n, out):
        return _call_cli(self.md, [
            "sample", "--law", "matrix-dirichlet", "--d", "2",
            "--dims", "3,3", "--n", str(n), "--seed", str(seed),
            "--out", out])

    def _haar(self, seed, n):
        """Returns (draws, lap, failed draws)."""
        rng = np.random.Generator(np.random.Philox(seed))
        errors = (self.md.errors.MatrixDirichletError, RuntimeError)
        draws = []
        failed = 0
        t0 = perf_counter()
        for _ in range(n):
            try:
                u = self.md.linalg.haar_unitary(6, rng, special=True)
                draws.append((u, self.md.sun.extract_Z(u, self.partition)))
            except errors:
                failed += 1
        return draws, lap(perf_counter() - t0), failed

    def _sun(self, state, seed, n):
        """n steps from state; returns (state, lap, failed steps)."""
        rng = np.random.Generator(np.random.Philox(seed))
        errors = (self.md.errors.MatrixDirichletError, RuntimeError)
        failed = 0
        t0 = perf_counter()
        for _ in range(n):
            try:
                state = self.md.sun.sun_brownian_step(state, self.DT, rng)
            except errors:
                failed += 1
        return state, lap(perf_counter() - t0), failed

    def warm_up(self):
        seed = self.seeds[-1]
        self._cli(seed, 20, os.path.join(self.workdir, "warm.csv"))
        self._haar(seed, 20)
        self._sun(self.md.sun.SUNState(np.eye(3, dtype=complex)), seed, 20)

    def _bad_blocks(self, blocks):
        """Per draw: blocks not Hermitian psd or not summing to Id."""
        blocks = np.asarray(blocks)  # (draws, n+1, d, d)
        herm = np.max(np.abs(blocks - np.conj(np.swapaxes(blocks, -1, -2))),
                      axis=(1, 2, 3))
        low = np.min(np.linalg.eigvalsh(blocks), axis=(1, 2))
        total = np.max(np.abs(blocks.sum(axis=1) - np.eye(blocks.shape[-1])),
                       axis=(1, 2))
        return (herm > self.TOL) | (low < -self.TOL) | (total > self.TOL)

    def round(self):
        failed = 0
        out = os.path.join(self.workdir, "draws.csv")
        rc, t_cli = self._cli(self.next_seed(), self.CLI_DRAWS, out)
        if rc != 0:
            failed += self.fail(self.CLI_DRAWS, "sample exited %s" % rc)
        else:
            rows = _read_rows(out, 2)  # d=2, n=1: (Z_00, Z_11, Re, Im)
            if rows.shape != (self.CLI_DRAWS, 4):
                failed += self.fail(self.CLI_DRAWS,
                                    "sample wrote %d rows" % rows.shape[0])
            else:
                z01 = rows[:, 2] + 1j * rows[:, 3]
                Z = np.zeros((rows.shape[0], 2, 2), dtype=complex)
                Z[:, 0, 0] = rows[:, 0]
                Z[:, 1, 1] = rows[:, 1]
                Z[:, 0, 1] = z01
                Z[:, 1, 0] = np.conj(z01)
                blocks = np.stack([Z, np.eye(2) - Z], axis=1)
                bad = int(np.count_nonzero(self._bad_blocks(blocks)))
                if bad:
                    failed += self.fail(bad, "%d direct draws off the "
                                        "matrix simplex" % bad)
            self.count("cli_draws", self.CLI_DRAWS)

        draws, t_haar, bad = self._haar(self.next_seed(), self.HAAR_DRAWS)
        blocks = []
        for u, point in draws:
            W = u[:self.partition.d, self.last_cols]
            blocks.append(list(point.Z) + [W @ W.conj().T])
        bad += int(np.count_nonzero(self._bad_blocks(blocks)))
        if bad:
            failed += self.fail(bad, "%d Haar draws failed" % bad)

        self.state, t_sun, bad = self._sun(self.state, self.next_seed(),
                                           self.SUN_STEPS)
        u = self.state.u
        if bad or np.max(np.abs(u @ u.conj().T - np.eye(3))) >= 1e-9:
            failed += self.fail(self.SUN_STEPS, "SU(3) steps failed or "
                                "left the group")
        ops = self.CLI_DRAWS + self.HAAR_DRAWS + self.SUN_STEPS
        return ops, [t_cli, t_haar, t_sun], failed


class Verify(Workload):
    """`matrix-dirichlet verify --suite all` over a fixed list of seeds,
    starting at a place in the list chosen by the workload seed."""

    name = "verify"
    MODULES = ("cli",)
    # The Monte Carlo checks have 3-sigma tolerances, so a few random seeds
    # fail one of them: at seed 1358833748 scalar.radial_independence reads
    # 0.0236 against a tolerance of 0.0212.  Seeds 0-15 all pass.
    VERIFY_SEEDS = list(range(16))

    def setup(self):
        with open(os.path.join(HERE, "verify_check_ids.json")) as fh:
            self.expected = json.load(fh)
        self.out = os.path.join(self.workdir, "report.json")
        n = len(self.VERIFY_SEEDS)
        start = self.seeds[0] % n
        self.seeds = [self.VERIFY_SEEDS[(start + k) % n] for k in range(n)]

    def _verify(self, seed, samples=None):
        if os.path.exists(self.out):
            os.remove(self.out)
        argv = ["verify", "--suite", "all", "--seed", str(seed),
                "--out", self.out]
        if samples is not None:
            argv += ["--samples", str(samples)]
        return _call_cli(self.md, argv)

    def warm_up(self):
        # one sample per identity runs every code path of the suites
        self._verify(self.seeds[-1], samples=1)

    def round(self):
        rc, t = self._verify(self.next_seed())
        ops = len(self.expected)
        self.count("verify_runs", 1)
        if rc not in (0, 1) or not os.path.exists(self.out):
            return ops, [t], self.fail(ops, "verify exited %s" % rc)
        with open(self.out) as fh:
            report = json.load(fh)
        good = {c["id"] for c in report["checks"]
                if c["pass"] and c["n_samples"] >= 1}
        failed = sum(1 for cid in self.expected if cid not in good)
        if len(report["checks"]) != ops:
            failed = max(failed, 1)
        if failed:
            self.fail(0, "verify: %d of %d checks missing, failing or "
                      "without samples" % (failed, ops))
        return ops, [t], failed


WORKLOADS = {w.name: w for w in (EmScalar, EmMatrix, Sample, Verify)}
