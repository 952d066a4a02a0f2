"""In-memory span recorder and the instrumentation of the package's layers.

Spans are recorded from outside the package: `instrument` replaces public
functions, `HermLayout` methods and the `DiffusionModel` callables with
wrappers that record (name, start, end, parent, operation id), and counts
projection evaluations made by the finite-difference stencils in
`calculus`.  Every name a function was imported under inside the package
is replaced, so calls through `from .x import f` are seen as well.

Span indices are allocated when a span starts, so the spans of one call
tree are contiguous and a span's descendants are the indices after it
that start before it ends.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name) for every wrapped module-level function
FUNCTIONS = [
    ("sde", "simulate", "sde.simulate"),
    ("sde", "diffusion_factor", "sde.diffusion_factor"),
    ("sde", "write_path_csv", "sde.write_path_csv"),
    ("simplex", "full_coordinates", "simplex.full_coordinates"),
    ("matrix_simplex", "real_to_point", "matrix_simplex.real_to_point"),
    ("linalg", "haar_unitary", "linalg.haar_unitary"),
    ("linalg", "sqrtm_psd", "linalg.sqrtm_psd"),
    ("linalg", "hermitian_eigen", "linalg.hermitian_eigen"),
    ("wishart", "sample_wishart_family", "wishart.sample_wishart_family"),
    ("wishart", "sample_matrix_dirichlet_direct",
     "wishart.sample_matrix_dirichlet_direct"),
    ("sun", "extract_Z", "sun.extract_Z"),
    ("sun", "sun_brownian_step", "sun.sun_brownian_step"),
    ("sun", "algebra_element", "sun.algebra_element"),
    ("calculus", "jacobian", "calculus.jacobian"),
    ("calculus", "pushforward_gamma", "calculus.pushforward_gamma"),
    ("calculus", "pushforward_generator", "calculus.pushforward_generator"),
    ("calculus", "check_identity", "calculus.check_identity"),
    ("calculus", "grad_log_numeric", "calculus.grad_log_numeric"),
    ("calculus", "reversibility_residual", "calculus.reversibility_residual"),
    ("calculus", "check_boundary_affine_numeric",
     "calculus.check_boundary_affine_numeric"),
    ("polar", "closed_form_polar_system", "polar.closed_form_polar_system"),
    ("poly", "check_boundary_affine_exact", "poly.check_boundary_affine_exact"),
    ("cli", "main", "cli.main"),
]

LAYOUT_METHODS = ["to_real", "from_real", "gamma_to_real", "drift_to_real"]

# position of the evaluated map among the positional arguments
STENCILS = {"jacobian": 0, "grad_log_numeric": 0, "pushforward_generator": 1}


class Tracer:
    """Spans kept in flat arrays until the run ends."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.result = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = 0
        self.active = False
        self.projection_evals = 0
        self.first_round_evals = None  # evaluations in the first round

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, keep_result=False):
        nid = self.name_index(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.result.append(-1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if keep_result:
                self.result[i] = 1 if out else 0
            return out

        return traced

    def counting(self, F):
        """F with each evaluation added to projection_evals."""
        if getattr(F, "__counted_by_bench__", False):
            return F

        def counted(x):
            if self.active:
                self.projection_evals += 1
            return F(x)

        counted.__counted_by_bench__ = True
        return counted

    def arrays(self):
        return {
            "name": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "result": np.array(self.result, dtype=np.int8),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)


def _package_modules(md):
    prefix = md.__name__ + "."
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == md.__name__ or k.startswith(prefix))]


def _replace_everywhere(modules, orig, new):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def _layer_of(fn):
    return getattr(fn, "__module__", "").rsplit(".", 1)[-1] or "model"


def instrument(tracer, md):
    """Wrap the package's public entry points with tracer spans.

    md is the imported package; all its submodules must be imported.
    Returns nothing: the package is modified in place for the rest of the
    process.
    """
    modules = _package_modules(md)
    sub = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for mod_name, attr, span in FUNCTIONS:
        orig = getattr(sub[mod_name], attr)
        wrapped = tracer.wrap(span, orig)
        pos = STENCILS.get(attr) if mod_name == "calculus" else None
        if pos is not None:
            wrapped = _counting_stencil(tracer, wrapped, pos)
        _replace_everywhere(modules, orig, wrapped)

    # verify suites are looked up in a table by run_suite
    suites = sub["verify"]._SUITES
    for name in list(suites):
        suites[name] = tracer.wrap("verify.suite.%s" % name, suites[name])

    layout = sub["realify"].HermLayout
    layout.__init__ = tracer.wrap("realify.layout_build", layout.__init__)
    for meth in LAYOUT_METHODS:
        setattr(layout, meth,
                tracer.wrap("realify.%s" % meth, getattr(layout, meth)))

    model_cls = sub["calculus"].DiffusionModel
    orig_init = model_cls.__init__

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        layer = _layer_of(self.gamma)
        self.gamma = tracer.wrap(layer + ".gamma", self.gamma)
        self.drift = tracer.wrap(layer + ".drift", self.drift)
        self.domain_test = tracer.wrap(layer + ".domain", self.domain_test,
                                       keep_result=True)

    model_cls.__init__ = init


def _counting_stencil(tracer, fn, pos):
    @functools.wraps(fn)
    def stencil(*args, **kwargs):
        if len(args) > pos:
            args = list(args)
            args[pos] = tracer.counting(args[pos])
        return fn(*args, **kwargs)
    return stencil


class SpanTable:
    """Self and inclusive times of recorded spans, by name."""

    def __init__(self, tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.result = a["result"]
        self.start = a["start"]
        self.end = a["end"]
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent],
                              weights=self.dur[has_parent],
                              minlength=self.dur.size)
        self.self_time = self.dur - covered

    def mask(self, name, within=None):
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        m = self.name == self.names.index(name)
        return m if within is None else (m & within)

    def count(self, name, within=None):
        return int(np.count_nonzero(self.mask(name, within)))

    def mean_self(self, name):
        m = self.mask(name)
        return float(self.self_time[m].mean()) if m.any() else 0.0

    def mean_total(self, name):
        m = self.mask(name)
        return float(self.dur[m].mean()) if m.any() else 0.0

    def total_self(self, name):
        return float(self.self_time[self.mask(name)].sum())

    def total(self, name):
        return float(self.dur[self.mask(name)].sum())

    def subtree_end(self, i):
        """One past the last descendant of span i."""
        return int(np.searchsorted(self.start, self.end[i], side="left"))

    def descendants(self, name):
        """Mask of spans that run inside a span with this name."""
        inside = np.zeros(self.dur.size, dtype=bool)
        for i in np.flatnonzero(self.mask(name)):
            inside[i + 1:self.subtree_end(i)] = True
        return inside

    def em_substeps(self):
        """Spans inside the EM sub-steps of every simulate call.

        Each sub-step evaluates the drift first, so sub-steps are counted
        by the drift children of `sde.simulate`; the domain test of x0 that
        precedes the first drift is excluded.  Returns (mask, n_substeps,
        n_accepted).
        """
        inside = np.zeros(self.dur.size, dtype=bool)
        n_sub = 0
        n_acc = 0
        for i in np.flatnonzero(self.mask("sde.simulate")):
            stop = self.subtree_end(i)
            kids = np.arange(i + 1, stop)
            kids = kids[self.parent[kids] == i]
            kid_names = [self.names[j] for j in self.name[kids]]
            drifts = [k for k, nm in zip(kids, kid_names)
                      if nm.endswith(".drift")]
            if not drifts:
                continue
            inside[drifts[0]:stop] = True
            n_sub += len(drifts)
            n_acc += sum(int(self.result[k] == 1)
                         for k, nm in zip(kids, kid_names)
                         if nm.endswith(".domain") and k > drifts[0])
        return inside, n_sub, n_acc


US = 1e6
SUITES = ["scalar", "model1", "model2", "sun", "wishart", "polar"]
# spans reported as mean self time per call, as "<span>.us" in microseconds
SELF_US = [
    "sde.diffusion_factor",
    "simplex.gamma",
    "simplex.drift",
    "simplex.domain",
    "matrix_simplex.gamma",
    "matrix_simplex.drift",
    "matrix_simplex.domain",
    "matrix_simplex.real_to_point",
    "realify.layout_build",
    "realify.to_real",
    "realify.from_real",
    "realify.gamma_to_real",
    "realify.drift_to_real",
    "linalg.haar_unitary",
    "linalg.sqrtm_psd",
    "linalg.hermitian_eigen",
    "wishart.sample_wishart_family",
    "sun.extract_Z",
    "sun.sun_brownian_step",
    "calculus.jacobian",
    "calculus.pushforward_generator",
    "polar.closed_form_polar_system",
    "poly.check_boundary_affine_exact",
]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, counts):
    """Per-layer metrics of the traced phase.

    counts holds what the workload issued in that phase: em_steps (outer
    EM steps), cli_draws (draws asked of `matrix-dirichlet sample`) and
    verify_runs.  A metric of a layer the workload never calls reads 0.
    """
    t = SpanTable(tracer)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for span in SELF_US:
        put(span + ".us", US * t.mean_self(span), "us")

    steps = counts.get("em_steps", 0)
    sub_mask, n_sub, n_acc = t.em_substeps()
    put("sde.loop.self_us_per_step",
        US * _ratio(t.total_self("sde.simulate"), steps), "us")
    put("sde.substeps_per_step", _ratio(n_sub, steps), "count")
    put("sde.accept_ratio", _ratio(n_acc, n_sub), "fraction")
    put("sde.write_path_csv.s", t.mean_total("sde.write_path_csv"), "s")
    put("simplex.full_coordinates.per_substep",
        _ratio(t.count("simplex.full_coordinates", sub_mask), n_sub), "count")
    put("realify.layout_builds_per_substep",
        _ratio(t.count("realify.layout_build", sub_mask), n_sub), "count")
    in_cli = t.descendants("cli.main")
    put("realify.layout_builds_per_draw",
        _ratio(t.count("realify.layout_build", in_cli),
               counts.get("cli_draws", 0)), "count")
    put("wishart.sample_matrix_dirichlet_direct.us",
        US * t.mean_total("wishart.sample_matrix_dirichlet_direct"), "us")
    in_step = t.descendants("sun.sun_brownian_step")
    put("sun.algebra_element.per_step",
        _ratio(t.count("sun.algebra_element", in_step),
               t.count("sun.sun_brownian_step")), "count")
    put("calculus.check_identity.s", t.mean_total("calculus.check_identity"),
        "s")
    put("calculus.projection_evals",
        tracer.first_round_evals if counts.get("verify_runs") else 0, "count")
    for suite in SUITES:
        put("verify.suite.%s.s" % suite,
            t.mean_total("verify.suite.%s" % suite), "s")
    put("cli.self_share",
        _ratio(t.total_self("cli.main"), t.total("cli.main")), "fraction")
    return out
