"""Traced in-process run of the filmstab CLI, and the analysis of its spans.

Run as a script, this module is the traced child process::

    python3 benchmark/tracing.py SPANS.json -- stability --config C.json --out DIR --threads 1

It wraps the public functions and cached properties of each filmstab module
in spans (name, layer, parent, start, end on the system-wide monotonic
clock), runs ``filmstab.cli.main`` on the remaining arguments, and writes the
spans and counters to ``SPANS.json`` when the run ends.  The wrappers change
no arguments or results, so the run's reports must stay byte-identical to an
untraced run.

Imported, it gives :func:`layer_metrics`, which turns one spans file plus
the spawn and exit times measured by the parent into per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import uuid
from collections import defaultdict


def now_ns() -> int:
    """Monotonic time shared by every process on the machine."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []  # [name, layer, parent index or None, start_ns, end_ns]
        self.counters = defaultdict(int)
        self._open = []

    def wrap(self, fn, name: str, layer: str, after=None):
        """``fn`` recording a span per call; ``after(counters, args, result)`` runs on success."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, self._open[-1] if self._open else None, now_ns(), None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = now_ns()
                self._open.pop()
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counters": self.counters}, fh)


# -- counters recorded at span boundaries ------------------------------------------


def _after_hessian(counters, args, K):
    nd = K.shape[0]
    counters["elasticity.hessian_bytes"] += nd * nd * 8
    counters["elasticity.dofs"] = max(counters["elasticity.dofs"], nd)


def _after_cholesky(counters, args, result):
    n = args[0].shape[0]
    counters["linalg.cholesky_gflop"] += n**3 / 3.0 / 1e9


def _after_solve(counters, args, result):
    counters["elasticity.newton_iters"] += result[1]["iterations"]


def _counting_eigsh(eigsh, counters, key):
    """``eigsh`` whose operator counts its matvecs under ``counters[key]``."""
    from scipy.sparse.linalg import LinearOperator

    @functools.wraps(eigsh)
    def counted(A, *args, **kwargs):
        def matvec(x):
            counters[key] += 1
            return A.matvec(x)

        return eigsh(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), *args, **kwargs)

    return counted


# Spans per module: (attribute, counter hook).  A wrapped function replaces
# every module-level name bound to it, so calls through ``from .x import f``
# are traced too.
FUNCTIONS = {
    "config": [("validate_config", None), ("build_problem_inputs", None)],
    "geometry": [("build_grid", None)],
    "elasticity": [
        ("assemble_hessian", _after_hessian),
        ("h1_gram", None),
        ("coercivity_constant", None),
        ("solve_critical_point", _after_solve),
        ("continue_critical_point", None),
    ],
    "stability": [("dispersion_curve", None), ("fd_oracle_second_variation", None)],
    "flat": [
        ("flat_field", None),
        ("lambda1_of_thickness", None),
        ("stability_of_thickness", None),
        ("critical_thickness", None),
        ("threshold_rows", None),
    ],
}
PROBLEM_PROPERTIES = ("stiffness", "coupling", "t_matrix", "sim_matrix", "_pencil")
PROBLEM_METHODS = ("report", "lambda1", "mu1", "second_variation", "full_second_variation")
# eigsh is called once per module: by coercivity_constant for c0 and by mu1
MATVEC_COUNTERS = {"elasticity": "elasticity.c0_matvecs", "stability": "stability.mu1_matvecs"}


def install(tracer: Tracer) -> None:
    """Wrap the filmstab layers in spans; imports numpy, scipy and filmstab."""
    import importlib

    modules = {
        name: importlib.import_module(f"filmstab.{name}")
        for name in ("cli", "config", "geometry", "elasticity", "stability", "flat")
    }

    for layer, entries in FUNCTIONS.items():
        for attr, after in entries:
            original = getattr(modules[layer], attr)
            traced = tracer.wrap(original, f"{layer}.{attr}", layer, after)
            for module in modules.values():
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, traced)

    problem = modules["stability"].StabilityProblem
    problem.__init__ = tracer.wrap(problem.__init__, "stability.StabilityProblem", "stability")
    for attr in PROBLEM_METHODS:
        setattr(problem, attr, tracer.wrap(getattr(problem, attr), f"stability.{attr}", "stability"))
    for attr in PROBLEM_PROPERTIES:
        prop = problem.__dict__[attr]
        prop.func = tracer.wrap(prop.func, f"stability.{attr.lstrip('_')}", "stability")

    # scipy calls, attributed to the calling module through its own binding
    for layer in ("elasticity", "stability"):
        module = modules[layer]
        module.cho_factor = tracer.wrap(module.cho_factor, f"{layer}.cholesky", "linalg", _after_cholesky)
        module.eigsh = _counting_eigsh(module.eigsh, tracer.counters, MATVEC_COUNTERS[layer])


def main(argv) -> int:
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <filmstab arguments>")
    tracer = Tracer()
    start = now_ns()
    install(tracer)
    tracer.spans.append(["process.imports", "process", None, start, now_ns()])
    import filmstab.cli

    rc = tracer.wrap(filmstab.cli.main, "cli.main", "cli")(cli_argv)
    tracer.dump(spans_path)
    return rc


# -- analysis in the parent -----------------------------------------------------------

LAYERS = ("process", "config", "geometry", "elasticity", "stability", "flat", "linalg", "cli")

# metric -> span name; the metric sums the spans' durations
SPAN_SECONDS = {
    "elasticity.assemble_hessian_s": "elasticity.assemble_hessian",
    "elasticity.cholesky_s": "elasticity.cholesky",
    "stability.cholesky_s": "stability.cholesky",
    "elasticity.h1_gram_s": "elasticity.h1_gram",
    "elasticity.solve_s": "elasticity.solve_critical_point",
    "stability.fd_oracle_s": "stability.fd_oracle_second_variation",
    "stability.stiffness_s": "stability.stiffness",
    "stability.coupling_s": "stability.coupling",
    "stability.t_matrix_s": "stability.t_matrix",
    "stability.sim_matrix_s": "stability.sim_matrix",
    "stability.mu1_s": "stability.mu1",
    "stability.second_variation_s": ("stability.second_variation", "stability.full_second_variation"),
    "stability.dispersion_s": "stability.dispersion_curve",
    "flat.critical_thickness_s": "flat.critical_thickness",
    "flat.threshold_rows_s": "flat.threshold_rows",
    "flat.field_s": "flat.flat_field",
    "geometry.build_grid_s": "geometry.build_grid",
    "config.validate_s": "config.validate_config",
}
# metric -> span name; the metric sums the spans' self times
SPAN_SELF_SECONDS = {
    "elasticity.c0_s": "elasticity.coercivity_constant",
    "stability.lambda1_s": "stability.pencil",
}
# metric -> span name; the metric counts the spans
SPAN_CALLS = {
    "elasticity.assemble_hessian_calls": "elasticity.assemble_hessian",
    "elasticity.cholesky_calls": "elasticity.cholesky",
    "stability.cholesky_calls": "stability.cholesky",
    "elasticity.solve_calls": "elasticity.solve_critical_point",
    "stability.fd_resolves": "elasticity.continue_critical_point",
    "stability.problems": "stability.StabilityProblem",
    "stability.second_variation_calls": ("stability.second_variation", "stability.full_second_variation"),
    "flat.lambda1_evals": "flat.lambda1_of_thickness",
    "flat.reports": "flat.stability_of_thickness",
    "geometry.build_grid_calls": "geometry.build_grid",
}
COUNTERS = (
    "elasticity.hessian_bytes",
    "elasticity.dofs",
    "linalg.cholesky_gflop",
    "elasticity.c0_matvecs",
    "stability.mu1_matvecs",
    "elasticity.newton_iters",
)
COUNT_METRICS = tuple(SPAN_CALLS) + COUNTERS
UNITS = {
    "elasticity.hessian_bytes": "B",
    "linalg.cholesky_gflop": "GFLOP",
}


def _names(spec) -> tuple:
    return spec if isinstance(spec, tuple) else (spec,)


def layer_metrics(trace: dict, spawn_ns: int, exit_ns: int) -> tuple:
    """Per-layer metrics of one traced run, and the problems found in its spans.

    The parent's spawn-to-exit interval becomes the root span ``process``;
    the child's top-level spans are its children.  A span's self time is
    its duration minus its children's, so the self times of all layers add
    up to the traced wall time.
    """
    spans = trace["spans"]
    children_s = [0.0] * len(spans)
    root_children_s = 0.0
    for name, layer, parent, start, end in spans:
        if parent is None:
            root_children_s += (end - start) / 1e9
        else:
            children_s[parent] += (end - start) / 1e9
    wall = (exit_ns - spawn_ns) / 1e9
    problems = []
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_layer["process"] = wall - root_children_s
    total_s, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, layer, parent, start, end), child in zip(spans, children_s):
        duration = (end - start) / 1e9
        own = duration - child
        if own < -1e-6 or start < spawn_ns or end > exit_ns:
            problems.append(f"span {name} does not nest inside its parent")
        by_layer[layer] += own
        total_s[name] += duration
        self_s[name] += own
        calls[name] += 1

    metrics = {}
    for metric, spec in SPAN_SECONDS.items():
        metrics[metric] = sum(total_s[n] for n in _names(spec))
    for metric, spec in SPAN_SELF_SECONDS.items():
        metrics[metric] = sum(self_s[n] for n in _names(spec))
    for metric, spec in SPAN_CALLS.items():
        metrics[metric] = sum(calls[n] for n in _names(spec))
    for metric in COUNTERS:
        metrics[metric] = trace["counters"].get(metric, 0)
    for layer, seconds in by_layer.items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.wall_s"] = wall
    return metrics, problems


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
