"""Recording solver runs and spans from outside the cocain package.

Nothing under `src/` is edited.  Functions are replaced wherever a
`cocain.*` module holds them (module attributes and the values of
module-level dicts), so a refactor that moves a call site between modules
keeps it visible.  Everything installed is undone by `Patcher.restore`.

Two layers of wrapping exist:

* `capture_runs` (always on) records each solver call's problem and result,
  which the audit needs; it adds one list append per solver run.  When
  `RunLog.on_iteration` is set, it is also called after every iteration,
  through the solvers' own `callback` argument.
* `Tracer` (traced runs only) records a span per call into each module:
  name, start, end, parent span and study id, in memory.  Oracles are
  wrapped with `dataclasses.replace` on the `CompositeProblem` fields, and
  the kernel with a subclass of its own class, because the solvers branch
  on `isinstance(kernel, ...)` and a proxy object would change the trace.
"""

import dataclasses
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("cocain", "cocain.cli", "cocain.problems", "cocain.prox",
           "cocain.kernels", "cocain.solvers", "cocain.diagnostics",
           "cocain.pgm", "cocain.verify")

SOLVERS = ("cocain_bpg", "cocain_bpg_cfi", "cocain_bpg_no_backtracking",
           "bpg_wb", "bpg_fixed", "ipiano")

# Public calls traced per module (layer).  Problem factories and the
# kernel methods are handled separately because their results are wrapped.
TRACED_FUNCTIONS = {
    "solvers": SOLVERS,
    "problems": ("generate_phase_retrieval", "add_outlier_noise"),
    "prox": ("soft_threshold", "prox_log1abs_vec", "bpg_step_l1_quartic",
             "bpg_step_sql2_quartic", "solve_monotone_cubic"),
    "diagnostics": ("check_lyapunov_descent", "check_prefix_bound",
                    "check_acceptance_conditions", "lyapunov_phi"),
    "cli": ("main", "_write_bundle", "_trace_csv", "_atomic_write_text"),
    "pgm": ("read_pgm", "write_pgm", "synthetic_blocks"),
}
FACTORIES = ("make_univariate", "make_spurious2d", "make_phase_retrieval",
             "make_robust_denoising")
KERNEL_METHODS = ("value", "grad", "bregman", "hess_vec",
                  "hess_quadratic_form")
OUTPUT_SPANS = ("cli._write_bundle", "cli._trace_csv", "cli._atomic_write_text")

NO_CATEGORY, SOLVE, AUDIT = 0, 1, 2


class Patcher:
    """Replaces a function object wherever a cocain module holds it."""

    def __init__(self):
        self.modules = [importlib.import_module(name) for name in MODULES]
        self._undo = []

    def current(self, module, name):
        return getattr(importlib.import_module(f"cocain.{module}"), name)

    def replace(self, original, replacement):
        hits = 0
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._undo.append((module, name, original))
                    hits += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement
                            self._undo.append((value, key, original))
                            hits += 1
        if hits == 0:
            raise RuntimeError(f"no cocain module holds {original!r}")

    def restore(self):
        for holder, name, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[name] = original
            else:
                setattr(holder, name, original)
        self._undo.clear()


class RunLog:
    """Solver runs observed during a study: (study id, problem, result)."""

    def __init__(self):
        self.study_id = -1
        self.runs = []
        self.on_iteration = None


def capture_runs(patcher, log):
    for name in SOLVERS:
        solver = patcher.current("solvers", name)

        def captured(problem, *args, _solver=solver,
                     _signature=inspect.signature(solver), **kwargs):
            hook = log.on_iteration
            if hook is not None:
                call = _signature.bind(problem, *args, **kwargs)
                given = call.arguments.get("callback")

                def callback(record):
                    hook()
                    if given is not None:
                        given(record)

                call.arguments["callback"] = callback
                problem, args, kwargs = call.args[0], call.args[1:], call.kwargs
            result = _solver(problem, *args, **kwargs)
            log.runs.append((log.study_id, problem, result))
            return result

        patcher.replace(solver, functools.wraps(solver)(captured))


class Tracer:
    """Spans recorded as a flat event list and turned into arrays at the end.

    Entering a span appends (name id, start ns), leaving it (-1, end ns);
    `set_study` appends (-2 - study id, 0).  Two appends and one clock read
    per edge keep the cost per traced call well under a microsecond.
    """

    def __init__(self):
        self.names = []
        self._events = []
        self._kernel_classes = {}

    def set_study(self, study_id):
        self._events += (-2 - study_id, 0)

    def wrap(self, span_name, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        append = self._events.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            append(name_id)
            append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                append(-1)
                append(clock())

        return traced

    def span(self, span_name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the benchmark's own."""
        return self.wrap(span_name, fn)(*args, **kwargs)

    def install(self, patcher):
        for layer, names in TRACED_FUNCTIONS.items():
            for name in names:
                fn = patcher.current(layer, name)
                patcher.replace(fn, self.wrap(f"{layer}.{name}", fn))
        for name in FACTORIES:
            factory = patcher.current("problems", name)
            patcher.replace(factory, self._traced_factory(name, factory))

    def _traced_factory(self, name, factory):
        make = self.wrap(f"problems.{name}", factory)

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return self.traced_problem(make(*args, **kwargs))

        return traced

    def traced_problem(self, problem):
        """The same problem with every oracle field and the kernel wrapped.

        Fields named f_* belong to the prox layer, the other callables to
        the problems layer.
        """
        changes = {"kernel": self._traced_kernel(problem.kernel)}
        for fld in dataclasses.fields(problem):
            value = getattr(problem, fld.name)
            if fld.name != "kernel" and callable(value):
                layer = "prox" if fld.name.startswith("f_") else "problems"
                changes[fld.name] = self.wrap(f"{layer}.{fld.name}", value)
        return dataclasses.replace(problem, **changes)

    def _traced_kernel(self, kernel):
        base = type(kernel)
        cls = self._kernel_classes.get(base)
        if cls is None:
            body = {m: self.wrap(f"kernels.{m}", getattr(base, m))
                    for m in KERNEL_METHODS}
            body.update(__qualname__=base.__qualname__,
                        __module__=base.__module__)
            cls = self._kernel_classes[base] = type(base.__name__, (base,), body)
        traced = cls.__new__(cls)
        traced.__dict__.update(vars(kernel))
        return traced

    def arrays(self):
        """Spans as arrays: name id, parent index (-1 for a root), study id,
        start and end in ns; a parent always precedes its children."""
        name, parent, study, start, end = [], [], [], [], []
        stack, current_study = [-1], -1
        events = self._events
        for i in range(0, len(events), 2):
            code, stamp = events[i], events[i + 1]
            if code >= 0:
                parent.append(stack[-1])
                stack.append(len(name))
                name.append(code)
                study.append(current_study)
                start.append(stamp)
                end.append(0)
            elif code == -1:
                end[stack.pop()] = stamp
            else:
                current_study = -2 - code
        return {
            "names": np.array(self.names),
            "name": np.array(name, dtype=np.int32),
            "parent": np.array(parent, dtype=np.int32),
            "study": np.array(study, dtype=np.int32),
            "start_ns": np.array(start, dtype=np.int64),
            "end_ns": np.array(end, dtype=np.int64),
        }


def analyse(spans):
    """Per-span self time, category (solve / audit / none) and entry flag.

    A span's self time is its duration minus its children's durations.  Its
    category is that of its nearest solvers.* (solve) or diagnostics.*
    (audit) ancestor-or-self.  It is an entry into its layer when its
    parent belongs to another layer: only entries count as calls, so a
    kernel's internal value/grad calls inside bregman are time, not calls.
    """
    names = [str(n) for n in spans["names"]]
    layers = sorted({n.split(".", 1)[0] for n in names})
    layer_of_name = np.array([layers.index(n.split(".", 1)[0]) for n in names],
                             dtype=np.int32)
    name, parent = spans["name"], spans["parent"]
    duration = spans["end_ns"] - spans["start_ns"]
    has_parent = parent >= 0
    child_ns = np.zeros(len(name), dtype=np.int64)
    np.add.at(child_ns, parent[has_parent], duration[has_parent])

    own = np.array([SOLVE if n.startswith("solvers.") else
                    AUDIT if n.startswith("diagnostics.") else NO_CATEGORY
                    for n in names], dtype=np.int8)
    category = own[name]
    while True:
        pending = (category == NO_CATEGORY) & has_parent
        inherited = np.where(pending, category[np.where(has_parent, parent, 0)],
                             category)
        if np.array_equal(inherited, category):
            break
        category = inherited

    layer = layer_of_name[name]
    entry = ~has_parent | (layer != layer[np.where(has_parent, parent, 0)])
    return {
        "names": names, "layers": layers, "layer": layer,
        "duration_ns": duration, "self_ns": duration - child_ns,
        "category": category, "entry": entry,
    }


def calls(info, spans, span_name, category, studies=None):
    """Entry calls of `span_name` in the given category, optionally only
    within the given study ids."""
    if span_name not in info["names"]:
        return 0
    mask = ((spans["name"] == info["names"].index(span_name))
            & info["entry"] & (info["category"] == category))
    if studies is not None:
        mask &= np.isin(spans["study"], list(studies))
    return int(np.count_nonzero(mask))


def oracle_entries(info, layers, category):
    """Entry calls into any of the given layers in the given category."""
    ids = [info["layers"].index(x) for x in layers if x in info["layers"]]
    mask = ((info["category"] == category) & info["entry"]
            & np.isin(info["layer"], ids))
    return int(np.count_nonzero(mask))


def layer_self_seconds(info, layer):
    if layer not in info["layers"]:
        return 0.0
    mask = info["layer"] == info["layers"].index(layer)
    return float(info["self_ns"][mask].sum()) * 1e-9


def outermost_seconds(info, spans, span_names):
    """Inclusive time of the listed spans, not counting one inside another."""
    ids = [info["names"].index(n) for n in span_names if n in info["names"]]
    if not ids:
        return 0.0
    member = np.isin(spans["name"], ids)
    parent = spans["parent"]
    nested = member & (parent >= 0) & member[np.where(parent >= 0, parent, 0)]
    return float(info["duration_ns"][member & ~nested].sum()) * 1e-9
