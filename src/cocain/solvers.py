"""Inertial Bregman proximal gradient solvers with double backtracking.

The main method alternates two adaptive searches per iteration.  First the
lower (minorant) constant, the extrapolation factor, and the base point are
fixed together: the trial constant determines how much inertia the descent
certificate can tolerate, and the minorant inequality at the extrapolated
point decides whether the trial stands.  Then the upper (majorant) constant
and the step size are fixed by the usual descent-lemma backtracking, and the
Bregman proximal step produces the next iterate.  Every accepted quantity is
logged to a trace from which the Lyapunov certificates in `diagnostics` can
be recomputed without trusting the solver.

Each solver is this iteration with one inertia rule and one majorant
rule, composed by one iteration driver (`_drive`), which owns the records,
the callback and the stop test.  The inertia rule fixes (L_lower, gamma,
y) and the majorant rule (L_bar, tau, x^{k+1}); either returns None when
its ladder runs out.  Every solver is called as
`solver(problem, config, x0, *, callback=None)`.

The smooth part g is read only through `problem.evaluate(x)`, once per
point: the evaluation of x^{k+1} made by the majorant test is carried into
the next iteration as that of x^k, and the steps without inertia take
grad g(x^k) from it.  The lower search derives each trial's evaluation
from those of x^k and x^{k-1} (`Evaluation.extrapolated`), which lets a
problem with a linear image evaluate the trials without a product.

Solvers, by trace name:
  name         inertia rule                    majorant rule
  cocain       searched (`lower_backtrack`)    backtracked (`upper_backtrack`),
                                               frozen from freeze_after on
  cfi          searched, gamma in closed form  as cocain (quartic kernel only)
  bpg_wb       none (`_no_inertia`)            as cocain
  cocain_nobt  halved, L_lower = L             global L (`_fixed_majorant`)
  bpg_fixed    none                            fixed L (config.L, or smad_L)
  ipiano       fixed beta (Euclidean only)     as cocain, from x^k, prox at y
"""

import math
import numbers
import struct
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .kernels import EuclideanKernel, QuarticKernel
from .problems import Evaluation
from .tol import geq, leq, require_finite

TERM_MAX_ITERS = "max_iters"
TERM_STEP_TOL = "step_tol"
TERM_BACKTRACK_FAILURE = "backtrack_failure"
TERM_NON_FINITE = "non_finite"


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by all solvers.

    delta/epsilon control how much of the iterate-to-iterate gap the inertia
    may consume (1 > delta > epsilon > 0; epsilon None, the default, is
    derived as 0.01*delta).  nu_lower/nu_upper are the backtracking ladder
    ratios, L_bar_init the initial majorant constant (tau starts at
    1/L_bar_init; see `_drive` for its barrier), gamma_cap an upper bound
    on the extrapolation factor in [0, 1].

    The minorant ladder starts each iteration at max(L_lower_value,
    previous accepted / nu_lower), the previous constant being 0 before the
    first iteration, so the constant can relax one rung per iteration.

    freeze_after, when set, pins the majorant to max(current, problem.smad_L)
    and the step size alongside it from that iteration on, in every solver
    that backtracks its majorant (`upper_backtrack`); the second phase
    Lyapunov function is defined relative to such a frozen step size.
    store_iterates keeps copies of every iterate and base point on the trace
    (needed by the certificates that re-derive distances independently).

    L is the fixed majorant of bpg_fixed (None: problem.smad_L) and beta the
    fixed inertia of ipiano in [0, 1); the other solvers ignore both.
    """

    delta: float = 0.99
    epsilon: Optional[float] = None
    nu_lower: float = 2.0
    nu_upper: float = 2.0
    L_bar_init: float = 1.0
    gamma_cap: float = 1.0
    max_backtracks: int = 60
    max_iters: int = 1000
    stop_tol: float = 1e-9
    L_lower_value: float = 1e-10
    store_iterates: bool = False
    freeze_after: Optional[int] = None
    L: Optional[float] = None
    beta: float = 0.7

    def __post_init__(self):
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", 0.01 * self.delta)
        if not 0.0 < self.epsilon < self.delta < 1.0:
            raise ValueError(
                f"need 1 > delta > epsilon > 0, got delta={self.delta}, "
                f"epsilon={self.epsilon}"
            )
        # Each check accepts a valid value, so NaN fails it; the bounds make
        # every float field finite.
        if not (1.0 < self.nu_lower < math.inf
                and 1.0 < self.nu_upper < math.inf):
            raise ValueError("ladder ratios nu_lower/nu_upper must be finite "
                             "and exceed 1")
        if not 0.0 < self.L_bar_init < math.inf:
            raise ValueError(
                f"L_bar_init must be finite and > 0, got {self.L_bar_init}")
        if not 0.0 <= self.gamma_cap <= 1.0:
            raise ValueError(f"gamma_cap must lie in [0, 1], got {self.gamma_cap}")
        # bool is an Integral, so True would pass as a count of one
        counts = [self.max_backtracks, self.max_iters]
        if self.freeze_after is not None:
            counts.append(self.freeze_after)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   and n >= 1 for n in counts):
            raise ValueError("max_backtracks, max_iters and freeze_after "
                             "must be positive integers")
        if not 0.0 <= self.stop_tol < math.inf:
            raise ValueError(
                f"stop_tol must be finite and >= 0, got {self.stop_tol}")
        if not 0.0 < self.L_lower_value < math.inf:
            raise ValueError("L_lower_value must be finite and > 0")
        if self.L is not None and not 0.0 < self.L < math.inf:
            raise ValueError(f"L must be finite and > 0, got {self.L}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")


class TraceRecord(NamedTuple):
    """One row of a solver trace, an immutable named tuple.

    Record k (1-based) describes the state entering general step k plus the
    parameters accepted during it: psi is Psi(x^k), dh_prev_curr is
    D_h(x^{k-1}, x^k), dh_curr_y is D_h(x^k, y^k), step_norm is
    ||x^k - x^{k-1}||, and tau/gamma/L_bar/L_lower are the accepted values
    that produce x^{k+1}.  Record 0 is the initial state and the final record
    describes the last iterate with zeroed inertia fields.  x and y hold
    iterate copies when the run stores them, else None.
    """

    k: int
    psi: float
    tau: float
    gamma: float
    L_bar: float
    L_lower: float
    dh_prev_curr: float
    dh_curr_y: float
    step_norm: float
    lower_trials: int
    upper_trials: int
    wall_time_ns: int
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None


# Fields compared for bit-identity between traces: all but the iterate
# copies and wall_time_ns, the one legitimately nondeterministic column.
TRACE_FIELDS = tuple(name for name in TraceRecord._fields
                     if name not in ("wall_time_ns", "x", "y"))


# One packed row of a `Trace`: k, the eight float fields, then
# lower_trials, upper_trials and wall_time_ns, little-endian, 96 bytes.
_ROW = struct.Struct("<q8d3q")
_ROW_DTYPE = np.dtype({
    "names": TraceRecord._fields[:12],
    "formats": ["<i8"] + ["<f8"] * 8 + ["<i8"] * 3,
})


class Trace(Sequence):
    """A run's records, a sequence of `TraceRecord`, stored packed: the
    twelve scalar fields of each record as one 96-byte row of a bytearray,
    and the iterate copies in the lists x and y (None where not stored).

    trace[i] builds record i and a slice a list of records; column(name)
    copies one scalar field into a float array.  A list of records packs
    into one with Trace(records).
    """

    __slots__ = ("_rows", "x", "y")

    def __init__(self, records=()):
        self._rows = bytearray()
        self.x = []
        self.y = []
        for rec in records:
            self.append(*rec)

    def append(self, k, psi, tau, gamma, L_bar, L_lower, dh_prev_curr,
               dh_curr_y, step_norm, lower_trials, upper_trials,
               wall_time_ns, x=None, y=None):
        """Add a record, given by its fields in `TraceRecord` order."""
        self._rows += _ROW.pack(
            k, psi, tau, gamma, L_bar, L_lower, dh_prev_curr, dh_curr_y,
            step_norm, lower_trials, upper_trials, wall_time_ns)
        self.x.append(x)
        self.y.append(y)

    def __len__(self):
        return len(self.x)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # a negative index counts from the end
        return TraceRecord(*_ROW.unpack_from(self._rows, i * _ROW.size),
                           self.x[i], self.y[i])

    def __iter__(self):
        for row, x, y in zip(self.rows(), self.x, self.y):
            yield TraceRecord(*row, x, y)

    def rows(self):
        """The records' twelve scalar fields, as one tuple per record."""
        return _ROW.iter_unpack(self._rows)

    def column(self, name):
        """One scalar field of every record, as a new float64 array (a copy,
        so that no view of the rows outlives the call and blocks an
        append)."""
        return np.frombuffer(self._rows, _ROW_DTYPE)[name].astype(float)


def replace_record(records, k, **changes):
    """Copy of a sequence of records, as a `Trace`, with record k's fields
    overridden (for negative controls that corrupt an otherwise valid
    trace); it holds the input's own stored x and y arrays."""
    out = list(records)
    out[k] = out[k]._replace(**changes)
    return Trace(out)


@dataclass
class SolverResult:
    """Final iterate plus the full per-iteration trace; reason says why a
    backtrack_failure or non_finite run stopped, and is empty otherwise."""

    solver: str
    problem: str
    x: np.ndarray
    termination: str
    iterations: int
    records: Trace
    config: SolverConfig
    reason: str = ""

    @property
    def final_psi(self):
        return self.records[-1].psi


@dataclass
class IterateState:
    """Inputs of one general step: the current iterate x^k and the step
    delta = x^k - x^{k-1} that reached it, the evaluations of g at x^{k-1}
    and x^k (`problem.evaluate`) and the previously accepted parameters
    (L_lower_prev is 0 in the first)."""

    k: int
    x_curr: np.ndarray
    delta: np.ndarray
    g_prev: Evaluation
    g_curr: Evaluation
    dh_prev_curr: float
    tau_prev: float
    L_bar_prev: float
    L_lower_prev: float


def _base_point(state, gamma, kernel):
    """(gamma, y, D_h(x^k, y)) for the base point y = x^k + gamma Delta,
    Delta = x^k - x^{k-1}: what every gamma rule returns."""
    y = state.x_curr + gamma * state.delta
    return gamma, y, kernel.bregman(state.x_curr, y)


def _halve_gamma(state, scale, config, problem):
    """Halve g0 = min(gamma_cap, sqrt((delta-eps)/scale)) until
    scale * D_h(x^k, y) <= (delta-eps) * D_h(x^{k-1}, x^k).  On the
    Euclidean kernel g0 meets it with equality in exact arithmetic, but
    y - x^k cancels when |x^k| >> |Delta|, so g0 is tested there too.
    gamma = 0 always verifies since the base point then collapses onto x^k."""
    kernel = problem.kernel
    gamma = min(config.gamma_cap, math.sqrt((config.delta - config.epsilon) / scale))
    bound = (config.delta - config.epsilon) * state.dh_prev_curr
    for _ in range(config.max_backtracks):
        _, y, dh = _base_point(state, gamma, kernel)
        if leq(scale * dh, bound):
            return gamma, y, dh
        gamma *= 0.5
    return _base_point(state, 0.0, kernel)


def find_gamma(state, L_lower_candidate, config, problem):
    """Largest extrapolation factor compatible with the inertia condition,
    as (gamma, y, D_h(x^k, y)).

    For the Euclidean kernel D_h(x^k, y) = gamma^2 * D_h(x^{k-1}, x^k), so
    gamma = min(gamma_cap, sqrt((delta-eps)/(1 + L_lower*tau_prev))) holds
    with equality-or-better up to rounding.  Every kernel starts from that
    candidate and halves until the condition verifies.
    """
    scale = 1.0 + L_lower_candidate * state.tau_prev
    return _halve_gamma(state, scale, config, problem)


def find_gamma_cfi(state, L_lower_candidate, config, problem):
    """Closed-form inertia for the quartic kernel, as (gamma, y, D_h(x^k, y)).

    Uses the bound D_h(x^k, y) <= gamma^2 ||Delta||^2 ((3/2)||x^k||^2 + 7/4)
    with Delta = x^k - x^{k-1} to solve the inertia condition for gamma
    directly instead of searching.  Delta = 0 gives gamma = 0.
    """
    nd2 = float(state.delta.dot(state.delta))
    num = (config.delta - config.epsilon) * state.dh_prev_curr
    xk2 = float(state.x_curr.dot(state.x_curr))
    denom = (1.0 + L_lower_candidate * state.tau_prev) * nd2 * (1.5 * xk2 + 1.75)
    gamma = min(config.gamma_cap, math.sqrt(num / denom)) if nd2 else 0.0
    return _base_point(state, gamma, problem.kernel)


def lower_backtrack(state, config, problem, gamma_rule=find_gamma):
    """The searched inertia rule: fix (L_lower, gamma, y) for one step.

    Walks the ladder seed, seed*nu, seed*nu^2, ... and accepts the first
    constant whose extrapolated point satisfies the minorant inequality
    g(x^k) >= g(y) + <grad g(y), x^k - y> - L_lower * D_h(x^k, y), with
    gamma, y and dh_curr_y = D_h(x^k, y) from gamma_rule for each trial.
    Returns (L_lower, gamma, y, g_y, dh_curr_y, trials), g_y the evaluation
    of g at y, or None when no trial is accepted.  Each trial's g_y is
    extrapolated from the evaluations of x^k and x^{k-1}, except when the
    rule repeats the previous trial's gamma (a capped gamma does): y then
    has that trial's bits, so its g_y and g(y) + <grad g(y), x^k - y> are
    reused and only the L_lower * D_h(x^k, y) term is formed again.
    """
    g_curr = state.g_curr
    L_lo = max(config.L_lower_value, state.L_lower_prev / config.nu_lower)
    gamma_y = None  # the gamma that g_y and base belong to
    for trial in range(1, config.max_backtracks + 1):
        gamma, y, dh_curr_y = gamma_rule(state, L_lo, config, problem)
        if gamma != gamma_y:
            g_y = g_curr.extrapolated(state.g_prev, gamma, y)
            base = g_y.value + g_y.slope_to(g_curr)
            gamma_y = gamma
        if geq(g_curr.value, base - L_lo * dh_curr_y):
            return L_lo, gamma, y, g_y, dh_curr_y, trial
        L_lo *= config.nu_lower
    return None


def upper_backtrack(state, y, g_y, config, problem, centre=None):
    """The backtracked majorant rule: fix (L_bar, tau, x_next) for one step.

    g_y is the evaluation of g at y.  Starts the ladder at the previous
    majorant (so L_bar never decreases), sets tau = 1/L_bar, solves the
    proximal subproblem centred at `centre` (default y), and accepts once
    the majorant inequality g(x_next) <= g(y) + <grad g(y), x_next - y> +
    L_bar * D_h(x_next, y) holds, with x_next - y formed once for both
    terms.  tau never exceeds tau_prev = 1/L_bar_prev, since the ladder
    only climbs from L_bar_prev and correctly rounded division is
    monotone.  Returns (L_bar, tau, x_next, g_next, trials), g_next the
    evaluation of g at x_next, or None when no trial is accepted.  From
    config.freeze_after on it starts at max(L_bar_prev, smad_L), where the
    inequality holds since L_bar * h - g is convex, and returns the first
    rung untested, with 0 trials.
    """
    kernel = problem.kernel
    grad_h_centre = kernel.grad(y if centre is None else centre)
    grad_g_y = g_y.grad
    L_bar = state.L_bar_prev
    frozen = config.freeze_after is not None and state.k >= config.freeze_after
    if frozen:
        L_bar = max(L_bar, problem.smad_L)
    for trial in range(1, config.max_backtracks + 1):
        tau = 1.0 / L_bar
        x_next = problem.f_prox_step(grad_h_centre, grad_g_y, tau)
        g_next = problem.evaluate(x_next)
        if frozen:
            return L_bar, tau, x_next, g_next, 0
        d = x_next - y
        rhs = (
            g_y.value
            + float(grad_g_y.dot(d))
            + L_bar * kernel.bregman(x_next, y, d)
        )
        if leq(g_next.value, rhs):
            return L_bar, tau, x_next, g_next, trial
        L_bar *= config.nu_upper
    return None


def _no_inertia(state):
    """The inertia rule without inertia: y = x^k, where the minorant
    inequality is an identity and D_h(x, x) = 0 exactly on both kernels."""
    return 0.0, 0.0, state.x_curr, state.g_curr, 0.0, 0


def _fixed_majorant(L, problem):
    """The majorant rule pinned at L: one proximal step from y, no search,
    with tau = 1/L, where the driver starts it."""
    tau = 1.0 / L

    def majorant(state, y, g_y):
        x_next = problem.f_prox_step(problem.kernel.grad(y), g_y.grad, tau)
        return L, tau, x_next, problem.evaluate(x_next), 0

    return majorant


def _norm(d):
    """||d|| for a 1-D float array, as np.linalg.norm computes it (the
    square root of d.d) without its Python-level dispatch."""
    return math.sqrt(float(d.dot(d)))


def _maybe_copy(x, store):
    return np.copy(x) if store else None


def _drive(name, problem, config, x0, callback, inertia, majorant, L_bar=None):
    """The iteration every solver runs: its two rules tell them apart.

    L_bar is the initial majorant (tau starts at 1/L_bar): a solver with a
    fixed constant passes it, the others start from config.L_bar_init,
    which must exceed the weak-convexity barrier -alpha/((1-delta)*sigma)
    of f.  For k = 1, 2, ... the inertia rule fixes the base point,
    inertia(IterateState) -> (L_lower, gamma, y, g_y, dh_curr_y,
    lower_trials), and the majorant rule the step from it,
    majorant(IterateState, y, g_y) -> (L_bar, tau, x_next, g_next,
    upper_trials); either returns None when its ladder runs out, which
    ends the run as a backtrack_failure.  Record k, one row of the run's
    `Trace`, logs both, and the callback gets it as a `TraceRecord` of the
    same values; y and g_y are released before the next search.  g_next,
    the evaluation of g at x_next, becomes the next state's g_curr, and
    g_curr its g_prev; the step x_next - x_curr, formed once, becomes its
    delta, which serves the stop test (max |delta_i| < stop_tol, skipped
    at stop_tol = 0, where it cannot hold), the step norm and, negated,
    D_h(x^{k-1}, x^k) of the next record and of the final one (see
    `Kernel.bregman`); the first state's L_lower_prev is 0.
    An ArithmeticError inside a rule (a stalled prox solve) or a
    non-finite Psi(x_next) ends the run as non_finite.  A stopped run keeps
    its accepted steps, and `reason` names the failure and its iteration:
    only the setup checks raise.
    """
    x0 = np.array(x0, dtype=float).reshape(-1)
    if x0.shape != (problem.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, problem dim is {problem.dim}")
    require_finite(x0, "x0")
    kernel = problem.kernel
    if L_bar is None:
        L_bar = config.L_bar_init
        bound = -problem.alpha / ((1.0 - config.delta) * kernel.sigma)
        if L_bar <= bound:
            raise ValueError(
                f"L_bar_init={L_bar} must exceed "
                f"-alpha/((1-delta)*sigma)={bound} for this problem"
            )
    store = config.store_iterates

    x_prev = x_curr = x0  # a private copy, never written to
    delta = np.zeros_like(x0)  # x_curr - x_prev, exact as x0 is finite
    g_prev = g_curr = problem.evaluate(x_curr)
    psi_curr = problem.f_value(x_curr) + g_curr.value
    require_finite(psi_curr, "objective at x0")
    tau = 1.0 / L_bar
    L_lower = 0.0

    trace = Trace()
    trace.append(0, psi_curr, tau, 0.0, L_bar, 0.0, 0.0, 0.0, 0.0, 0, 0, 0,
                 _maybe_copy(x0, store))
    termination, reason = TERM_MAX_ITERS, ""

    for k in range(1, config.max_iters + 1):
        tick = time.perf_counter_ns()
        dh_prev_curr = kernel.bregman(x_prev, x_curr, delta)
        state = IterateState(
            k=k, x_curr=x_curr, delta=delta, g_prev=g_prev, g_curr=g_curr,
            dh_prev_curr=dh_prev_curr, tau_prev=tau, L_bar_prev=L_bar,
            L_lower_prev=L_lower,
        )
        try:
            lower = inertia(state)
            upper = lower and majorant(state, lower[2], lower[3])
            if upper is None:
                termination = TERM_BACKTRACK_FAILURE
                ladder = "minorant" if lower is None else "majorant"
                reason = f"{ladder} ladder ran out at iteration {k}"
                break
            psi_next = problem.f_value(upper[2]) + upper[3].value
            if not math.isfinite(psi_next):
                raise FloatingPointError("objective became non-finite")
        except ArithmeticError as exc:
            termination, reason = TERM_NON_FINITE, f"{exc} at iteration {k}"
            break
        L_lower, gamma, y, g_y, dh_curr_y, lower_trials = lower
        L_bar, tau, x_next, g_next, upper_trials = upper
        record = (
            k, psi_curr, tau, gamma, L_bar, L_lower, dh_prev_curr, dh_curr_y,
            _norm(delta), lower_trials, upper_trials,
            time.perf_counter_ns() - tick,
            _maybe_copy(x_curr, store), _maybe_copy(y, store))
        trace.append(*record)
        # y and its evaluation are dead: release them before the next search
        del lower, upper, y, g_y
        if callback is not None:
            callback(TraceRecord(*record))

        delta = x_next - x_curr
        x_prev, x_curr = x_curr, x_next
        g_prev, g_curr, psi_curr = g_curr, g_next, psi_next
        if config.stop_tol and abs(delta).max() < config.stop_tol:
            termination = TERM_STEP_TOL
            break

    iterations = len(trace) - 1
    trace.append(iterations + 1, psi_curr, tau, 0.0, L_bar, 0.0,
                 kernel.bregman(x_prev, x_curr, delta), 0.0, _norm(delta),
                 0, 0, 0, _maybe_copy(x_curr, store))
    return SolverResult(
        solver=name, problem=problem.name, x=x_curr, termination=termination,
        iterations=iterations, records=trace, config=config, reason=reason,
    )


def _cocain(name, problem, config, x0, callback, gamma_rule):
    """Searched inertia (none when gamma_cap = 0) and the backtracked
    majorant, which freezes from config.freeze_after on."""
    if config.gamma_cap == 0.0:
        inertia = _no_inertia
    else:
        def inertia(state):
            return lower_backtrack(state, config, problem, gamma_rule)

    def majorant(state, y, g_y):
        return upper_backtrack(state, y, g_y, config, problem)

    return _drive(name, problem, config, x0, callback, inertia, majorant)


def cocain_bpg(problem, config, x0, *, callback=None):
    """Inertial Bregman proximal gradient with double backtracking.

    Per iteration the minorant constant, extrapolation, and base point are
    fixed first (lower_backtrack), then the majorant constant and step size
    (upper_backtrack).  The accepted parameters guarantee per-iteration
    descent of the Lyapunov function
    tau_{k-1} (Psi(x^k) - v) + delta * D_h(x^{k-1}, x^k), which
    `diagnostics.check_lyapunov_descent` re-verifies from the trace.
    """
    return _cocain("cocain", problem, config, x0, callback, find_gamma)


def cocain_bpg_cfi(problem, config, x0, *, callback=None):
    """Variant with closed-form inertia (quartic kernel only).

    Identical to cocain_bpg except that the extrapolation factor for each
    trial minorant constant comes from `find_gamma_cfi` instead of a search.
    """
    if not isinstance(problem.kernel, QuarticKernel):
        raise ValueError("closed-form inertia requires the quartic kernel")
    return _cocain("cfi", problem, config, x0, callback, find_gamma_cfi)


def bpg_wb(problem, config, x0, *, callback=None):
    """Bregman proximal gradient with majorant backtracking, no inertia.

    Exactly cocain_bpg with gamma_cap = 0: the base point is always x^k and
    the minorant never enters, so traces coincide bitwise with a gamma_cap=0
    run of the main solver.
    """
    config = replace(config, gamma_cap=0.0)
    return _cocain("bpg_wb", problem, config, x0, callback, find_gamma)


def cocain_bpg_no_backtracking(problem, config, x0, *, callback=None):
    """Inertial variant with global constants and no function evaluations.

    Uses L = max(-alpha/((1-delta)*sigma), smad_L) for both constants and the
    fixed step tau = 1/L; the inertia condition then reads
    (delta - eps) * D_h(x^{k-1}, x^k) >= 2 * D_h(x^k, y^k), solved by
    halving from its Euclidean closed form (`_halve_gamma`).  Lyapunov descent
    is still certified per iteration.  L_bar_init is never read, so it is
    not checked against the barrier.
    """
    L = max(
        -problem.alpha / ((1.0 - config.delta) * problem.kernel.sigma),
        problem.smad_L,
    )
    if L <= 0.0:
        raise ValueError("no-backtracking variant needs a positive constant")

    def inertia(state):
        # 1 + L * tau with tau = 1/L, written as the exact 2
        gamma, y, dh_curr_y = _halve_gamma(state, 2.0, config, problem)
        return L, gamma, y, problem.evaluate(y), dh_curr_y, 0

    return _drive("cocain_nobt", problem, config, x0, callback, inertia,
                  _fixed_majorant(L, problem), L)


def bpg_fixed(problem, config, x0, *, callback=None):
    """Plain Bregman proximal gradient with constant step 1/L.

    L is config.L, or problem.smad_L when that is None.  Psi is
    non-increasing along the iterates provided L >= problem.smad_L; smaller
    L voids that guarantee.  No backtracking, no inertia, and no barrier
    check on L_bar_init, which this solver never uses.
    """
    L = problem.smad_L if config.L is None else config.L
    if L <= 0.0:
        raise ValueError(f"L must be > 0, got {L}")
    return _drive("bpg_fixed", problem, config, x0, callback, _no_inertia,
                  _fixed_majorant(L, problem), L)


def ipiano(problem, config, x0, *, callback=None):
    """Inertial proximal algorithm with fixed extrapolation (Euclidean only).

    The gradient is evaluated at x^k while the proximal step is centered at
    the extrapolated point y^k = x^k + beta (x^k - x^{k-1}), beta =
    config.beta; for f = 0 this is the classical heavy-ball update.  Only
    the majorant constant adapts, against the descent inequality between
    x^k and x^{k+1}, and freezes from config.freeze_after on as in
    cocain_bpg.  beta = 0 reproduces bpg_wb bitwise.
    """
    if not isinstance(problem.kernel, EuclideanKernel):
        raise ValueError("ipiano is defined for the Euclidean kernel only")
    beta = config.beta

    def inertia(state):
        # g is never evaluated at y: the majorant linearizes at x^k
        y = state.x_curr + beta * state.delta
        return 0.0, beta, y, None, problem.kernel.bregman(state.x_curr, y), 0

    def majorant(state, y, g_y):
        return upper_backtrack(state, state.x_curr, state.g_curr, config,
                               problem, centre=y)

    return _drive("ipiano", problem, config, x0, callback, inertia, majorant)
