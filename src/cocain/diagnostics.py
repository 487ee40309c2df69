"""Descent certificates recomputed from solver traces.

Everything here treats a finished run as evidence to be audited, not
trusted: the checks recompute inequalities from logged scalars (and stored
iterates where available) instead of reading the solver's own accept/reject
decisions.  The central object is the Lyapunov function

    Phi^k = tau_{k-1} * (Psi(x^k) - v) + delta * D_h(x^{k-1}, x^k),

with v a lower bound on inf Psi: a valid run decreases Phi^k by at least
epsilon * D_h(x^{k-1}, x^k) each iteration, which telescopes into the
prefix bound min_{1<=k<=n} D_h(x^{k-1}, x^k) <= Phi^1 / (epsilon * n).

Checks that need per-trial information (the backtracking conditions and
the closed-form inertia bound) require a trace recorded with
store_iterates=True.

Trace layout expected throughout: record 0 is the initial state, records
1..N-1 are iterations, record N describes the final iterate; records[i].k
== i.  Traces from this package's solvers always have this shape.  Every
check reads a `Trace` by columns.

A NaN or an infinity in a value a check reads fails the check, with an
infinite worst violation at the first record where the value enters.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .tol import CONDITION_SLACK, LYAPUNOV_SLACK, violation

# Iterations per block of the audits of stored points: as many as keep a
# stack of one point per iteration within AUDIT_BLOCK_BYTES, since each
# block costs a fixed Python overhead; at least AUDIT_BLOCK, which bounds
# large points' stacks, and at most AUDIT_BLOCK_MAX, which holds phase
# retrieval's image buffers (m entries a row) to 4x a 16-iteration block's.
AUDIT_BLOCK = 16
AUDIT_BLOCK_MAX = 64
AUDIT_BLOCK_BYTES = 16384

# Fixed tolerances of the checks below, each named in its docstring.
PREFIX_SLACK = 1e-12
CROSS_CHECK_TOL = 1e-10
CFI_SLACK = 1e-10


@dataclass(frozen=True)
class LyapunovParams:
    """Constants entering the Lyapunov function and its descent margin.

    v_lower must be a valid lower bound on inf Psi or the telescoped prefix
    bound is meaningless.
    """

    delta: float
    epsilon: float
    v_lower: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < self.delta < 1.0:
            raise ValueError(
                f"need 1 > delta > epsilon > 0, got delta={self.delta}, "
                f"epsilon={self.epsilon}"
            )
        if not math.isfinite(self.v_lower):
            raise ValueError(f"v_lower must be finite, got {self.v_lower}")

    @classmethod
    def from_run(cls, result, problem):
        """Read delta/epsilon from the run's config and v from the problem."""
        return cls(
            delta=result.config.delta,
            epsilon=result.config.epsilon,
            v_lower=problem.psi_lower_bound,
        )


@dataclass
class CheckReport:
    """Outcome of one certificate check.

    worst_violation is the largest normalized positive excess over all
    checked inequalities (0.0 when every one holds, inf when a checked
    value is not finite), worst_index the record index where it first
    occurred (-1 if none).  details carries check-specific numbers.
    """

    name: str
    passed: bool
    n_checked: int
    worst_violation: float
    worst_index: int
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return bool(self.passed)


def _columns(records, *names):
    """Check the trace layout (records[i].k == i) and read each named
    field into a float array."""
    ks = records.column("k")
    if not ks.size:
        raise ValueError("empty trace")
    skipped = np.flatnonzero(ks != np.arange(ks.size))
    if skipped.size:
        i = int(skipped[0])
        raise ValueError(
            f"trace records must be contiguous from k=0; record {i} "
            f"has k={int(ks[i])}"
        )
    return [records.column(name) for name in names]


def _worst(v, offset):
    """(largest entry of v, its first index + offset), a NaN counting as
    +inf so that a non-finite value never passes; (0.0, -1) when no entry
    is positive."""
    v = np.where(np.isnan(v), np.inf, v)
    i = int(np.argmax(v)) if v.size else -1
    if i < 0 or not v[i] > 0.0:
        return 0.0, -1
    return float(v[i]), i + offset


def _report(name, v, slack, **details):
    """Report on v[i], the violation at record i + 1: passed when none
    exceeds slack."""
    worst, index = _worst(v, 1)
    return CheckReport(name, worst <= slack, v.size, worst, index, details)


def _squared(v):
    # Python's float power (the C library's pow), not numpy's square: the
    # two differ by one ulp on about 0.1% of inputs, and
    # tests/test_reports.py pins the reports bit for bit.
    return np.array([s ** 2 for s in v.tolist()])


def _require_iterates(records, name):
    if any(x is None for x in records.x):
        raise ValueError(
            f"{name} needs stored iterates; rerun with store_iterates=True"
        )


def lyapunov_phi(records, params):
    """Phi^k for k = 1..N as an array (index 0 holds Phi^1).

    Phi^k combines record k's objective and distance with record k-1's step
    size, so the value is well defined for every record after the first.
    """
    return _phi(*_columns(records, "psi", "tau", "dh_prev_curr"), params)


def _phi(psi, tau, dh, params):
    """`lyapunov_phi` from the trace's psi, tau and dh_prev_curr columns."""
    return tau[:-1] * (psi[1:] - params.v_lower) + params.delta * dh[1:]


def check_lyapunov_descent(records, params):
    """Verify Phi^{k+1} <= Phi^k - epsilon * D_h(x^{k-1}, x^k) per step.

    The inequality is allowed a relative slack of LYAPUNOV_SLACK on the
    larger side's magnitude.  details carries the Phi array.
    """
    psi, tau, dh = _columns(records, "psi", "tau", "dh_prev_curr")
    phi = _phi(psi, tau, dh, params)
    v = violation(phi[1:] + params.epsilon * dh[1:len(phi)], phi[:-1])
    return _report("lyapunov_descent", v, LYAPUNOV_SLACK, phi=phi)


def check_prefix_bound(records, params):
    """Verify min_{1<=k<=n} D_h(x^{k-1}, x^k) <= Phi^1/(epsilon*n)
    + PREFIX_SLACK for every prefix length n."""
    psi, tau, dh = _columns(records, "psi", "tau", "dh_prev_curr")
    phi1 = float(_phi(psi, tau, dh, params)[0])
    gaps = dh[1:-1]
    n = np.arange(1, gaps.size + 1)
    excess = np.minimum.accumulate(gaps) - phi1 / (params.epsilon * n)
    return _report("prefix_bound", excess, PREFIX_SLACK, phi1=phi1,
                   min_gap=float(gaps.min(initial=math.inf)))


def _audit_block_length(x):
    """Iterations per audit block of points like x (see AUDIT_BLOCK)."""
    fit = AUDIT_BLOCK_BYTES // max(x.nbytes, 1)
    return min(max(fit, AUDIT_BLOCK), AUDIT_BLOCK_MAX)


def _audit_blocks(trace):
    """The iterations 1..N-1 of a trace in blocks of
    `_audit_block_length(trace.x[0])`: for each block of iterations
    start..stop-1, the slice of their rows counted from 0, the lists of the
    stored x^{start-1..stop} and y^{start..stop-1}, and their stacks."""
    block = _audit_block_length(trace.x[0])
    for start in range(1, len(trace) - 1, block):
        stop = min(start + block, len(trace) - 1)
        xs = trace.x[start - 1:stop + 1]
        ys = trace.y[start:stop]
        yield slice(start - 1, stop - 1), xs, ys, np.array(xs), np.array(ys)


def check_acceptance_conditions(records, problem, params):
    """Recompute the three per-iteration inequalities from stored iterates.

    For each iteration k this checks, with the recorded constants and
    distances re-derived from the stored x^{k-1}, x^k, y^k, x^{k+1}:

      inertia    (1 + L_lower * tau_{k-1}) D_h(x^k, y^k)
                     <= (delta - epsilon) D_h(x^{k-1}, x^k)
      minorant   g(x^k) >= g(y^k) + <grad g(y^k), x^k - y^k>
                     - L_lower * D_h(x^k, y^k)
      majorant   g(x^{k+1}) <= g(y^k) + <grad g(y^k), x^{k+1} - y^k>
                     + L_bar * D_h(x^{k+1}, y^k)

    and cross-validates the logged distances, step norms, and extrapolated
    points against the stored arrays at relative tolerance CROSS_CHECK_TOL.
    The conditions are the contract of the double-backtracking solvers;
    traces from other methods may legitimately fail them.

    The records are walked in blocks of 16 iterations, up to 64 for points
    of fewer than 128 coordinates (AUDIT_BLOCK).  A block stacks its
    x^{k-1}..x^{k+1} and its y^k once, as rows, and takes every column of
    its iterations in whole-stack passes: `kernel.bregman` on two stacks
    gives one distance per row, with the bits of the call on each pair.
    g comes from one `problem.evaluate_rows` per block, which evaluates
    each stored point once: a block's last x is carried into the next,
    where it is the first.  Phase retrieval serves it from one image
    product for all of the block's x's and y's, and takes no A^T product.
    So the audit holds one block's stacks at a time, whatever the trace
    length: the stored points and, for phase retrieval, a few buffers of
    their images.
    """
    tau, gamma, L_lower, L_bar, *logged = _columns(
        records, "tau", "gamma", "L_lower", "L_bar", "dh_prev_curr",
        "dh_curr_y", "step_norm")
    _require_iterates(records, "check_acceptance_conditions")
    kernel = problem.kernel
    gamma = gamma[1:-1]
    n = gamma.size
    fresh = np.empty((10, n))
    carry = None  # the previous block's evaluation of its last x
    for rows, xs, ys, X, Y in _audit_blocks(records):
        x_prev, x_curr, x_next = X[:-2], X[1:-1], X[2:]
        step = x_curr - x_prev
        y_expected = x_curr + gamma[rows, None] * step
        g = problem.evaluate_rows(xs[1 if carry is None else 2:], ys, carry)
        carry = g.carry
        fresh[:, rows] = (
            kernel.bregman(x_prev, x_curr),
            kernel.bregman(x_curr, Y),
            np.sqrt(np.vecdot(step, step)),  # the bits of np.linalg.norm
            np.abs(Y - y_expected).max(axis=1),
            g.g_y,
            g.lin_curr,
            g.g_x[:-1],
            g.lin_next,
            kernel.bregman(x_next, Y),
            g.g_x[1:],
        )
    (dh_prev_curr, dh_curr_y, _, _, g_y, lin_curr, g_curr, lin_next,
     dh_next_y, g_next) = fresh
    L_lower, L_bar = L_lower[1:-1], L_bar[1:-1]
    worst = {
        name: _worst(v, 1) for name, v in (
            ("inertia", violation(
                (1.0 + L_lower * tau[:-2]) * dh_curr_y,
                (params.delta - params.epsilon) * dh_prev_curr)),
            ("minorant", violation(g_y + lin_curr - L_lower * dh_curr_y,
                                   g_curr)),
            ("majorant", violation(g_next,
                                   g_y + lin_next + L_bar * dh_next_y)),
        )
    }
    # logged distances and step norm against fresh ones, and the stored
    # base point against the extrapolation (logged as an exact 0 deviation)
    logged = np.array([col[1:-1] for col in logged] + [np.zeros(n)])
    dev = np.maximum(violation(logged, fresh[:4]), violation(fresh[:4], logged))
    cross, cross_k = _worst(dev.max(axis=0), 1)
    worst_all, worst_k = max(worst.values(), key=lambda pair: pair[0])
    return CheckReport(
        name="acceptance_conditions",
        passed=worst_all <= CONDITION_SLACK and cross <= CROSS_CHECK_TOL,
        n_checked=n,
        worst_violation=worst_all,
        worst_index=worst_k,
        details={
            **{name: value for name, (value, _) in worst.items()},
            "per_condition_index": {name: k for name, (_, k) in worst.items()},
            "cross_validation": cross,
            "cross_validation_index": cross_k,
        },
    )


def check_function_descent(records, problem):
    """Verify the per-iteration objective inequality

        Psi(x^k) >= Psi(x^{k+1}) + (1/tau_k) D_h(x^k, x^{k+1})
                    + (alpha/2) ||x^{k+1} - x^k||^2
                    - (1/tau_k + L_lower_k) D_h(x^k, y^k)

    which the accepted constants imply for weakly convex f.  Works from
    logged scalars only.
    """
    psi, tau, L_lower, dh, dh_y, step = _columns(
        records, "psi", "tau", "L_lower", "dh_prev_curr", "dh_curr_y",
        "step_norm")
    inv_tau = 1.0 / tau[1:-1]
    rhs = (
        psi[2:]
        + inv_tau * dh[2:]
        + 0.5 * problem.alpha * _squared(step[2:])
        - (inv_tau + L_lower[1:-1]) * dh_y[1:-1]
    )
    return _report("function_descent", violation(rhs, psi[1:-1]),
                   LYAPUNOV_SLACK)


def check_cfi_bound(records, problem):
    """Verify the distance estimate behind the closed-form inertia rule:

        D_h(x^k, y^k) <= gamma_k^2 ||Delta_k||^2 ((3/2)||x^k||^2 + 7/4)
                         + CFI_SLACK

    with Delta_k = x^k - x^{k-1}, from stored iterates.
    """
    (gamma,) = _columns(records, "gamma")
    _require_iterates(records, "check_cfi_bound")
    kernel = problem.kernel
    gamma2 = _squared(gamma[1:-1])
    excess = np.empty(gamma2.size)
    for rows, _, _, X, Y in _audit_blocks(records):
        x_curr = X[1:-1]
        step = x_curr - X[:-2]
        rhs = (gamma2[rows] * np.vecdot(step, step)
               * (1.5 * np.vecdot(x_curr, x_curr) + 1.75) + CFI_SLACK)
        excess[rows] = kernel.bregman(x_curr, Y) - rhs
    return _report("cfi_bound", excess, 0.0)


# The checks each solver's trace must pass, by `cli.SOLVERS` name.  The
# global constants of cocain_nobt meet its per-iteration conditions with
# equality on some problems, past the audit's slack once rounded; ipiano's
# own descent condition (Ochs et al., 2014) is not among these checks.
PROMISES = {
    "cocain": ("lyapunov_descent", "prefix_bound", "acceptance_conditions"),
    "cfi": ("lyapunov_descent", "prefix_bound", "acceptance_conditions",
            "cfi_bound"),
    "cocain_nobt": ("lyapunov_descent", "prefix_bound"),
    "bpg_wb": ("lyapunov_descent", "prefix_bound", "acceptance_conditions",
               "function_descent"),
    "bpg_fixed": ("function_descent",),
    "ipiano": (),
}

# Each check a PROMISES row can name, by report name, as a call on
# (records, problem, params).
_CHECKS = {
    "lyapunov_descent": lambda records, problem, params:
        check_lyapunov_descent(records, params),
    "prefix_bound": lambda records, problem, params:
        check_prefix_bound(records, params),
    "acceptance_conditions": check_acceptance_conditions,
    "function_descent": lambda records, problem, params:
        check_function_descent(records, problem),
    "cfi_bound": lambda records, problem, params:
        check_cfi_bound(records, problem),
}

# The checks that read stored iterates, run only on a run that kept them.
_NEEDS_ITERATES = frozenset({"acceptance_conditions", "cfi_bound"})


def certify(result, problem):
    """The reports of the checks result.solver promises (PROMISES), in the
    table's order, with the params of `LyapunovParams.from_run`; the
    checks of _NEEDS_ITERATES only when the run stored its iterates."""
    params = LyapunovParams.from_run(result, problem)
    stored = result.records.x[0] is not None
    return [_CHECKS[name](result.records, problem, params)
            for name in PROMISES[result.solver]
            if stored or name not in _NEEDS_ITERATES]
