"""Builders and comparison helpers shared across test modules."""

import dataclasses
import struct

import numpy as np

from cocain import diagnostics as diag
from cocain.kernels import EuclideanKernel
from cocain.problems import CompositeProblem
from cocain.prox import TIE_TOL
from cocain.solvers import TRACE_FIELDS
from cocain.tol import CONDITION_SLACK, violation


def quadratic_problem(diag, name="quadratic"):
    """f = 0, g(x) = 0.5 * x^T diag(d) x on the Euclidean kernel.

    The tightest smooth-adaptability constant is max(d), and every
    backtracking inequality is exact for quadratics, which makes escalation
    counts and accepted constants predictable.
    """
    d = np.atleast_1d(np.asarray(diag, dtype=float))
    return CompositeProblem(
        name=name,
        dim=d.size,
        kernel=EuclideanKernel(),
        f_value=lambda x: 0.0,
        f_prox_step=lambda gh, gg, tau: gh - tau * gg,
        g_value=lambda x: 0.5 * float(np.dot(x, d * x)),
        g_grad=lambda x: d * x,
        smad_L=float(np.max(d)),
        sampling_box=(-5.0, 5.0),
    )


def prox_log1abs_reference(y, tau, center=0.0):
    """Three-candidate prox of tau * log(1 + |x - center|) at y.

    The plain form of `cocain.prox.prox_log1abs_vec`: the kink 0 and both
    clamped roots of the one-sided stationarity quadratic compete, and ties
    within TIE_TOL go to the candidate of smaller magnitude.  The package
    drops the smaller root, which is never a minimizer; this form keeps it
    so the tests can show that dropping it changes no bit of the result.
    """
    z = np.asarray(y, dtype=float) - center
    az = np.abs(z)
    disc = (az - 1.0) ** 2 - 4.0 * (tau - az)
    root = np.sqrt(np.maximum(disc, 0.0))
    c_lo = np.maximum(0.5 * (az - 1.0 - root), 0.0)
    c_hi = np.maximum(0.5 * (az - 1.0 + root), 0.0)
    cands = np.stack([np.zeros_like(az), c_lo, c_hi])  # ascending magnitude
    obj = np.log1p(cands) + (cands - az) ** 2 / (2.0 * tau)
    eligible = obj <= np.min(obj, axis=0) + TIE_TOL
    picked = np.where(eligible, cands, np.inf).min(axis=0)
    picked = np.where(disc < 0.0, 0.0, picked)
    return center + np.sign(z) * picked


def prox_log1abs_full_pass(y, tau, center=0.0):
    """`cocain.prox.prox_log1abs_vec` as it ran before its candidate filter:
    every pass over every entry.  The package now computes only the entries
    that fail |z| <= min(tau, 1), each with the same operations in the same
    order; this is the reference it is held to, bit for bit."""
    z = np.subtract(y, center, dtype=float)
    shape = z.shape
    z = z.reshape(-1)
    az = np.abs(z)
    disc = np.subtract(az, 1.0)
    disc *= disc
    c = np.subtract(tau, az)
    c *= 4.0
    disc -= c
    settled = disc < 0.0
    np.maximum(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)
    np.subtract(az, 1.0, out=c)
    c += disc
    c *= 0.5
    settled |= c <= 0.0
    live = np.flatnonzero(~settled)
    c_hi = c[live]
    az_live = az[live]
    obj = np.log1p(c_hi, out=disc[:live.size])
    u = np.subtract(c_hi, az_live, out=az[:live.size])
    u *= u
    u /= 2.0 * tau
    obj += u
    obj += TIE_TOL
    az_live *= az_live
    az_live /= 2.0 * tau
    c_hi[az_live <= obj] = 0.0
    c.fill(0.0)
    c[live] = c_hi
    np.copysign(c, z, out=c)
    c = c.reshape(shape)
    c += center
    return c


def assert_traces_identical(a, b):
    """Bit-identity of two traces on everything except wall time."""
    assert len(a) == len(b), f"trace lengths differ: {len(a)} vs {len(b)}"
    for ra, rb in zip(a, b):
        for name in TRACE_FIELDS:
            va, vb = getattr(ra, name), getattr(rb, name)
            assert va == vb, f"record {ra.k}: {name} {va!r} != {vb!r}"
        for name in ("x", "y"):
            va, vb = getattr(ra, name), getattr(rb, name)
            assert (va is None) == (vb is None), f"record {ra.k}: {name} storage"
            if va is not None:
                assert np.array_equal(va, vb), f"record {ra.k}: {name} differs"


class _ImageEvaluation:
    """g of phase retrieval at one point from its image r = Ax, with the
    per-point expressions: g = (1/4)<t, t> and <grad g(y), x - y> =
    <t_y * r_y, r_x - r_y>, with t = r * r - b^2; an extrapolated point's
    image is r + gamma (r - r_prev)."""

    def __init__(self, r, b2):
        self.r, self.t, self.b2 = r, r * r - b2, b2

    @property
    def value(self):
        return 0.25 * float(np.dot(self.t, self.t))

    def extrapolated(self, prev, gamma, y):
        return _ImageEvaluation(self.r + gamma * (self.r - prev.r), self.b2)

    def slope_to(self, base):
        return float(np.dot(self.t * self.r, base.r - self.r))


def _reference_rows(problem, xs, ys):
    """The evaluations of a block's new x's and of its kept y's: one
    `problem.evaluate` per point, or on phase retrieval (`g_eval_rows`
    set) the images of the x's from one product and of the y's from
    another."""
    if problem.g_eval_rows is None:
        return [problem.evaluate(x) for x in xs], [problem.evaluate(y)
                                                   for y in ys]
    data = problem.meta["data"]
    b2 = data.b * data.b

    def images(points):
        if not points:
            return []
        return [_ImageEvaluation(r, b2) for r in np.array(points) @ data.A.T]

    return images(xs), images(ys)


def _reformed(rec, x_prev):
    """Whether the trace re-forms rec.y: it is not rec.x itself, and
    x + gamma (x - x_prev) gives every bit of it."""
    formed = rec.x + rec.gamma * (rec.x - x_prev)
    return rec.y is not rec.x and formed.tobytes() == rec.y.tobytes()


def reference_acceptance_conditions(records, problem, params):
    """`diag.check_acceptance_conditions` as a loop over the iterations:
    one kernel call, norm and dot product per distance, step and linear
    term of each iteration, and g from per-point evaluations of each
    block's x's and kept y's, with each re-formed y's extrapolated from
    those of its two x's.  The audit stacks each block's rows instead;
    this form is the reference its reports are held to, bit for bit."""
    tau, L_lower, L_bar, *logged = diag._columns(
        records, "tau", "L_lower", "L_bar", "dh_prev_curr", "dh_curr_y",
        "step_norm")
    diag._require_iterates(records, "check_acceptance_conditions")
    kernel = problem.kernel
    rows = []
    carried = []  # the evaluations at the first two x's of the next block
    block = diag._audit_block_length(records[0].x)
    for start in range(1, len(records) - 1, block):
        stop = min(start + block, len(records) - 1)
        reformed = [_reformed(records[k], records[k - 1].x)
                    for k in range(start, stop)]
        g_x, kept = _reference_rows(
            problem,
            [rec.x for rec in records[start - 1 + len(carried):stop + 1]],
            [records[k].y for k, new in zip(range(start, stop), reformed)
             if not new])
        # g_x[i] = g(x^{start-1+i}), i = 0..stop-start+1
        g_x = carried + g_x
        carried = g_x[-2:]
        # g_y[i] = g(y^{start+i})
        kept = iter(kept)
        g_y = [g_x[i + 1].extrapolated(g_x[i], records[k].gamma, records[k].y)
               if new else next(kept)
               for i, (k, new) in enumerate(zip(range(start, stop), reformed))]
        g_x = g_x[1:]
        for i, k in enumerate(range(start, stop)):
            rec = records[k]
            x_prev = records[k - 1].x
            x_curr, y = rec.x, rec.y
            x_next = records[k + 1].x
            y_expected = x_curr + rec.gamma * (x_curr - x_prev)
            rows.append((
                kernel.bregman(x_prev, x_curr),
                kernel.bregman(x_curr, y),
                float(np.linalg.norm(x_curr - x_prev)),
                float(np.max(np.abs(y - y_expected))),
                g_y[i].value,
                g_y[i].slope_to(g_x[i]),
                g_x[i].value,
                g_y[i].slope_to(g_x[i + 1]),
                kernel.bregman(x_next, y),
                g_x[i + 1].value,
            ))
    n = len(rows)
    fresh = np.array(rows, dtype=float).reshape(n, 10).T
    (dh_prev_curr, dh_curr_y, _, _, g_y, lin_curr, g_curr, lin_next,
     dh_next_y, g_next) = fresh
    L_lower, L_bar = L_lower[1:-1], L_bar[1:-1]
    worst = {
        name: diag._worst(v, 1) for name, v in (
            ("inertia", violation(
                (1.0 + L_lower * tau[:-2]) * dh_curr_y,
                (params.delta - params.epsilon) * dh_prev_curr)),
            ("minorant", violation(g_y + lin_curr - L_lower * dh_curr_y,
                                        g_curr)),
            ("majorant", violation(g_next,
                                        g_y + lin_next + L_bar * dh_next_y)),
        )
    }
    logged = np.array([col[1:-1] for col in logged] + [np.zeros(n)])
    dev = np.maximum(violation(logged, fresh[:4]),
                     violation(fresh[:4], logged))
    cross, cross_k = diag._worst(dev.max(axis=0), 1)
    worst_all, worst_k = max(worst.values(), key=lambda pair: pair[0])
    return diag.CheckReport(
        name="acceptance_conditions",
        passed=(worst_all <= CONDITION_SLACK
                and cross <= diag.CROSS_CHECK_TOL),
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


def report_bits(report):
    """A `CheckReport` as a dict in which every float is its bit pattern,
    so that -0.0, 0.0 and two NaNs compare by their bits, and every array
    its dtype, shape and bytes."""
    def bits(value):
        if isinstance(value, dict):
            return {key: bits(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, float):
            return struct.unpack("<q", struct.pack("<d", value))[0]
        return value

    return bits(dataclasses.asdict(report))
