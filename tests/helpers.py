"""Builders and comparison helpers shared across test modules."""

import numpy as np

from cocain.kernels import EuclideanKernel
from cocain.problems import CompositeProblem
from cocain.prox import TIE_TOL
from cocain.solvers import TRACE_FIELDS


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
