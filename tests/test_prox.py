"""Scalar prox solvers and the quartic-kernel proximal steps.

Frozen roots come from a 200-step bisection oracle run outside the package;
frozen prox values from brute-force grid search (step 1e-5, then first-order
refinement).  Each frozen constant is re-verified here through a residual or
optimality condition that does not depend on the implementation under test.
"""

import math

import numpy as np
import pytest

from cocain.prox import (
    bpg_step_l1_quartic,
    bpg_step_sql2_quartic,
    prox_log1abs,
    prox_log1abs_vec,
    soft_threshold,
    solve_monotone_cubic,
)
from helpers import prox_log1abs_full_pass, prox_log1abs_reference

# bisection on t^3 + t - 1 over [0, 1]
ROOT_T3_T_M1 = 0.6823278038280194
# bisection on 4 t^3 + 3 t + 1 over [-1, 0]
ROOT_4T3_3T_1 = -0.29803581899166076
# grid argmin of log(1+|x|) + (x-3)^2 for x in [-1, 5]; closed form
# (2 + sqrt(14)) / 2 agrees to 1e-9
PROX_Y3_TAU05 = 2.8708286933869704


# ---------------------------------------------------------------------------
# monotone cubic


def test_cubic_degenerate_linear_case():
    assert solve_monotone_cubic(0.0, 1.0, -1.0) == 1.0


def test_cubic_frozen_roots():
    assert solve_monotone_cubic(1.0, 1.0, -1.0) == pytest.approx(
        ROOT_T3_T_M1, abs=1e-12
    )
    assert solve_monotone_cubic(4.0, 3.0, 1.0) == pytest.approx(
        ROOT_4T3_3T_1, abs=1e-12
    )
    # odd symmetry partner of the first root
    assert solve_monotone_cubic(1.0, 1.0, 1.0) == pytest.approx(
        -ROOT_T3_T_M1, abs=1e-12
    )


def test_cubic_residuals_random():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        s = rng.uniform(0.0, 10.0)
        lin = rng.uniform(1e-3, 5.0)
        const = rng.uniform(-5.0, 5.0)
        t = solve_monotone_cubic(s, lin, const)
        residual = abs(s * t**3 + lin * t + const)
        assert residual < 1e-12 * max(1.0, abs(const))


def test_cubic_step_family_in_unit_interval():
    # with lin = 1, const = -1 the root is the step-scaling factor and must
    # stay in (0, 1] for any s >= 0
    rng = np.random.default_rng(7)
    for s in np.concatenate(([0.0], rng.uniform(0.0, 100.0, 200))):
        t = solve_monotone_cubic(float(s), 1.0, -1.0)
        assert 0.0 < t <= 1.0


def test_cubic_contract_violations():
    with pytest.raises(ValueError):
        solve_monotone_cubic(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_monotone_cubic(1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# soft threshold


def test_soft_threshold_spot():
    np.testing.assert_array_equal(
        soft_threshold(np.array([3.0, -1.0]), 1.0), np.array([2.0, 0.0])
    )
    np.testing.assert_array_equal(
        soft_threshold(np.array([0.5, -2.5]), 1.5), np.array([0.0, -1.0])
    )


def test_soft_threshold_zero_is_identity():
    y = np.array([1.5, -0.3, 0.0, 7.0])
    np.testing.assert_array_equal(soft_threshold(y, 0.0), y)


def test_soft_threshold_composition_law():
    rng = np.random.default_rng(31)
    y = rng.uniform(-5.0, 5.0, 50)
    a, b = 0.7, 1.1
    np.testing.assert_allclose(
        soft_threshold(soft_threshold(y, a), b),
        soft_threshold(y, a + b),
        atol=1e-15,
    )


def test_soft_threshold_monotone_in_theta():
    rng = np.random.default_rng(33)
    y = rng.uniform(-5.0, 5.0, 100)
    thetas = np.sort(rng.uniform(0.0, 3.0, 10))
    prev = np.abs(soft_threshold(y, float(thetas[0])))
    for theta in thetas[1:]:
        cur = np.abs(soft_threshold(y, float(theta)))
        assert np.all(cur <= prev + 1e-15)
        prev = cur


# ---------------------------------------------------------------------------
# prox of log(1 + |x - center|)


def _log1abs_objective(x, y, tau, center):
    return np.log1p(np.abs(x - center)) + (x - y) ** 2 / (2.0 * tau)


def test_prox_log1abs_fixed_point():
    for y, tau in [(0.0, 1.0), (2.0, 0.3), (-1.5, 4.0)]:
        assert prox_log1abs(y, tau, center=y) == y


def test_prox_log1abs_frozen_value():
    got = prox_log1abs(3.0, 0.5)
    assert got == pytest.approx(PROX_Y3_TAU05, abs=1e-9)
    # first-order optimality at the returned interior point
    assert 1.0 / (1.0 + got) + (got - 3.0) / 0.5 == pytest.approx(0.0, abs=1e-9)


def test_prox_log1abs_negative_discriminant_collapses_to_center():
    # (|y|-1)^2 - 4 (tau - |y|) = -6.56 < 0
    assert prox_log1abs(0.2, 2.0) == 0.0
    assert prox_log1abs(1.2, 2.0, center=1.0) == 1.0


def test_prox_log1abs_grid_equivalence():
    rng = np.random.default_rng(47)
    for _ in range(200):
        y = rng.uniform(-5.0, 5.0)
        tau = rng.uniform(1e-3, 3.0)
        center = rng.uniform(-2.0, 2.0)
        got = prox_log1abs(y, tau, center)
        span = abs(y - center) + 2.0
        grid = np.arange(center - span, center + span, 1e-5)
        best = float(np.min(_log1abs_objective(grid, y, tau, center)))
        assert _log1abs_objective(got, y, tau, center) <= best + 1e-6


def test_prox_log1abs_tau_contract():
    with pytest.raises(ValueError):
        prox_log1abs(1.0, 0.0)


def test_prox_log1abs_vec_matches_scalar():
    rng = np.random.default_rng(53)
    y = rng.uniform(-5.0, 5.0, 64)
    centers = rng.uniform(-2.0, 2.0, 64)
    tau = 0.8
    vec = prox_log1abs_vec(y, tau, center=centers)
    scalar = np.array([
        prox_log1abs(float(yi), tau, float(ci)) for yi, ci in zip(y, centers)
    ])
    np.testing.assert_array_equal(vec, scalar)


def test_prox_log1abs_vec_scalar_center():
    y = np.array([3.0, -3.0])
    out = prox_log1abs_vec(y, 0.5)
    assert out[0] == pytest.approx(PROX_Y3_TAU05, abs=1e-9)
    assert out[1] == pytest.approx(-PROX_Y3_TAU05, abs=1e-9)


LOG_PROX_TAUS = [1e-4, 1.0 / 150.0, 0.1, 1.0, 10.0, 100.0]


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    mismatch = got.view(np.int64) != want.view(np.int64)
    assert not mismatch.any(), (
        f"{int(mismatch.sum())} entries differ, first at "
        f"{int(np.argmax(mismatch))}"
    )


@pytest.mark.parametrize("centre_kind", ["scalar", "array"])
@pytest.mark.parametrize("tau", LOG_PROX_TAUS)
def test_prox_log1abs_vec_matches_three_candidate_reference(tau, centre_kind):
    # |z| log-uniform with random signs, half over [1e-4, 1e5]: both roots
    # positive (1 < |z| < tau), the larger root only, and the kink alone;
    # half over [1e-4, 1e300], which adds |z| > ~1e154, where the
    # discriminant overflows to inf; plus z = +-0.0
    seed = LOG_PROX_TAUS.index(tau) + (10 if centre_kind == "array" else 0)
    rng = np.random.default_rng(seed)
    n = 1_000_000
    z = np.exp(np.concatenate([
        rng.uniform(math.log(1e-4), math.log(1e5), n // 2),
        rng.uniform(math.log(1e-4), math.log(1e300), n - n // 2)]))
    z *= rng.choice(np.array([-1.0, 1.0]), n)
    center = rng.uniform(-1.0, 2.0, n) if centre_kind == "array" else 0.0
    y = center + z
    # y - center is +0.0 or -0.0 exactly where y is +-0.0 and center is 0.0
    zeros = rng.choice(n, size=1000, replace=False)
    y[zeros] = np.copysign(0.0, rng.choice(np.array([-1.0, 1.0]), zeros.size))
    if centre_kind == "array":
        center[zeros] = 0.0
    y_before, center_before = y.copy(), np.copy(center)
    with np.errstate(over="ignore", invalid="ignore"):
        got = prox_log1abs_vec(y, tau, center=center)
        want = prox_log1abs_reference(y, tau, center=center)
    _assert_bitwise_equal(got, want)
    _assert_bitwise_equal(y, y_before)
    _assert_bitwise_equal(np.asarray(center, dtype=float), center_before)


@pytest.mark.parametrize("tau", LOG_PROX_TAUS)
def test_prox_log1abs_vec_non_finite_inputs(tau):
    # |z| = inf makes c_hi = inf and phi(c_hi) NaN, so the kink test fails
    # and the result is +-inf; a NaN input or centre comes out NaN
    y = np.array([np.inf, -np.inf, np.nan, 3.0])
    with np.errstate(invalid="ignore"):
        got = prox_log1abs_vec(y, tau, center=np.array([1.0, 1.0, 1.0, np.nan]))
    assert got[0] == np.inf and got[1] == -np.inf
    assert np.isnan(got[2]) and np.isnan(got[3])


@pytest.mark.parametrize("tau", [t for t in LOG_PROX_TAUS if t > 0.25])
def test_prox_log1abs_vec_negative_discriminant_matches_reference(tau):
    # disc < 0 exactly when (|z| + 1)^2 < 4 tau, i.e. |z| < 2 sqrt(tau) - 1
    rng = np.random.default_rng(29)
    bound = 2.0 * math.sqrt(tau) - 1.0
    z = rng.uniform(-bound, bound, 100_000)
    center = rng.uniform(-1.0, 2.0, z.size)
    y = center + z
    disc = (np.abs(y - center) - 1.0) ** 2 - 4.0 * (tau - np.abs(y - center))
    assert (disc < 0.0).mean() > 0.99
    got = prox_log1abs_vec(y, tau, center=center)
    _assert_bitwise_equal(got, prox_log1abs_reference(y, tau, center=center))
    np.testing.assert_array_equal(got[disc < 0.0], center[disc < 0.0])


def _with_ulp_neighbours(value, n=4):
    """value and the n floats on either side of it."""
    out, lo, hi = [value], value, value
    for _ in range(n):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize(
    "tau", [0.25, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 4.0])
def test_prox_log1abs_vec_candidate_filter_matches_full_pass(tau):
    # the filter settles |z| <= min(tau, 1) without computing it: probe its
    # edges |z| = tau, 1 and min(tau, 1) to within 4 ulps, the zeros and the
    # non-finite values, at +-0.0 and NaN centres
    mags = [0.0, np.inf, np.nan]
    for edge in (tau, 1.0, min(tau, 1.0)):
        mags += _with_ulp_neighbours(edge)
    z = np.array(mags + [-m for m in mags])
    centres = np.resize(np.array([0.0, -0.0, np.nan]), z.size)
    with np.errstate(invalid="ignore"):
        for center in (0.0, -0.0, np.nan, centres):
            got = prox_log1abs_vec(z, tau, center=center)
            _assert_bitwise_equal(
                got, prox_log1abs_full_pass(z, tau, center=center))


# ---------------------------------------------------------------------------
# quartic-kernel proximal steps


def _l1_optimality_residual(x, grad_h_y, grad_g_y, tau, lam):
    """Residual of 0 in lam * d||.||_1(x) + grad g(y) + (grad h(x) - grad h(y))/tau."""
    interior = grad_g_y + ((np.dot(x, x) + 1.0) * x - grad_h_y) / tau
    on = np.abs(x) > 0.0
    res = np.where(
        on,
        np.abs(interior + lam * np.sign(x)),
        np.maximum(np.abs(interior) - lam, 0.0),
    )
    return float(np.max(res))


def _sql2_optimality_residual(x, grad_h_y, grad_g_y, tau, lam):
    """Residual of 2 lam x + grad g(y) + (grad h(x) - grad h(y))/tau = 0."""
    r = 2.0 * lam * x + grad_g_y + ((np.dot(x, x) + 1.0) * x - grad_h_y) / tau
    return float(np.max(np.abs(r)))


def test_l1_step_fully_thresholded():
    out = bpg_step_l1_quartic(np.array([0.1, -0.2]), np.zeros(2), 1.0, 5.0)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_l1_step_frozen_example():
    out = bpg_step_l1_quartic(np.array([2.0, 0.0]), np.zeros(2), 1.0, 1.0)
    assert out[1] == 0.0
    assert out[0] == pytest.approx(ROOT_T3_T_M1, abs=1e-12)
    assert _l1_optimality_residual(
        out, np.array([2.0, 0.0]), np.zeros(2), 1.0, 1.0
    ) < 1e-8


def test_l1_step_zero_lam_preserves_direction():
    rng = np.random.default_rng(61)
    for _ in range(20):
        gh = rng.uniform(-2.0, 2.0, 4)
        gg = rng.uniform(-2.0, 2.0, 4)
        tau = rng.uniform(0.05, 2.0)
        v = gh - tau * gg
        out = bpg_step_l1_quartic(gh, gg, tau, 0.0)
        cross = np.linalg.norm(
            out * np.linalg.norm(v) - v * np.linalg.norm(out)
        )
        assert cross < 1e-10 * max(1.0, float(np.linalg.norm(v)) ** 2)


def test_l1_step_optimality_random():
    rng = np.random.default_rng(67)
    for _ in range(500):
        gh = rng.uniform(-3.0, 3.0, 5)
        gg = rng.uniform(-3.0, 3.0, 5)
        tau = rng.uniform(0.01, 2.0)
        lam = rng.uniform(0.0, 1.0)
        out = bpg_step_l1_quartic(gh, gg, tau, lam)
        assert _l1_optimality_residual(out, gh, gg, tau, lam) < 1e-8


def test_sql2_step_zero_vector_argument():
    gh = np.array([0.5, -0.5])
    out = bpg_step_sql2_quartic(gh, gh / 2.0, 2.0, 1.0)
    np.testing.assert_array_equal(out, np.zeros(2))


def test_sql2_step_frozen_example():
    # lam = 0, v = tau*gg - gh = (-1, 0): root of t^3 + t + 1 = 0 scales v
    out = bpg_step_sql2_quartic(np.array([1.0, 0.0]), np.zeros(2), 1.0, 0.0)
    assert out[1] == 0.0
    assert out[0] == pytest.approx(ROOT_T3_T_M1, abs=1e-12)


def test_sql2_step_points_along_descent_direction():
    rng = np.random.default_rng(71)
    for _ in range(20):
        gh = rng.uniform(-2.0, 2.0, 3)
        gg = rng.uniform(-2.0, 2.0, 3)
        tau = rng.uniform(0.05, 2.0)
        v = gh - tau * gg
        if np.linalg.norm(v) < 1e-9:
            continue
        out = bpg_step_sql2_quartic(gh, gg, tau, 0.3)
        assert float(np.dot(out, v)) > 0.0


def test_sql2_step_optimality_random():
    rng = np.random.default_rng(73)
    for _ in range(500):
        gh = rng.uniform(-3.0, 3.0, 5)
        gg = rng.uniform(-3.0, 3.0, 5)
        tau = rng.uniform(0.01, 2.0)
        lam = rng.uniform(0.0, 1.0)
        out = bpg_step_sql2_quartic(gh, gg, tau, lam)
        assert _sql2_optimality_residual(out, gh, gg, tau, lam) < 1e-8
