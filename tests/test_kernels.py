"""Kernel values, gradients, Hessian facilities, and distance identities.

Frozen constants were computed by hand from the closed forms and
cross-checked with central finite differences (see the assertions that pair
each frozen value with an independent numerical recomputation).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cocain.kernels import (
    EuclideanKernel,
    QuarticKernel,
    three_points_gap,
)

EUCLID = EuclideanKernel()
QUARTIC = QuarticKernel()
KERNELS = [EUCLID, QUARTIC]


def _random_points(rng, dim, n):
    return rng.uniform(-3.0, 3.0, size=(n, dim))


# ---------------------------------------------------------------------------
# values and gradients


def test_values_at_origin():
    z = np.zeros(3)
    assert EUCLID.value(z) == 0.0
    assert QUARTIC.value(z) == 0.0


def test_quartic_value_spot():
    assert QUARTIC.value(np.array([1.0, 0.0])) == 0.75
    # ||x||^2 = 5: 0.25 * 25 + 0.5 * 5
    assert QUARTIC.value(np.array([1.0, 2.0])) == 8.75


def test_quartic_grad_spot():
    np.testing.assert_array_equal(
        QUARTIC.grad(np.array([1.0, 0.0])), np.array([2.0, 0.0])
    )
    np.testing.assert_array_equal(
        QUARTIC.grad(np.array([1.0, 1.0])), np.array([3.0, 3.0])
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_grad_vanishes_at_origin(kernel):
    np.testing.assert_array_equal(kernel.grad(np.zeros(4)), np.zeros(4))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_grad_matches_finite_differences(kernel):
    rng = np.random.default_rng(11)
    step = 1e-5
    for x in _random_points(rng, 5, 40):
        grad = kernel.grad(x)
        fd = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            fd[i] = (kernel.value(x + e) - kernel.value(x - e)) / (2.0 * step)
        err = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
        assert err < 1e-6


# ---------------------------------------------------------------------------
# second-order facilities


def test_euclidean_quadratic_form_is_identity():
    rng = np.random.default_rng(3)
    for x, a in zip(_random_points(rng, 4, 10), _random_points(rng, 4, 10)):
        assert EUCLID.hess_quadratic_form(x, a) == float(np.dot(a, a))
    assert EUCLID.hess_quadratic_form(np.array([5.0, -2.0]),
                                      np.array([1.0, 0.0])) == 1.0


def test_quartic_quadratic_form_spot():
    x = np.array([1.0, 0.0])
    # <a,x>^2 + 0.5 ||x||^2 ||a||^2 + 0.5 ||a||^2
    assert QUARTIC.hess_quadratic_form(x, np.array([1.0, 0.0])) == 2.0
    assert QUARTIC.hess_quadratic_form(x, np.array([0.0, 1.0])) == 1.0


def test_quartic_quadratic_form_is_expansion_coefficient():
    # h(x + t a) = h(x) + t <grad h(x), a> + t^2 * form + O(t^3), so the
    # form equals half the second directional derivative of h.
    rng = np.random.default_rng(7)
    t = 1e-4
    for x, a in zip(_random_points(rng, 3, 25), _random_points(rng, 3, 25)):
        second = (QUARTIC.value(x + t * a) - 2.0 * QUARTIC.value(x)
                  + QUARTIC.value(x - t * a)) / (t * t)
        form = QUARTIC.hess_quadratic_form(x, a)
        assert form == pytest.approx(0.5 * second, rel=1e-5, abs=1e-5)


def test_quartic_quadratic_form_upper_bound():
    rng = np.random.default_rng(19)
    xs = rng.uniform(-4.0, 4.0, size=(10_000, 6))
    bs = rng.uniform(-4.0, 4.0, size=(10_000, 6))
    for x, a in zip(xs, bs):
        form = QUARTIC.hess_quadratic_form(x, a)
        x2, a2 = float(np.dot(x, x)), float(np.dot(a, a))
        assert form <= 1.5 * x2 * a2 + 0.5 * a2 + 1e-12


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_hess_vec_matches_grad_differences(kernel):
    rng = np.random.default_rng(23)
    t = 1e-6
    for x, v in zip(_random_points(rng, 4, 20), _random_points(rng, 4, 20)):
        hv = kernel.hess_vec(x, v)
        fd = (kernel.grad(x + t * v) - kernel.grad(x - t * v)) / (2.0 * t)
        assert np.linalg.norm(hv - fd) <= 1e-5 * max(1.0, np.linalg.norm(hv))


# ---------------------------------------------------------------------------
# Bregman distances


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_bregman_zero_at_equal_points(kernel):
    x = np.array([0.3, -1.7, 2.0])
    assert kernel.bregman(x, x) == 0.0


def test_bregman_euclidean_closed_form():
    x, y = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    assert EUCLID.bregman(x, y) == 0.5
    rng = np.random.default_rng(5)
    for x, y in zip(_random_points(rng, 3, 20), _random_points(rng, 3, 20)):
        d = x - y
        assert EUCLID.bregman(x, y) == 0.5 * float(np.dot(d, d))


def test_bregman_quartic_spot():
    # h(x) = h(y) = 0.75, grad h(y) = (0, 2), <grad h(y), x - y> = -2
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert QUARTIC.bregman(x, y) == 2.0


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_bregman_nonnegative_and_separating(kernel):
    rng = np.random.default_rng(13)
    for x, y in zip(_random_points(rng, 4, 200), _random_points(rng, 4, 200)):
        d = kernel.bregman(x, y)
        assert d >= -1e-12
        if not np.array_equal(x, y):
            assert d > 1e-12


def _exact_bregman(kernel, x, y):
    # h(x) - h(y) - <grad h(y), x - y> in rationals, from the float entries
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    n2 = lambda v: sum(t * t for t in v)
    h = lambda v: n2(v) / 2 + (n2(v) ** 2 / 4 if kernel is QUARTIC else 0)
    scale = n2(y) + 1 if kernel is QUARTIC else 1
    return h(x) - h(y) - scale * sum(b * (a - b) for a, b in zip(x, y))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_bregman_accurate_for_nearly_equal_points(kernel):
    # phase-retrieval iterates near convergence: ||x|| ~ 3, ||x - y|| ~ 1e-9,
    # where h(x) - h(y) - <grad h(y), x - y> loses every digit to cancellation
    rng = np.random.default_rng(47)
    for _ in range(200):
        y = rng.standard_normal(10)
        x = y + 1e-9 * rng.standard_normal(10)
        exact = _exact_bregman(kernel, x, y)
        d = kernel.bregman(x, y)
        assert d > 0.0
        assert abs(Fraction(d) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_bregman_strong_convexity(kernel):
    # both kernels are 1-strongly convex: D_h(x,y) >= 0.5 ||x-y||^2
    rng = np.random.default_rng(29)
    for x, y in zip(_random_points(rng, 4, 200), _random_points(rng, 4, 200)):
        gap = kernel.bregman(x, y) - 0.5 * kernel.sigma * float(
            np.dot(x - y, x - y)
        )
        assert gap >= -1e-10


def test_bregman_shape_mismatch_raises():
    with pytest.raises(ValueError):
        EUCLID.bregman(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        EUCLID.bregman(np.zeros((4, 2)), np.zeros((3, 2)))


def _stacked_pairs(dim):
    """Two (8, dim) stacks: random rows over six decades, rows of +0.0
    against -0.0, rows holding +inf, -inf or NaN, and identical rows."""
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((8, dim)) * 10.0 ** rng.integers(-3, 4, (8, 1))
    y = rng.standard_normal((8, dim))
    x[2], y[2] = 0.0, -0.0
    x[3, 0] = np.inf
    y[4, -1] = -np.inf
    x[5, dim // 2] = np.nan
    y[6] = x[6]
    x[7] = y[7] = -0.0
    return x, y


@pytest.mark.parametrize("dim", [1, 2, 10, 500])
@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_bregman_on_stacked_rows_is_the_call_on_each_row(kernel, dim):
    x, y = _stacked_pairs(dim)
    with np.errstate(invalid="ignore", over="ignore"):
        rows = kernel.bregman(x, y)
        single = [kernel.bregman(a, b) for a, b in zip(x, y)]
    assert all(type(d) is float for d in single)
    assert rows.shape == (8,) and rows.dtype == np.float64
    np.testing.assert_array_equal(rows.view(np.int64),
                                  np.array(single).view(np.int64))
    assert rows[6] == rows[7] == 0.0 and np.isnan(rows[5])


@pytest.mark.parametrize("dim", [1, 2, 10, 500])
@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_bregman_takes_the_difference_with_either_sign(kernel, dim):
    # the solvers hand bregman a difference they already hold, x - y or
    # y - x: both give the bits of the call that forms x - y itself
    x, y = _stacked_pairs(dim)
    with np.errstate(invalid="ignore", over="ignore"):
        for a, b in [(x, y), *zip(x, y)]:
            plain = kernel.bregman(a, b)
            for d in (a - b, b - a):
                given = kernel.bregman(a, b, d)
                assert type(given) is type(plain)
                np.testing.assert_array_equal(
                    np.asarray(given).view(np.int64),
                    np.asarray(plain).view(np.int64))


# ---------------------------------------------------------------------------
# three-points identity


def test_three_points_exact_cases():
    x = np.array([1.0, 0.0])
    assert three_points_gap(EUCLID, x, x, x) == 0.0
    gap = three_points_gap(
        EUCLID, x, np.array([0.0, 1.0]), np.array([1.0, 1.0])
    )
    assert abs(gap) < 1e-15


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_three_points_random_triples(kernel):
    rng = np.random.default_rng(37)
    pts = _random_points(rng, 5, 600)
    for x, y, z in zip(pts[0::3], pts[1::3], pts[2::3]):
        scale = max(
            1.0,
            float(np.dot(x, x)) ** 2 + float(np.dot(y, y)) ** 2
            + float(np.dot(z, z)) ** 2,
        )
        assert abs(three_points_gap(kernel, x, y, z)) < 1e-10 * scale


# ---------------------------------------------------------------------------
# symmetry of the distance


def test_symmetry_euclidean_exactly_one():
    # D_h(x, y) and D_h(y, x) square the same differences, up to sign
    rng = np.random.default_rng(41)
    for x, y in zip(_random_points(rng, 3, 50), _random_points(rng, 3, 50)):
        assert EUCLID.bregman(x, y) == EUCLID.bregman(y, x)


def test_symmetry_quartic_spot_pair():
    # D_h((1,0), 0) = 0.75 and D_h(0, (1,0)) = 1.25: the quartic kernel is
    # not symmetric
    x, z = np.array([1.0, 0.0]), np.zeros(2)
    assert QUARTIC.bregman(x, z) == 0.75
    assert QUARTIC.bregman(z, x) == 1.25


def test_kernel_sigma_and_names():
    assert EUCLID.sigma == 1.0 and QUARTIC.sigma == 1.0
    assert EUCLID.name == "euclidean"
    assert QUARTIC.name == "quartic"
