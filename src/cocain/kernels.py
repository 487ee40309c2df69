"""Bregman reference kernels and distance helpers.

A kernel is a strongly convex function h whose Bregman distance

    D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>

replaces the squared Euclidean distance in the proximal steps.  Two kernels
are provided: the Euclidean energy (h = 0.5 ||x||^2, the classical setting)
and the quartic-plus-quadratic kernel (h = 0.25 ||x||^4 + 0.5 ||x||^2) that
majorizes quartic objectives such as phase retrieval.
"""

import numpy as np


def _check_pair(x, y):
    if x.shape != y.shape:
        raise ValueError(f"point shapes differ: {x.shape} vs {y.shape}")


def _dot(a, b):
    """<a, b> as a float for 1-D points, and one per row for points stacked
    along the first axis: np.vecdot runs np.dot's loop on each row, so every
    row has the bits of float(np.dot(a_i, b_i)).  The 1-D method call
    skips np.dot's Python-level dispatch."""
    if a.ndim == 1:
        return float(a.dot(b))
    return np.vecdot(a, b)


class Kernel:
    """Base class for reference functions h.

    Subclasses provide value/grad, `bregman` in a closed form that does not
    cancel for nearly equal points (the three-term definition does),
    `hess_quadratic_form` (the scalar form used by the closed-form inertia
    bounds) and `hess_vec`, the true Hessian-vector product.  No solver or
    check calls `hess_vec`; it stays as part of the kernel interface, which
    the tests check against finite differences of `grad` and the benchmark
    harness (`perfbench/tracing.py`) wraps by name.

    `sigma` is the strong convexity modulus of h.
    """

    sigma = 1.0
    name = "kernel"

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess_quadratic_form(self, x, a):
        raise NotImplementedError

    def hess_vec(self, x, v):
        raise NotImplementedError

    def bregman(self, x, y, d=None):
        """D_h(x, y), nonnegative for convex h: a float for two points, and
        one distance per row, bit for bit the same, for two equal-shape
        stacks of points along the first axis.

        d, when given, is a difference the caller already holds, x - y or
        y - x as computed, in place of the x - y the method would form.
        Both kernels read d only through d.d and <x+y, d>^2, and y - x is
        exactly -(x - y) in floating point, so either sign gives the bits
        of the call without d."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class EuclideanKernel(Kernel):
    """h(x) = 0.5 ||x||^2; D_h is half the squared Euclidean distance."""

    sigma = 1.0
    name = "euclidean"

    def value(self, x):
        return 0.5 * _dot(x, x)

    def grad(self, x):
        return x.copy()

    def hess_quadratic_form(self, x, a):
        return _dot(a, a)

    def hess_vec(self, x, v):
        return np.copy(v)

    def bregman(self, x, y, d=None):
        # tested inline: the solvers call bregman several times an iteration
        if x.shape != y.shape:
            _check_pair(x, y)
        if d is None:
            d = x - y
        return 0.5 * _dot(d, d)


class QuarticKernel(Kernel):
    """h(x) = 0.25 ||x||^4 + 0.5 ||x||^2, strongly convex with sigma = 1.

    grad h(x) = (||x||^2 + 1) x.  `hess_quadratic_form` returns the
    second-order expansion coefficient of h(x + a),

        <a,x>^2 + 0.5 ||x||^2 ||a||^2 + 0.5 ||a||^2,

    which is the quantity the closed-form inertia analysis bounds by
    (3/2) ||x||^2 ||a||^2 + (1/2) ||a||^2.  The full Hessian-vector product
    (twice the symmetric part) is `hess_vec`.
    """

    sigma = 1.0
    name = "quartic"

    def value(self, x):
        n2 = _dot(x, x)
        return 0.25 * n2 * n2 + 0.5 * n2

    def grad(self, x):
        return (_dot(x, x) + 1.0) * x

    def hess_quadratic_form(self, x, a):
        ax = _dot(a, x)
        return ax * ax + 0.5 * _dot(x, x) * _dot(a, a) + 0.5 * _dot(a, a)

    def hess_vec(self, x, v):
        return (_dot(x, x) + 1.0) * v + 2.0 * _dot(x, v) * x

    def bregman(self, x, y, d=None):
        # 1/4 <x+y, x-y>^2 + 1/2 (||y||^2 + 1) ||x-y||^2, a sum of
        # nonnegative terms
        if x.shape != y.shape:
            _check_pair(x, y)
        if d is None:
            d = x - y
        s = _dot(x + y, d)
        return 0.25 * s * s + 0.5 * (_dot(y, y) + 1.0) * _dot(d, d)


def three_points_gap(kernel, x, y, z):
    """Residual of the three-points identity; zero up to rounding.

    D_h(x, z) - D_h(x, y) - D_h(y, z) = <grad h(y) - grad h(z), x - y>
    holds for every triple, so the returned gap measures only floating-point
    cancellation.
    """
    _check_pair(x, y)
    _check_pair(y, z)
    lhs = kernel.bregman(x, z) - kernel.bregman(x, y) - kernel.bregman(y, z)
    rhs = float(np.dot(kernel.grad(y) - kernel.grad(z), x - y))
    return lhs - rhs
