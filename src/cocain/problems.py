"""Benchmark problems in composite form Psi = f + g.

Each problem bundles the oracles the solvers consume: values and gradients of
the smooth (possibly nonconvex) part g, an exact Bregman proximal step for the
nonsmooth part f, the kernel h the steps are measured against, and the
declared constants (relative smoothness bound of g, weak-convexity modulus of
f, a lower bound on Psi) that the certificates lean on.

Points are flat float64 arrays; image problems carry their grid shape in
`meta` and reshape internally.

The solvers read g through `problem.evaluate(x)`, one `Evaluation` per
point whose value and gradient are each computed at most once.  By default
it calls g_value and g_grad lazily; a problem whose two oracles share work
supplies its own through `g_eval` (phase retrieval computes Ax once, and
evaluates extrapolated points from the images it already has; denoise
hands the squared stencil norms of its value pass to its gradient).  The
audit of stored iterates reads g a block of iterations at a time through
`problem.evaluate_rows(xs, ys, gamma, reformed, carry)`, one
`RowsEvaluation` of row values and linear terms per block.  It evaluates
g once per stored x; a base point y^k that the trace re-forms takes its
evaluation from those of x^k and x^{k-1}, as the lower search does, and
only a y the trace keeps is evaluated itself.  A problem may serve the
block with products over its x's (`g_eval_rows`).
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .kernels import EuclideanKernel, QuarticKernel
from .prox import (
    bpg_step_l1_quartic,
    bpg_step_sql2_quartic,
    prox_log1abs_vec,
    soft_threshold,
)
from .tol import require_finite


class Evaluation:
    """g at one point: value_fn(arg) and grad_fn(arg), each computed on
    first use and kept.  arg is the point itself for the default oracles;
    a fused oracle that shares work between the two (see g_eval) subclasses
    this, and overrides `extrapolated` and `slope_to` when its arg is
    something else."""

    __slots__ = ("_value_fn", "_grad_fn", "_arg", "_value", "_grad")

    def __init__(self, value_fn, grad_fn, arg):
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._arg = arg
        self._value = self._grad = None

    @property
    def value(self):
        if self._value is None:
            self._value = self._value_fn(self._arg)
        return self._value

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self._grad_fn(self._arg)
        return self._grad

    def extrapolated(self, prev, gamma, y):
        """The evaluation at y = x + gamma * (x - x_prev), x this
        evaluation's point and prev the evaluation at x_prev; by default a
        fresh one at y."""
        return type(self)(self._value_fn, self._grad_fn, y)

    def slope_to(self, base):
        """<grad g(y), x - y>, y this evaluation's point and x base's."""
        return float(self.grad.dot(base._arg - self._arg))


class BufferSharingEvaluation(Evaluation):
    """An `Evaluation` whose value pass leaves behind a buffer its
    gradient can start from: value_fn(x) returns (g(x), buffer), and
    grad_fn(x, buffer) consumes the buffer, or forms everything itself
    from buffer None when the gradient is read first.  The buffer is held
    only between the two reads, and dropped when an evaluation is
    extrapolated from: the lower search reads only the values of x^k and
    x^{k-1}, and a gradient read after that forms the same bits itself."""

    __slots__ = ("_shared",)

    def __init__(self, value_fn, grad_fn, arg):
        super().__init__(value_fn, grad_fn, arg)
        self._shared = None

    @property
    def value(self):
        if self._value is None:
            self._value, shared = self._value_fn(self._arg)
            if self._grad is None:
                self._shared = shared
        return self._value

    @property
    def grad(self):
        if self._grad is None:
            self._grad = self._grad_fn(self._arg, self._shared)
            self._shared = None
        return self._grad

    def extrapolated(self, prev, gamma, y):
        self._shared = prev._shared = None
        return super().extrapolated(prev, gamma, y)


class RowsEvaluation(NamedTuple):
    """g over one block of stored iterates, row by row: g_x[i] = g(x^i)
    for i = 0..n, g_y[i] = g(y^i), lin_curr[i] = <grad g(y^i), x^i - y^i>
    and lin_next[i] = <grad g(y^i), x^{i+1} - y^i> for i = 0..n-1.
    `carry` is what the next block takes of x^{n-1} and x^n in place of
    the two points."""

    g_x: np.ndarray
    g_y: np.ndarray
    lin_curr: np.ndarray
    lin_next: np.ndarray
    carry: object


@dataclass(frozen=True)
class CompositeProblem:
    """Oracle bundle for minimizing Psi = f + g over R^dim.

    f_prox_step(grad_h_y, grad_g_y, tau) returns the exact minimizer of
    f(u) + <grad_g_y, u> + (1/tau) * (h(u) - <grad_h_y, u>), i.e. the Bregman
    proximal step written in terms of the gradients at the base point.

    smad_L is a global constant making both L*h - g and L*h + g convex;
    alpha is a modulus making f - (alpha/2)||.||^2 convex (0 for convex f,
    negative for weakly convex f); psi_lower_bound is a valid lower bound on
    inf Psi.  sampling_box is the coordinate range the sampling-based
    verifiers draw points from.

    g_eval(x), when set, returns the `Evaluation` of g at x, whose value
    and grad must agree bit for bit with g_value and g_grad; evaluate(x)
    falls back to those two otherwise.  g_eval_rows(xs, ys, gamma,
    reformed, carry), when set, serves evaluate_rows from products over
    the whole block; its rows agree with the per-point evaluations up to
    rounding only.
    """

    name: str
    dim: int
    kernel: object
    f_value: Callable
    f_prox_step: Callable
    g_value: Callable
    g_grad: Callable
    smad_L: float
    alpha: float = 0.0
    psi_lower_bound: float = 0.0
    sampling_box: tuple = (-1.0, 1.0)
    meta: dict = field(default_factory=dict)
    g_eval: Optional[Callable] = None
    g_eval_rows: Optional[Callable] = None

    def evaluate(self, x):
        """g at x as an `Evaluation` (.value, .grad)."""
        if self.g_eval is None:
            return Evaluation(self.g_value, self.g_grad, x)
        return self.g_eval(x)

    def evaluate_rows(self, xs, ys, gamma, reformed, carry=None):
        """g over a block of stored iterates as a `RowsEvaluation`: xs
        holds the points x^{-1}..x^n, or x^1..x^n after the `carry` of the
        previous block's last two x's, ys the points y^0..y^{n-1} (the
        rows of a stack), gamma their factors and reformed whether each
        is x^i + gamma_i (x^i - x^{i-1}) as the trace re-forms it.  By
        default the rows are read from one `Evaluation` per x, each
        re-formed y's extrapolated from those of its two x's, as the
        lower search makes it, and one per other y."""
        if self.g_eval_rows is not None:
            return self.g_eval_rows(xs, ys, gamma, reformed, carry)
        g_x = list(carry or ()) + list(map(self.evaluate, xs))
        g_y = [ev.extrapolated(prev, gm, y) if new else self.evaluate(y)
               for prev, ev, gm, y, new in zip(g_x, g_x[1:], gamma, ys,
                                               reformed)]
        carry, g_x = g_x[-2:], g_x[1:]
        return RowsEvaluation(
            np.fromiter((ev.value for ev in g_x), float),
            np.fromiter((ev.value for ev in g_y), float),
            np.fromiter((ev.slope_to(x) for ev, x in zip(g_y, g_x)), float),
            np.fromiter((ev.slope_to(x) for ev, x in zip(g_y, g_x[1:])),
                        float),
            carry)

    def psi(self, x):
        return self.f_value(x) + self.g_value(x)


# ---------------------------------------------------------------------------
# univariate test functions


def _sigmoid_grad(x):
    s = 0.5 * (1.0 - np.tanh(0.5 * x))
    return -s * (1.0 - s)


# kind: (g, grad g, whether f = |x| (else f = 0), smad_L, psi_lower_bound,
# global minimum of psi)
UNIVARIATE_KINDS = {
    "logquad": (lambda x: float(np.log1p(x * x).sum()),
                lambda x: 2.0 * x / (1.0 + x * x), False, 2.0, 0.0, 0.0),
    # 1/(1+e^x) = 0.5*(1 - tanh(x/2)) avoids exp overflow on either tail.
    "sigmoid": (lambda x: float((0.5 * (1.0 - np.tanh(0.5 * x))).sum()),
                _sigmoid_grad, False, 0.1, 0.0, 0.0),
    "abssincos": (lambda x: float((np.sin(x) + np.cos(x)).sum()),
                  lambda x: np.cos(x) - np.sin(x), True, math.sqrt(2.0),
                  -math.sqrt(2.0), 0.5 * math.pi - 1.0),
}


def make_univariate(kind):
    """One-dimensional nonconvex test problems on the Euclidean kernel.

    kind (a key of UNIVARIATE_KINDS):
      "logquad"   g(x) = log(1 + x^2), f = 0
      "sigmoid"   g(x) = 1/(1 + e^x), f = 0
      "abssincos" g(x) = sin(x) + cos(x), f(x) = |x|
    """
    kind = kind.lower()
    if kind not in UNIVARIATE_KINDS:
        raise ValueError(f"unknown univariate kind {kind!r}")
    g_value, g_grad, abs_f, smad_L, lower, global_psi = UNIVARIATE_KINDS[kind]
    if abs_f:
        # soft_threshold is read from the module at call time, so a wrapper
        # installed there (perfbench's tracer) sees every call
        f_value = lambda x: float(np.abs(x).sum())
        f_prox = lambda gh, gg, tau: soft_threshold(gh - tau * gg, tau)
    else:
        f_value = lambda x: 0.0
        f_prox = lambda gh, gg, tau: gh - tau * gg
    return CompositeProblem(
        name=kind,
        dim=1,
        kernel=EuclideanKernel(),
        f_value=f_value,
        f_prox_step=f_prox,
        g_value=g_value,
        g_grad=g_grad,
        smad_L=smad_L,
        psi_lower_bound=lower,
        sampling_box=(-15.0, 15.0),
        meta={"global_psi": global_psi},
    )


# ---------------------------------------------------------------------------
# two-dimensional problem with spurious stationary points


def make_spurious2d(lam=0.5, rho=100.0, target=(1.0, 1.0)):
    """Sum of log(1+|x_i|) plus a sharp nonconvex attraction to `target`.

    g(x) = lam * sum_i log(1 + rho*(x_i - target_i)^2) has its minimum at
    `target`, but the kinked f creates additional stationary points on the
    coordinate axes that non-inertial methods get caught on.  The minimizer
    of psi = f + g sits at t* per coordinate, slightly below `target`
    (0.99497... at the defaults), where f's slope balances g's pull;
    meta["minimizer"] holds it in closed form.

    For t > 0 the coordinate term is log(1+t) + lam*log(1+rho*(t-b)^2),
    b = target_i > 0.  Setting its derivative to zero and writing u = t - b
    gives rho*(1+2*lam)*u^2 + 2*lam*rho*(1+b)*u + 1 = 0.  The root near
    zero is the local minimizer t*; the other root is a local maximum.  t*
    is taken as 1/(rho*(1+2*lam)*u_minus) from the large-magnitude root
    u_minus, which avoids the cancellation of the textbook formula.  That
    t* is psi's global minimizer at the defaults (see criterion 05 of the
    acceptance tests), not for every lam, rho and target.
    """
    if not (0.0 < lam < math.inf and 0.0 < rho < math.inf):
        raise ValueError("lam and rho must be finite and positive")
    b = np.asarray(target, dtype=float)
    if b.shape != (2,):
        raise ValueError(f"target must have two coordinates, got {b.shape}")
    require_finite(b, "target")
    a = rho * (1.0 + 2.0 * lam)
    half_b = lam * rho * (1.0 + b)
    u_minus = -(half_b + np.sqrt(half_b * half_b - a)) / a
    minimizer = b + 1.0 / (a * u_minus)

    def g_value(x):
        t = x - b
        return float(lam * np.log1p(rho * t * t).sum())

    def g_grad(x):
        t = x - b
        return lam * 2.0 * rho * t / (1.0 + rho * t * t)

    def f_prox_step(gh, gg, tau):
        return prox_log1abs_vec(gh - tau * gg, tau, center=0.0)

    return CompositeProblem(
        name="spurious2d",
        dim=2,
        kernel=EuclideanKernel(),
        f_value=lambda x: float(np.log1p(np.abs(x)).sum()),
        f_prox_step=f_prox_step,
        g_value=g_value,
        g_grad=g_grad,
        smad_L=2.0 * lam * rho,
        alpha=-1.0,
        sampling_box=(-3.0, 3.0),
        meta={"lam": lam, "rho": rho, "target": b, "minimizer": minimizer},
    )


# ---------------------------------------------------------------------------
# phase retrieval


@dataclass(frozen=True)
class PhaseRetrievalData:
    """Sensing matrix A (m x d), magnitudes b (m,), optional ground truth."""

    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray | None = None


def generate_phase_retrieval(d, m, seed=0, noise_std=0.0):
    """Gaussian sensing vectors and magnitude measurements of a unit signal."""
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d))
    x_true = rng.standard_normal(d)
    x_true /= np.linalg.norm(x_true)
    b = np.abs(A @ x_true)
    if noise_std > 0.0:
        b = b + noise_std * rng.standard_normal(m)
    b = np.maximum(b, 1e-6)
    return PhaseRetrievalData(A=A, b=b, x_true=x_true)


def make_phase_retrieval(data, reg="l1", lam=0.1):
    """Quartic-kernel phase retrieval with an l1 or squared-l2 regularizer.

    g(x) = (1/4) sum_i (<a_i, x>^2 - b_i^2)^2 is smooth-adaptable with
    respect to the quartic kernel with constant
    sum_i (3 ||a_i||^4 + ||a_i||^2 b_i^2).  The regularizer is
    lam * ||x||_1 ("l1") or lam * ||x||^2 ("sql2"); both proximal steps are
    closed-form rescalings obtained from a monotone cubic.
    """
    A = np.asarray(data.A, dtype=float)
    b = np.asarray(data.b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("incompatible sensing matrix and measurements")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    m, d = A.shape
    b2 = b * b
    # the row sums of A * A, 256 rows at a time: no temporary of A's size
    row_sq = np.concatenate([np.sum(a * a, axis=1)
                             for a in np.split(A, range(256, m, 256))])
    smad = float(np.sum(3.0 * row_sq * row_sq + row_sq * b2))

    # One product r = Ax per point, shared by the value and the gradient:
    # g = (1/4)||t||^2 and grad g = A^T (t * r), with t = r * r - b^2.
    def value(rt):
        t = rt[1]
        return 0.25 * float(t.dot(t))

    def grad(rt):
        r, t = rt
        return A.T @ (t * r)

    class PhaseEvaluation(Evaluation):
        """g from the image r = Ax of its point.  An extrapolated point's
        image is the same extrapolation of r, and <grad g(y), x - y> =
        <t_y * r_y, r_x - r_y>, so neither method multiplies by A; both
        agree with a fresh evaluation up to rounding only.  No method
        refers to A, even through value, grad or at_image: a class is
        cyclic garbage, and A must go with the problem, not wait for the
        collector."""

        __slots__ = ()

        def extrapolated(self, prev, gamma, y):
            r = self._arg[0]
            r = r + gamma * (r - prev._arg[0])
            return type(self)(self._value_fn, self._grad_fn, (r, r * r - b2))

        def slope_to(self, base):
            r, t = self._arg
            return float((t * r).dot(base._arg[0] - r))

    def at_image(r):
        return PhaseEvaluation(value, grad, (r, r * r - b2))

    def g_eval(x):
        return at_image(A @ x)

    def g_eval_rows(xs, ys, gamma, reformed, carry):
        # PhaseEvaluation's expressions row by row.  The images R of the
        # block's x's come from one matrix-matrix product, written behind
        # the two carried images; those S of its y's are extrapolated from
        # R in `extrapolated`'s order of operations, r + gamma (r - r_prev),
        # except a kept y's, which takes its own product
        c = 0 if carry is None else len(carry)
        R = np.empty((c + len(xs), m))
        if c:
            R[:c] = carry
        np.matmul(xs, A.T, out=R[c:])
        S = np.subtract(R[1:-1], R[:-2])
        S *= gamma[:, None]
        S += R[1:-1]
        kept = ~reformed
        if kept.any():
            S[kept] = ys[kept] @ A.T
        # T = R * R - b^2 of the x's, then of the y's in the same buffer
        T = R[1:] * R[1:]
        T -= b2
        g_x = 0.25 * np.vecdot(T, T)
        T = np.multiply(S, S, out=T[1:])
        T -= b2
        g_y = 0.25 * np.vecdot(T, T)
        # grad g(y) = A^T (T * S), so both linear terms come from the
        # images, with no A^T product
        T *= S
        D = R[1:-1] - S
        lin_curr = np.vecdot(T, D)
        lin_next = np.vecdot(T, np.subtract(R[2:], S, out=D))
        return RowsEvaluation(g_x, g_y, lin_curr, lin_next, R[-2:].copy())

    reg = reg.lower()
    if reg == "l1":
        f_value = lambda x: lam * float(np.abs(x).sum())
        f_prox = lambda gh, gg, tau: bpg_step_l1_quartic(gh, gg, tau, lam)
    elif reg == "sql2":
        f_value = lambda x: lam * float(np.dot(x, x))
        f_prox = lambda gh, gg, tau: bpg_step_sql2_quartic(gh, gg, tau, lam)
    else:
        raise ValueError(f"unknown regularizer {reg!r}")

    return CompositeProblem(
        name=f"phase_retrieval_{reg}",
        dim=d,
        kernel=QuarticKernel(),
        f_value=f_value,
        f_prox_step=f_prox,
        g_value=lambda x: g_eval(x).value,
        g_grad=lambda x: g_eval(x).grad,
        smad_L=smad,
        sampling_box=(-2.0, 2.0),
        meta={"m": m, "reg": reg, "lam": lam, "data": data},
        g_eval=g_eval,
        g_eval_rows=g_eval_rows,
    )


# ---------------------------------------------------------------------------
# robust image denoising


def finite_difference(x):
    """Forward differences of a 2-D grid along rows and columns.

    Returns (d1, d2) with d1[i, j] = x[i+1, j] - x[i, j] (zero on the last
    row) and d2[i, j] = x[i, j+1] - x[i, j] (zero on the last column).
    d2 is one contiguous subtraction over the flattened grid; the entries
    that wrap from the end of one row to the start of the next land on the
    last column, which is then zeroed.
    """
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {x.shape}")
    d1 = np.empty_like(x, order="C")
    d2 = np.empty_like(x, order="C")
    np.subtract(x[1:, :], x[:-1, :], out=d1[:-1, :])
    d1[-1, :] = 0.0
    flat = x.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=d2.reshape(-1)[:-1])
    d2[:, -1] = 0.0
    return d1, d2


def finite_difference_adjoint(y1, y2):
    """Adjoint of `finite_difference`: <Dx, (y1,y2)> = <x, adjoint(y1,y2)>.

    The structurally-zero last row of y1 and last column of y2 are ignored,
    matching the range of the forward operator.  Every entry is
    (((0 + y1[i-1, j]) - y1[i, j]) + y2[i, j-1]) - y2[i, j], with the terms
    that fall outside the grid left out.  The two row passes run on row
    blocks and the two column passes on the flattened grid; the first and
    last columns, where the flat passes pick up terms that wrap from the
    neighbouring row, are then rewritten from their own expressions.
    """
    if y1.shape != y2.shape or y1.ndim != 2:
        raise ValueError("y1 and y2 must be 2-D grids of equal shape")
    out = np.zeros_like(y1, order="C")
    out[1:, :] += y1[:-1, :]
    out[:-1, :] -= y1[:-1, :]
    first, last = out[:, 0].copy(), out[:, -1].copy()
    flat, y2_flat = out.reshape(-1), y2.reshape(-1)
    flat[1:] += y2_flat[:-1]
    flat[:-1] -= y2_flat[:-1]
    if y1.shape[1] == 1:
        out[:, 0] = first
    else:
        np.subtract(first, y2[:, 0], out=out[:, 0])
        np.add(last, y2[:, -2], out=out[:, -1])
    return out


def add_outlier_noise(image, magnitude=1e5, fraction=0.05, seed=0,
                      background_std=0.0):
    """Corrupt a fraction of pixels with +-magnitude spikes.

    ceil(fraction * M * N) distinct pixels get a spike of random sign; the
    remaining pixels optionally receive Gaussian noise of the given standard
    deviation.  Deterministic in `seed`.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    require_finite(magnitude, "magnitude")
    if not 0.0 <= background_std < math.inf:
        raise ValueError(
            f"background_std must be finite and >= 0, got {background_std}")
    rng = np.random.default_rng(seed)
    flat = image.ravel().copy()
    n_out = math.ceil(fraction * flat.size)
    idx = rng.choice(flat.size, size=n_out, replace=False)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n_out)
    if background_std > 0.0:
        flat += background_std * rng.standard_normal(flat.size)
    flat[idx] += signs * magnitude
    return flat.reshape(image.shape)


def make_robust_denoising(image, lam=10.0, rho=1.0, data_term="log"):
    """Denoise an observed grid under a nonconvex total-variation prior.

    g(x) = lam * sum_ij log(1 + rho * ||(Dx)_ij||^2) penalizes finite
    differences; it is smooth-adaptable on the Euclidean kernel with constant
    16*lam*rho.  The data term couples x to the observation b:

      "log"   f(x) = sum log(1 + |x - b|)   (outlier-robust, weakly convex)
      "l1"    f(x) = sum |x - b|
      "sql2"  f(x) = 0.5 * sum (x - b)^2

    All three proximal steps are exact and componentwise.
    """
    b_img = np.asarray(image, dtype=float)
    if b_img.ndim != 2 or min(b_img.shape) < 2:
        raise ValueError(f"image must be at least 2x2, got shape {b_img.shape}")
    if not np.all(np.isfinite(b_img)):
        raise ValueError("image contains non-finite pixels")
    if not (0.0 < lam < math.inf and 0.0 < rho < math.inf):
        raise ValueError("lam and rho must be finite and positive")
    shape = b_img.shape
    b = b_img.ravel().copy()

    # Both oracles work in place on the fresh difference buffers, never on
    # x.reshape(shape), which is a view of the solver's iterate.  The
    # evaluation hands s = rho * (d1^2 + d2^2) from the value pass to the
    # gradient, which then recomputes only Dx.

    def value_and_square(x):
        d1, d2 = finite_difference(x.reshape(shape))
        d1 *= d1
        d2 *= d2
        d1 += d2
        d1 *= rho
        np.log1p(d1, out=d2)
        return float(lam * d2.sum()), d1

    def g_value(x):
        return value_and_square(x)[0]

    def g_grad(x, s=None):
        d1, d2 = finite_difference(x.reshape(shape))
        # w = 2 lam rho / (1 + s), in s's buffer when the value pass left it
        w = s
        if w is None:
            w = np.multiply(d1, d1)
            w += d2 * d2
            w *= rho
        w += 1.0
        np.divide(2.0 * lam * rho, w, out=w)
        d1 *= w
        d2 *= w
        return finite_difference_adjoint(d1, d2).ravel()

    data_term = data_term.lower()
    if data_term == "log":
        def f_value(x):
            r = np.subtract(x, b)  # one buffer for |x - b| and its log1p
            np.abs(r, out=r)
            np.log1p(r, out=r)
            return float(r.sum())
        def f_prox(gh, gg, tau):
            v = np.multiply(gg, tau)  # gh - tau * gg in one buffer
            np.subtract(gh, v, out=v)
            return prox_log1abs_vec(v, tau, center=b)
        alpha = -1.0
    elif data_term == "l1":
        f_value = lambda x: float(np.abs(x - b).sum())
        f_prox = lambda gh, gg, tau: b + soft_threshold(gh - tau * gg - b, tau)
        alpha = 0.0
    elif data_term == "sql2":
        f_value = lambda x: 0.5 * float(np.dot(x - b, x - b))
        f_prox = lambda gh, gg, tau: (gh - tau * gg + tau * b) / (1.0 + tau)
        alpha = 0.0
    else:
        raise ValueError(f"unknown data term {data_term!r}")

    return CompositeProblem(
        name=f"denoise_{data_term}",
        dim=b.size,
        kernel=EuclideanKernel(),
        f_value=f_value,
        f_prox_step=f_prox,
        g_value=g_value,
        g_grad=g_grad,
        smad_L=16.0 * lam * rho,
        alpha=alpha,
        sampling_box=(-1.0, 2.0),
        meta={"shape": shape, "observed": b, "lam": lam, "rho": rho,
              "data_term": data_term},
        g_eval=lambda x: BufferSharingEvaluation(value_and_square, g_grad, x),
    )


# ---------------------------------------------------------------------------
# sampling-based verification of the declared constants


@dataclass(frozen=True)
class SmadReport:
    """Outcome of a sampled smooth-adaptability check."""

    passed: bool
    worst_ratio: float
    worst_index: int
    n_segments: int
    L: float


def verify_smad_by_sampling(problem, n_segments=10000, seed=0, box=None,
                            override_L=None):
    """Check |g(x) - g(y) - <grad g(y), x-y>| <= L * D_h(x, y) on random pairs.

    Samples point pairs uniformly from `box` (default: the problem's
    sampling_box) and reports the worst ratio of the Bregman gap of g to the
    declared bound, with 1e-9 absolute headroom for rounding.  `override_L`
    substitutes a different constant, which is how negative controls are run.
    """
    if n_segments < 1:
        raise ValueError("n_segments must be positive")
    lo, hi = box if box is not None else problem.sampling_box
    if not lo < hi:
        raise ValueError(f"empty sampling box ({lo}, {hi})")
    L = problem.smad_L if override_L is None else float(override_L)
    rng = np.random.default_rng(seed)
    kernel = problem.kernel
    worst = 0.0
    worst_i = -1
    for i in range(n_segments):
        x = rng.uniform(lo, hi, problem.dim)
        y = rng.uniform(lo, hi, problem.dim)
        dh = kernel.bregman(x, y)
        if dh <= 0.0:
            continue
        gap = abs(
            problem.g_value(x)
            - problem.g_value(y)
            - float(np.dot(problem.g_grad(y), x - y))
        )
        ratio = gap / (L * dh + 1e-9)
        if ratio > worst:
            worst, worst_i = ratio, i
    return SmadReport(passed=worst <= 1.0, worst_ratio=worst,
                      worst_index=worst_i, n_segments=n_segments, L=L)
