"""Closed-form proximal maps and Bregman proximal steps.

Every step here is exact: subproblems reduce either to a soft threshold, to a
comparison of two closed-form candidates per coordinate, or to the unique root
of a strictly increasing cubic, which is found by safeguarded Newton inside a
sign-change bracket.  No iterative optimization is run inside a prox call.
"""

import numpy as np

from .tol import CUBIC_RESIDUAL_TOL

# Two candidate objectives tying within this gap are resolved toward the
# candidate closer to the prox center.
TIE_TOL = 1e-12


def solve_monotone_cubic(cubic_coeff, linear_coeff, constant):
    """Unique real root of s*t^3 + b*t + c with s >= 0 and b > 0.

    The polynomial is strictly increasing, so the root exists, is unique, and
    has the opposite sign of `constant`.  Newton iterations are safeguarded by
    a bisection bracket; the result satisfies
    |s*t^3 + b*t + c| < 1e-12 * max(1, |c|).
    """
    s, b, c = float(cubic_coeff), float(linear_coeff), float(constant)
    if s < 0.0:
        raise ValueError(f"cubic coefficient must be >= 0, got {s}")
    if b <= 0.0:
        raise ValueError(f"linear coefficient must be > 0, got {b}")
    if c == 0.0:
        return 0.0
    if s == 0.0:
        return -c / b

    # At the root, s*t^3 and b*t share a sign and sum to -c, so |t| is
    # bounded by both |c|/b and (|c|/s)^(1/3); the smaller bound brackets.
    hi = min(abs(c) / b, (abs(c) / s) ** (1.0 / 3.0))
    lo, hi = (0.0, hi) if c < 0.0 else (-hi, 0.0)

    scale = max(1.0, abs(c))
    t = 0.5 * (lo + hi)
    for _ in range(200):
        p = s * t * t * t + b * t + c
        if abs(p) < CUBIC_RESIDUAL_TOL * scale:
            return t
        if p > 0.0:
            hi = t
        else:
            lo = t
        step = t - p / (3.0 * s * t * t + b)
        t = step if lo < step < hi else 0.5 * (lo + hi)
    raise ArithmeticError(
        f"cubic solve stalled: s={s!r}, b={b!r}, c={c!r}, t={t!r}"
    )


def soft_threshold(y, theta):
    """Componentwise shrinkage sgn(y) * max(|y| - theta, 0)."""
    if theta < 0.0:
        raise ValueError(f"threshold must be >= 0, got {theta}")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - theta, 0.0)


def prox_log1abs_vec(y, tau, center=0.0):
    """Componentwise prox of tau * log(1 + |x - center|) at y.

    With z = y - center the prox is center + sgn(z) * c, where c >= 0
    minimizes phi(c) = log(1 + c) + (c - |z|)^2 / (2 tau).  For c > 0,
    tau * (1 + c) * phi'(c) is the quadratic c^2 + (1 - |z|) c + tau - |z|,
    whose discriminant is (|z|-1)^2 - 4(tau-|z|).  A negative discriminant
    leaves phi increasing, so c = 0.  Otherwise phi rises up to the smaller
    root and falls between the roots: the smaller root is a local maximum,
    above phi(0), and only the kink 0 and the larger clamped root compete.
    Objective ties within TIE_TOL go to 0, the candidate closer to center.

    Only the candidates, the entries with not |z| <= min(tau, 1), are
    computed; every other entry gets c = 0, which is what the arithmetic
    below gives it in floating point.  Write t = fl(|z| - 1) and
    c4 = fl(4 fl(tau - |z|)).  With |z| < 1 and tau >= |z|, t < 0 and
    c4 >= 0, so disc = fl(fl(t^2) - c4) <= fl(t^2).  Either disc < 0, or
    fl(sqrt(disc)) <= fl(sqrt(fl(t^2))) = |t| (t^2 cannot underflow, as
    |t| >= 2^-53), so fl(t + root) <= 0 and c_hi <= 0.  With |z| = 1 and
    tau >= 1, t = 0 and disc = -c4 <= 0: negative, or a zero root and
    c_hi = 0.  A NaN |z| or tau fails the test, so it stays a candidate.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    # Every operation runs in the order of the plain formulas, so the result
    # is the same to the bit.  One buffer over all entries:
    #   z: y - center, then sgn(z) * c, then the result
    # and one block of four rows over the candidates, gathered by index:
    #   az:   |z|, then phi(0) = |z|^2 / (2 tau)
    #   disc: the discriminant, its clamped root, then phi(c_hi) + TIE_TOL
    #   c:    4 (tau - |z|), then 0.5 ((|z| - 1) + root), which is c_hi where
    #         it is positive, then the result's magnitude
    #   u:    (c_hi - |z|)^2 / (2 tau), then z
    # A candidate settles where the discriminant is negative or c_hi <= 0,
    # and its c, at least -1/2 as |z| >= 0, is discarded.  Every other
    # candidate keeps c_hi unless phi(0) <= phi(c_hi) + TIE_TOL, which a NaN
    # objective fails, so a NaN or infinite z keeps c_hi.  One block, not one
    # array per row, spares the page faults that arrays of a new size each
    # call cost.
    z = np.subtract(y, center, dtype=float)
    shape = z.shape
    z = z.reshape(-1)  # the in-place steps below need an array, not a scalar
    bound = min(tau, 1.0)
    cand = z <= bound  # |z| <= bound, without a buffer for |z|
    cand &= z >= -bound
    np.logical_not(cand, out=cand)
    cand = np.flatnonzero(cand)
    az, disc, c, u = np.empty((4, cand.size))
    np.take(z, cand, out=az)
    np.abs(az, out=az)
    np.subtract(az, 1.0, out=disc)
    disc *= disc
    np.subtract(tau, az, out=c)
    c *= 4.0
    disc -= c
    settled = disc < 0.0
    np.maximum(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)
    np.subtract(az, 1.0, out=c)
    c += disc
    c *= 0.5
    settled |= c <= 0.0
    obj = np.log1p(c, out=disc)
    np.subtract(c, az, out=u)
    u *= u
    u /= 2.0 * tau
    obj += u
    obj += TIE_TOL
    az *= az
    az /= 2.0 * tau  # phi(0)
    settled |= az <= obj
    c[settled] = 0.0
    # sgn(z) * c, as c >= 0 and c = 0 where z = 0; copysign(0, z) is z * 0
    # for every finite z, and every non-finite z is a candidate that keeps
    # c_hi
    np.copysign(c, np.take(z, cand, out=u), out=c)
    z *= 0.0
    z[cand] = c
    z = z.reshape(shape)
    z += center
    return z


def prox_log1abs(y, tau, center=0.0):
    """Scalar prox of tau * log(1 + |x - center|) at y."""
    out = prox_log1abs_vec(np.array([float(y)]), tau, center=float(center))
    return float(out[0])


def bpg_step_l1_quartic(grad_h_y, grad_g_y, tau, lam):
    """Bregman proximal step for f = lam * ||x||_1 under the quartic kernel.

    The minimizer is a positive rescaling t* * v of the shrunk point
    v = soft_threshold(grad_h_y - tau * grad_g_y, lam * tau), where t* is the
    root of t^3 ||v||^2 + t - 1 = 0.  v = 0 collapses the step to 0.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    v = soft_threshold(grad_h_y - tau * grad_g_y, lam * tau)
    t = solve_monotone_cubic(float(np.dot(v, v)), 1.0, -1.0)
    return t * v


def bpg_step_sql2_quartic(grad_h_y, grad_g_y, tau, lam):
    """Bregman proximal step for f = lam * ||x||^2 under the quartic kernel.

    With w = tau * grad_g_y - grad_h_y the minimizer is t* * w where t* is
    the (negative) root of t^3 ||w||^2 + (2 lam tau + 1) t + 1 = 0.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    w = tau * grad_g_y - grad_h_y
    t = solve_monotone_cubic(float(np.dot(w, w)), 2.0 * lam * tau + 1.0, 1.0)
    return t * w
