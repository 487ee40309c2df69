"""Shared numeric tolerances and comparison predicates.

The solvers accept a backtracking trial when the defining inequality holds
under `leq`/`geq`.  The diagnostics re-verify whole traces at once with
`violation`, which measures the same inequality on the same scale
max(1, |lhs|, |rhs|) against the same slack, so an accepted iterate
re-certifies up to rounding.
"""

import numpy as np

# Slack for the per-iteration acceptance conditions (inertia, minorant,
# majorant).  Scaled by max(1, |lhs|, |rhs|): at unit scale this is an
# absolute 1e-12, at large scale it tracks what float64 arithmetic on the
# operands can resolve.
CONDITION_SLACK = 1e-12

# Relative slack for Lyapunov descent certificates.
LYAPUNOV_SLACK = 1e-9

# Residual target for scalar root solves inside prox steps.
CUBIC_RESIDUAL_TOL = 1e-12


def leq(lhs, rhs, slack=CONDITION_SLACK):
    """lhs <= rhs up to slack * max(1, |lhs|, |rhs|)."""
    scale = max(1.0, abs(lhs), abs(rhs))
    return lhs <= rhs + slack * scale


def geq(lhs, rhs, slack=CONDITION_SLACK):
    """lhs >= rhs up to slack * max(1, |lhs|, |rhs|)."""
    return leq(rhs, lhs, slack)


def violation(lhs, rhs):
    """Positive part of lhs - rhs, normalized by max(1, |lhs|, |rhs|),
    elementwise on arrays.

    Zero where lhs <= rhs and NaN where either side is NaN or infinite;
    used by certificates to report the worst scaled violation of an
    inequality lhs <= rhs.
    """
    scale = np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))
    with np.errstate(invalid="ignore"):
        return np.maximum(0.0, (lhs - rhs) / scale)


def require_finite(x, name="value"):
    if isinstance(x, np.ndarray):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} contains non-finite entries")
    elif not np.isfinite(x):
        raise ValueError(f"{name} is not finite ({x!r})")
    return x
