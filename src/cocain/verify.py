"""Property suites behind the ``verify`` subcommand.

Every suite re-derives a contract from scratch and compares it against the
implementation: analytic gradients against central finite differences,
closed-form proximal steps against brute-force grids, declared smoothness
constants against segment sampling, certificate checks against deliberately
corrupted traces.  Each property yields one PASS/FAIL line.  Negative
controls pass when the probed check fails as designed; if the corruption
slips through, the control itself fails.  A property that samples draws
from its own generator, seeded beside its name in the suite, so deleting or
reordering a property moves no other property's figures.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.random import default_rng

from . import prox
from .diagnostics import (
    LyapunovParams,
    certify,
    check_acceptance_conditions,
    check_lyapunov_descent,
)
from .kernels import (
    EuclideanKernel,
    QuarticKernel,
    three_points_gap,
)
from .pgm import synthetic_blocks
from .problems import (
    add_outlier_noise,
    finite_difference,
    finite_difference_adjoint,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
    make_spurious2d,
    make_univariate,
    verify_smad_by_sampling,
)
from .solvers import (
    TRACE_FIELDS,
    SolverConfig,
    bpg_wb,
    cocain_bpg,
    ipiano,
    replace_record,
)


@dataclass(frozen=True)
class PropertyResult:
    scope: str
    name: str
    passed: bool
    detail: str


def _result(scope, name, passed, detail):
    return PropertyResult(scope, name, bool(passed), detail)


def _fd_error(value, x, grad, i, eps=1e-6):
    """The central difference of `value` at x along coordinate i against
    grad[i], relative to max(1, |grad[i]|)."""
    e = np.zeros(x.size)
    e[i] = eps
    fd = (value(x + e) - value(x - e)) / (2 * eps)
    return abs(fd - grad[i]) / max(1.0, abs(grad[i]))


def _sample_problems():
    """The instances the sampling suites run against, desk-sized."""
    img = synthetic_blocks(8, 8)
    noisy = add_outlier_noise(img, magnitude=10.0, fraction=0.1, seed=3)
    return [
        make_univariate("logquad"),
        make_univariate("sigmoid"),
        make_univariate("abssincos"),
        make_spurious2d(),
        make_phase_retrieval(generate_phase_retrieval(5, 20, seed=3), reg="l1"),
        make_phase_retrieval(generate_phase_retrieval(5, 20, seed=3), reg="sql2"),
        make_robust_denoising(noisy),
    ]


# ---------------------------------------------------------------------------
# kernels


def _check_three_points(rng):
    worst = 0.0
    for kernel, scale in ((EuclideanKernel(), 10.0), (QuarticKernel(), 2.0)):
        for _ in range(200):
            x, y, z = (scale * rng.standard_normal(4) for _ in range(3))
            worst = max(worst, abs(three_points_gap(kernel, x, y, z)))
    return worst < 1e-10, f"worst |gap| = {worst:.3e} (bound 1e-10)"


def _check_quartic_hessian_bound(rng):
    kernel = QuarticKernel()
    worst = -np.inf
    for _ in range(10000):
        x = 3.0 * rng.standard_normal(4)
        a = 3.0 * rng.standard_normal(4)
        form = kernel.hess_quadratic_form(x, a)
        bound = 1.5 * float(x @ x) * float(a @ a) + 0.5 * float(a @ a)
        worst = max(worst, form - bound)
    return worst <= 1e-9, f"worst form-bound excess = {worst:.3e} on 10^4 samples"


def _check_kernel_gradients(rng):
    worst = 0.0
    for kernel in (EuclideanKernel(), QuarticKernel()):
        for _ in range(50):
            x = 2.0 * rng.standard_normal(4)
            g = kernel.grad(x)
            for i in range(4):
                worst = max(worst, _fd_error(kernel.value, x, g, i))
    return worst < 1e-5, f"worst FD relative error = {worst:.3e}"


def _check_bregman_nonneg(rng):
    worst = 0.0
    for kernel in (EuclideanKernel(), QuarticKernel()):
        for _ in range(500):
            x, y = 3.0 * rng.standard_normal(3), 3.0 * rng.standard_normal(3)
            worst = min(worst, kernel.bregman(x, y))
    return worst >= -1e-12, f"most negative D_h over samples = {worst:.3e}"


def _suite_kernels():
    return [
        _result("kernels", "three_points_identity", *_check_three_points(default_rng(101))),
        _result("kernels", "quartic_hessian_form_bound",
                *_check_quartic_hessian_bound(default_rng(102))),
        _result("kernels", "kernel_gradient_fd",
                *_check_kernel_gradients(default_rng(103))),
        _result("kernels", "bregman_nonnegative", *_check_bregman_nonneg(default_rng(104))),
    ]


# ---------------------------------------------------------------------------
# prox


def _check_cubic_residuals(rng):
    worst = 0.0
    for _ in range(1000):
        a = 10.0 ** rng.uniform(-4, 4)
        b = 10.0 ** rng.uniform(-4, 4)
        c = rng.uniform(-100.0, 100.0)
        t = prox.solve_monotone_cubic(a, b, c)
        # residual scaled by the evaluated magnitudes: the root itself is
        # exact only up to the conditioning of the polynomial
        scale = max(1.0, abs(a * t**3), abs(b * t), abs(c))
        worst = max(worst, abs(a * t**3 + b * t + c) / scale)
    return worst < 1e-12, f"worst scaled residual = {worst:.3e} on 1000 cubics"


def _check_prox_log1abs_grid(rng):
    worst = 0.0
    for _ in range(1000):
        y = rng.uniform(-4.0, 4.0)
        tau = 10.0 ** rng.uniform(-2, 1)
        center = rng.uniform(-3.0, 3.0)
        x = prox.prox_log1abs(y, tau, center)
        lo = min(y, center) - 1.0
        hi = max(y, center) + 1.0
        grid = np.arange(lo, hi, 1e-5)
        obj = tau * np.log1p(np.abs(grid - center)) + 0.5 * (grid - y) ** 2
        best = float(obj.min())
        mine = tau * np.log1p(abs(x - center)) + 0.5 * (x - y) ** 2
        worst = max(worst, mine - best)
    return worst <= 1e-6, f"worst objective gap vs 1e-5 grid = {worst:.3e}"


def _check_quartic_steps_foc(rng):
    worst = 0.0
    kernel = QuarticKernel()
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        gh = rng.standard_normal(d) * 3.0
        gg = rng.standard_normal(d) * 3.0
        tau = 10.0 ** rng.uniform(-2, 0.5)
        lam = 10.0 ** rng.uniform(-2, 0.5)
        for which, step in (("l1", prox.bpg_step_l1_quartic),
                            ("sql2", prox.bpg_step_sql2_quartic)):
            x = step(gh, gg, tau, lam)
            # stationarity of <gg,u> + lam*r(u) + (h(u) - <gh,u>)/tau at x,
            # measured coordinatewise; l1 kinks use the subdifferential
            interior = gg + (kernel.grad(x) - gh) / tau
            if which == "l1":
                sub = interior + lam * np.sign(x)
                res = np.where(np.abs(x) > 0, np.abs(sub),
                               np.maximum(np.abs(interior) - lam, 0.0))
            else:
                res = np.abs(interior + 2.0 * lam * x)
            scale = max(1.0, float(np.max(np.abs(gh))), float(np.max(np.abs(gg))))
            worst = max(worst, float(np.max(res)) / scale)
    return worst < 1e-8, f"worst first-order residual = {worst:.3e} on 1000 instances"


def _check_soft_threshold(rng):
    worst = 0.0
    for _ in range(200):
        ys = rng.uniform(-5, 5, 8)
        theta = float(rng.uniform(0, 3))
        got = prox.soft_threshold(ys, theta)
        want = np.sign(ys) * np.maximum(np.abs(ys) - theta, 0.0)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst == 0.0, f"max deviation from closed form = {worst:.3e}"


def _suite_prox():
    return [
        _result("prox", "monotone_cubic_residuals",
                *_check_cubic_residuals(default_rng(202))),
        _result("prox", "prox_log1abs_vs_grid",
                *_check_prox_log1abs_grid(default_rng(203))),
        _result("prox", "quartic_step_first_order",
                *_check_quartic_steps_foc(default_rng(204))),
        _result("prox", "soft_threshold_closed_form",
                *_check_soft_threshold(default_rng(205))),
    ]


# ---------------------------------------------------------------------------
# problems


def _check_gradients_fd(problems_list, rng):
    worst = 0.0
    worst_name = ""
    for p in problems_list:
        lo, hi = p.sampling_box
        for _ in range(100 // max(1, p.dim // 8)):
            x = rng.uniform(lo, hi, p.dim)
            g = p.g_grad(x)
            idx = rng.integers(0, p.dim, size=min(p.dim, 8))
            for i in np.unique(idx):
                rel = _fd_error(p.g_value, x, g, i)
                if rel > worst:
                    worst, worst_name = rel, p.name
    return worst < 1e-5, f"worst FD relative error = {worst:.3e} ({worst_name})"


def _check_smad_constants(problems_list):
    lines = []
    ok = True
    for p in problems_list:
        rep = verify_smad_by_sampling(p, n_segments=10000, seed=11)
        ok &= rep.passed
        lines.append(f"{p.name}:{rep.worst_ratio:.3f}")
    return ok, "worst |curvature|/L ratios: " + " ".join(lines)


def _check_smad_negative_control():
    p = make_univariate("logquad")
    rep = verify_smad_by_sampling(p, n_segments=10000, seed=11,
                                  override_L=p.smad_L / 2.0)
    return (not rep.passed), (
        f"halved constant rejected with ratio {rep.worst_ratio:.3f}"
        if not rep.passed else "halved constant was not rejected"
    )


def _check_semiconvexity(problems_list, rng):
    worst = 0.0
    worst_name = ""
    for p in problems_list:
        lo, hi = p.sampling_box
        n = 10000 // len(problems_list) + 1
        x = rng.uniform(lo, hi, (n, p.dim))
        y = rng.uniform(lo, hi, (n, p.dim))
        mid = 0.5 * (x + y)

        def shifted(pts):
            return np.array([
                p.f_value(row) - 0.5 * p.alpha * float(row @ row) for row in pts
            ])

        gap = 0.5 * (shifted(x) + shifted(y)) - shifted(mid)
        g = float(gap.min())
        if -g > worst:
            worst, worst_name = -g, p.name
    return worst < 1e-9, f"worst midpoint-convexity violation = {worst:.3e} ({worst_name})"


def _check_adjoint(rng):
    worst = 0.0
    for _ in range(50):
        h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        x = rng.standard_normal((h, w))
        y1 = rng.standard_normal((h, w))
        y2 = rng.standard_normal((h, w))
        d1, d2 = finite_difference(x)
        lhs = float(np.sum(d1 * y1) + np.sum(d2 * y2))
        rhs = float(np.sum(x * finite_difference_adjoint(y1, y2)))
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-12, f"worst |<Dx,y> - <x,D*y>| = {worst:.3e}"


def _check_psi_lower_bounds(problems_list, rng):
    worst = 0.0
    worst_name = ""
    for p in problems_list:
        lo, hi = p.sampling_box
        for _ in range(200):
            x = rng.uniform(lo, hi, p.dim)
            gap = p.psi_lower_bound - p.psi(x)
            if gap > worst:
                worst, worst_name = gap, p.name
    return worst <= 0.0, f"worst bound excess = {worst:.3e} ({worst_name or 'none'})"


def _suite_problems():
    plist = _sample_problems()
    return [
        _result("problems", "g_grad_finite_difference",
                *_check_gradients_fd(plist, default_rng(303))),
        _result("problems", "smad_constants_sampled", *_check_smad_constants(plist)),
        _result("problems", "smad_halved_negative_control", *_check_smad_negative_control()),
        _result("problems", "f_semiconvexity_midpoint",
                *_check_semiconvexity(plist, default_rng(304))),
        _result("problems", "finite_difference_adjoint", *_check_adjoint(default_rng(305))),
        _result("problems", "psi_lower_bounds",
                *_check_psi_lower_bounds(plist, default_rng(306))),
    ]


# ---------------------------------------------------------------------------
# solvers


def _traces_identical(a, b, claim, mismatch="traces differ"):
    """(True, claim) when runs a and b agree on every TRACE_FIELDS entry of
    every record, else (False, mismatch)."""
    rows = [[tuple(getattr(rec, name) for name in TRACE_FIELDS)
             for rec in res.records] for res in (a, b)]
    same = rows[0] == rows[1]
    return same, claim if same else mismatch


def _check_reduction_gamma_zero():
    p = make_univariate("abssincos")
    cfg = SolverConfig(max_iters=60, gamma_cap=0.0)
    a = cocain_bpg(p, cfg, np.array([7.0]))
    b = bpg_wb(p, SolverConfig(max_iters=60), np.array([7.0]))
    return _traces_identical(a, b, "cocain(gamma_cap=0) trace == bpg_wb trace")


def _check_reduction_ipiano_zero():
    p = make_univariate("logquad")
    cfg = SolverConfig(max_iters=60)
    a = ipiano(p, replace(cfg, beta=0.0), np.array([2.0]))
    b = bpg_wb(p, cfg, np.array([2.0]))
    return _traces_identical(a, b, "ipiano(beta=0) trace == bpg_wb trace")


def _check_determinism():
    p = make_spurious2d()
    cfg = SolverConfig(max_iters=80, L_bar_init=101.0)
    a = cocain_bpg(p, cfg, np.array([2.0, 2.0]))
    b = cocain_bpg(p, cfg, np.array([2.0, 2.0]))
    return _traces_identical(a, b, "re-run is bit-identical", "re-run diverged")


def _certified_run():
    p = make_univariate("abssincos")
    cfg = SolverConfig(max_iters=200, store_iterates=True)
    res = cocain_bpg(p, cfg, np.array([13.0]))
    return p, res, LyapunovParams.from_run(res, p)


def _check_certificates():
    p, res, _ = _certified_run()
    ly, pb, ac = certify(res, p)
    ok = bool(ly) and bool(pb) and bool(ac)
    return ok, (
        f"lyapunov worst margin {ly.worst_violation:.3e}, prefix ok={bool(pb)}, "
        f"conditions ok={bool(ac)}"
    )


def _check_corrupted_lyapunov_control(field, verb, corrupt):
    """Lyapunov descent must fail at the middle record once its `field`
    is replaced by corrupt(value)."""
    p, res, params = _certified_run()
    mid = len(res.records) // 2
    value = corrupt(getattr(res.records[mid], field))
    rep = check_lyapunov_descent(replace_record(res.records, mid, **{field: value}),
                                 params)
    # the violated transition is reported by its Phi index, the corrupted
    # record's or one below
    caught = (not rep.passed) and abs(rep.worst_index - mid) <= 1
    return caught, (
        f"{verb} {field} at k={mid} caught at transition {rep.worst_index}"
        if caught else f"{verb} {field} slipped through"
    )


def _check_corrupted_y_control():
    p, res, params = _certified_run()
    mid = len(res.records) // 2
    records = replace_record(res.records, mid, y=res.records[mid].y * 1.5 + 0.1)
    rep = check_acceptance_conditions(records, p, params)
    caught = not rep.passed
    return caught, (
        f"inflated stored y at k={mid} caught at k={rep.worst_index}"
        if caught else "inflated stored y slipped through"
    )


def _suite_solvers():
    return [
        _result("solvers", "reduction_gamma_cap_zero", *_check_reduction_gamma_zero()),
        _result("solvers", "reduction_ipiano_beta_zero", *_check_reduction_ipiano_zero()),
        _result("solvers", "trace_determinism", *_check_determinism()),
        _result("solvers", "certificates_on_accepted_run", *_check_certificates()),
        _result("solvers", "corrupted_psi_negative_control",
                *_check_corrupted_lyapunov_control("psi", "bumped", lambda v: v + 1.0)),
        _result("solvers", "corrupted_tau_negative_control",
                *_check_corrupted_lyapunov_control("tau", "doubled", lambda v: v * 2.0)),
        _result("solvers", "corrupted_y_negative_control", *_check_corrupted_y_control()),
    ]


_SUITES = {
    "kernels": _suite_kernels,
    "prox": _suite_prox,
    "problems": _suite_problems,
    "solvers": _suite_solvers,
}
SCOPES = tuple(_SUITES)


def run_scope(scope):
    """Run one named suite; scope "all" chains the four in order."""
    if scope == "all":
        return [result for suite in _SUITES.values() for result in suite()]
    if scope not in _SUITES:
        raise ValueError(f"unknown verify scope: {scope!r}")
    return _SUITES[scope]()
