"""Acceptance gate: the eleven product-level criteria, one test each.

Each test prints a `criterion NN: PASS/FAIL (...)` line with the measured
numbers before asserting, so the gate's outcome is readable from the test
log alone.  Solver bundles shared between criteria are built once in
module fixtures and timed per run; every criterion's runtime budget is
charged exactly the build time of the runs it certifies plus its own check
time, so no second is double-counted.

Criterion 5 asks every corner start of the escape study to end within
1e-3 of the global minimizer of psi = f + g, the point the convergence
theory leads to, not of g's centre (1, 1).  psi is separable; for t > 0
and u = t - b (b the target coordinate) its per-coordinate stationarity
condition is rho*(1+2*lam)*u^2 + 2*lam*rho*(1+b)*u + 1 = 0, i.e.
200 u^2 + 200 u + 1 = 0 at the defaults, whose root near zero gives
t* = 0.99497...; (1, 1) is not critical because f's gradient there is
(1/2, 1/2).  Per coordinate, psi decreases for t < 0 and the other root
is a local maximum, so the minimizers lie among {0, t*}^2: the axis points
(0, 0), (0, t*), (t*, 0) are critical (|dg/dx_i| = 2*lam*rho/(1+rho) < 1
on a zero coordinate), and (t*, t*) has the least psi of the four.  The
target is `make_spurious2d`'s meta["minimizer"], computed from the
problem's own lam, rho and target, never from solver output.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cocain.cli import (
    CONTRAST_CONFIG,
    DENOISE_CONFIG,
    PHASE_RETRIEVAL_CONFIG,
    SPURIOUS_CONFIG,
    SWEEP_CONFIG,
)
from cocain.diagnostics import (
    LyapunovParams,
    check_cfi_bound,
    check_lyapunov_descent,
    check_prefix_bound,
)
from cocain.pgm import synthetic_blocks
from cocain.problems import (
    add_outlier_noise,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
    make_spurious2d,
    make_univariate,
)
from cocain.solvers import (
    SolverConfig,
    bpg_fixed,
    bpg_wb,
    cocain_bpg,
    cocain_bpg_cfi,
    cocain_bpg_no_backtracking,
    ipiano,
)
from cocain.verify import run_scope
from helpers import assert_traces_identical

GLOBAL_MIN_TOL = 1e-3


def _report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _timed(timings, key, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    timings[key] = time.perf_counter() - t0
    return out


def _params(result, problem):
    return LyapunovParams(
        result.config.delta, result.config.epsilon, problem.psi_lower_bound
    )


def _final_subopt(result, ref):
    return max(result.final_psi - ref, 0.0)


# ---------------------------------------------------------------------------
# shared bundles


@pytest.fixture(scope="module")
def contrast_runs():
    problem = make_univariate("abssincos")
    x0 = np.array([13.0])
    timings = {}
    runs = {
        "cocain": _timed(timings, "cocain", cocain_bpg, problem,
                         CONTRAST_CONFIG, x0),
        "bpg_wb": _timed(timings, "bpg_wb", bpg_wb, problem,
                         CONTRAST_CONFIG, x0),
        "cocain_nobt": _timed(timings, "cocain_nobt",
                              cocain_bpg_no_backtracking, problem,
                              CONTRAST_CONFIG, x0),
    }
    return problem, runs, timings


@pytest.fixture(scope="module")
def spurious_runs():
    problem = make_spurious2d()
    timings = {}
    corners = {}
    for corner in ((2.0, 2.0), (-2.0, 2.0), (2.0, -2.0), (-2.0, -2.0)):
        corners[corner] = _timed(
            timings, corner, cocain_bpg, problem, SPURIOUS_CONFIG,
            np.array(corner),
        )
    nobt = _timed(
        timings, "cocain_nobt", cocain_bpg_no_backtracking, problem,
        SPURIOUS_CONFIG, np.array([2.0, 2.0]),
    )
    return problem, corners, nobt, timings


@pytest.fixture(scope="module")
def pr_bundle():
    data = generate_phase_retrieval(10, 50, seed=0, noise_std=0.3)
    x0 = np.full(10, 2.0)
    cfg = PHASE_RETRIEVAL_CONFIG
    stored = replace(cfg, store_iterates=True)
    problems, runs, timings = {}, {}, {}
    for reg in ("l1", "sql2"):
        problem = make_phase_retrieval(data, reg=reg, lam=0.1)
        problems[reg] = problem
        runs[reg] = {
            "cocain": _timed(timings, (reg, "cocain"), cocain_bpg,
                             problem, cfg, x0),
            "cfi": _timed(timings, (reg, "cfi"), cocain_bpg_cfi,
                          problem, stored, x0),
            "bpg_wb": _timed(timings, (reg, "bpg_wb"), bpg_wb,
                             problem, cfg, x0),
            "bpg_fixed": _timed(timings, (reg, "bpg_fixed"), bpg_fixed,
                                problem, cfg, x0),
            "cocain_nobt": _timed(timings, (reg, "cocain_nobt"),
                                  cocain_bpg_no_backtracking,
                                  problem, cfg, x0),
        }
    return problems, runs, timings


@pytest.fixture(scope="module")
def denoise_bundle():
    noisy = add_outlier_noise(
        synthetic_blocks(32, 32), magnitude=1e5, fraction=0.05, seed=0
    )
    problem = make_robust_denoising(noisy, lam=10.0, rho=1.0)
    x0 = np.zeros(problem.dim)
    cfg = DENOISE_CONFIG
    timings = {}
    runs = {
        "cocain": _timed(timings, "cocain", cocain_bpg, problem, cfg, x0),
        "bpg_wb": _timed(timings, "bpg_wb", bpg_wb, problem, cfg, x0),
        "bpg_fixed": _timed(timings, "bpg_fixed", bpg_fixed, problem,
                            cfg, x0),
        "cocain_nobt": _timed(timings, "cocain_nobt",
                              cocain_bpg_no_backtracking, problem, cfg, x0),
    }
    return problem, runs, timings


@pytest.fixture(scope="module")
def certified_runs(contrast_runs, spurious_runs, pr_bundle, denoise_bundle):
    """(label, problem, result, seconds) for the descent-certified grid.

    The first block is the adaptive/closed-form/constant-inertia grid over
    the four problem families (criterion 1, whose budget it is charged to);
    the second adds the no-inertia runs, which satisfy the same Lyapunov
    theory with a collapsed base point (criterion 2 covers both blocks).
    """
    abs_problem, abs_runs, abs_times = contrast_runs
    sp_problem, sp_corners, sp_nobt, sp_times = spurious_runs
    pr_problems, pr_runs, pr_times = pr_bundle
    dn_problem, dn_runs, dn_times = denoise_bundle

    grid = [
        ("abssincos/cocain", abs_problem, abs_runs["cocain"],
         abs_times["cocain"]),
        ("abssincos/nobt", abs_problem, abs_runs["cocain_nobt"],
         abs_times["cocain_nobt"]),
        ("spurious/cocain", sp_problem, sp_corners[(2.0, 2.0)],
         sp_times[(2.0, 2.0)]),
        ("spurious/nobt", sp_problem, sp_nobt, sp_times["cocain_nobt"]),
    ]
    for reg in ("l1", "sql2"):
        for name in ("cocain", "cfi", "cocain_nobt"):
            grid.append((
                f"pr_{reg}/{name}", pr_problems[reg], pr_runs[reg][name],
                pr_times[(reg, name)],
            ))
    grid.append(("denoise/cocain", dn_problem, dn_runs["cocain"],
                 dn_times["cocain"]))
    grid.append(("denoise/nobt", dn_problem, dn_runs["cocain_nobt"],
                 dn_times["cocain_nobt"]))

    extra = [
        ("abssincos/bpg_wb", abs_problem, abs_runs["bpg_wb"],
         abs_times["bpg_wb"]),
        ("denoise/bpg_wb", dn_problem, dn_runs["bpg_wb"],
         dn_times["bpg_wb"]),
    ]
    for corner, res in sp_corners.items():
        if corner != (2.0, 2.0):
            extra.append((
                f"spurious/cocain{corner}", sp_problem, res,
                sp_times[corner],
            ))
    for reg in ("l1", "sql2"):
        extra.append((
            f"pr_{reg}/bpg_wb", pr_problems[reg], pr_runs[reg]["bpg_wb"],
            pr_times[(reg, "bpg_wb")],
        ))
    return grid, extra


@pytest.fixture(scope="module")
def sweep_finals():
    problem = make_univariate("abssincos")
    starts = np.linspace(-15.0, 15.0, 100)
    solvers = {
        "cocain": lambda x0: cocain_bpg(problem, SWEEP_CONFIG, x0),
        "ipiano": lambda x0: ipiano(problem, SWEEP_CONFIG, x0),
        "bpg_wb": lambda x0: bpg_wb(problem, SWEEP_CONFIG, x0),
    }
    t0 = time.perf_counter()
    finals = {
        name: np.array([solve(np.array([s])).final_psi for s in starts])
        for name, solve in solvers.items()
    }
    elapsed = time.perf_counter() - t0
    return problem, finals, elapsed


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_lyapunov_descent(certified_runs):
    grid, _ = certified_runs
    t0 = time.perf_counter()
    worst = 0.0
    for label, problem, result, _ in grid:
        report = check_lyapunov_descent(result.records, _params(result, problem))
        assert report.n_checked == len(result.records) - 2, label
        assert report.passed, (
            f"{label}: violation {report.worst_violation} "
            f"at record {report.worst_index}"
        )
        worst = max(worst, report.worst_violation)
    elapsed = sum(seconds for *_, seconds in grid) + time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(
        1, ok,
        f"descent holds on all {len(grid)} runs, worst normalized "
        f"violation {worst:.2e}, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_prefix_min_gap_bound(certified_runs):
    grid, extra = certified_runs
    worst = 0.0
    n_prefixes = 0
    for label, problem, result, _ in grid + extra:
        report = check_prefix_bound(result.records, _params(result, problem))
        assert report.passed, f"{label}: excess {report.worst_violation}"
        worst = max(worst, report.worst_violation)
        n_prefixes += report.n_checked
    _report(
        2, True,
        f"min-gap bound holds for every prefix ({n_prefixes} checked "
        f"across {len(grid) + len(extra)} runs), worst excess {worst:.2e}",
    )


def test_criterion_03_univariate_sweep(sweep_finals):
    problem, finals, elapsed = sweep_finals
    global_psi = problem.meta["global_psi"]
    counts = {
        name: int(np.sum(np.abs(vals - global_psi) <= GLOBAL_MIN_TOL))
        for name, vals in finals.items()
    }
    avg = float(finals["cocain"].mean())
    ok = (
        2.3 <= avg <= 3.2
        and counts["cocain"] > counts["ipiano"] > counts["bpg_wb"]
        and counts["cocain"] >= 45
        and elapsed < 30.0
    )
    _report(
        3, ok,
        f"average {avg:.3f} in [2.3, 3.2]; global-min counts "
        f"cocain {counts['cocain']} > ipiano {counts['ipiano']} > "
        f"bpg_wb {counts['bpg_wb']}; {elapsed:.1f}s < 30s",
    )


def test_criterion_04_single_start_contrast(contrast_runs):
    _, runs, timings = contrast_runs
    cocain_psi = runs["cocain"].final_psi
    wb_psi = runs["bpg_wb"].final_psi
    elapsed = timings["cocain"] + timings["bpg_wb"]
    ok = cocain_psi <= 0.58 and 8.3 <= wb_psi <= 8.6 and elapsed < 1.0
    _report(
        4, ok,
        f"from x0=13: cocain {cocain_psi:.4f} <= 0.58, "
        f"bpg_wb {wb_psi:.4f} in [8.3, 8.6], {elapsed:.2f}s < 1s",
    )


def test_criterion_05_spurious_escape(spurious_runs):
    problem, corners, _, timings = spurious_runs
    meta = problem.meta
    minimizer = meta["minimizer"]
    # support facts: each axis point is critical (f's subdifferential on a
    # zero coordinate is [-1, 1]; on a t* coordinate psi's gradient
    # vanishes), and the global minimizer lies strictly below all of them
    t1, t2 = minimizer
    for x in map(np.array, ([0.0, 0.0], [0.0, t2], [t1, 0.0])):
        on_axis = x == 0.0
        grad = problem.g_grad(x)
        assert np.all(np.abs(grad[on_axis]) <= 1.0), x
        np.testing.assert_allclose(
            grad[~on_axis] + 1.0 / (1.0 + x[~on_axis]), 0.0, atol=1e-9
        )
        assert problem.psi(minimizer) < problem.psi(x), x
    to_minimizer = max(
        float(np.linalg.norm(res.x - minimizer)) for res in corners.values()
    )
    for res in corners.values():
        assert problem.psi(res.x) < problem.psi(meta["target"])
    elapsed = sum(timings[c] for c in corners)
    ok = to_minimizer <= GLOBAL_MIN_TOL and elapsed < 5.0
    _report(
        5, ok,
        f"farthest of the four corner runs ends {to_minimizer:.1e} <= 1e-3 "
        f"from the global minimizer (t*, t*) = ({t1:.5f}, {t2:.5f}), past "
        f"the axis critical points; {elapsed:.2f}s < 5s",
    )
    # the runs converge to t*, not merely pass through the ball
    assert to_minimizer <= 1e-6


def test_criterion_06_phase_retrieval_ordering(pr_bundle):
    _, runs, timings = pr_bundle
    compared = ("cocain", "cfi", "bpg_wb", "bpg_fixed")
    details = []
    ok = True
    for reg in ("l1", "sql2"):
        ref = min(
            min(rec.psi for rec in runs[reg][name].records)
            for name in compared
        )
        sub = {name: _final_subopt(runs[reg][name], ref) for name in compared}
        ordered = sub["cocain"] <= sub["bpg_wb"] <= sub["bpg_fixed"]
        psi_c = runs[reg]["cocain"].final_psi
        psi_cfi = runs[reg]["cfi"].final_psi
        similar = abs(psi_c - psi_cfi) <= 0.05 * max(1.0, abs(psi_c))
        ok = ok and ordered and similar
        details.append(
            f"{reg}: {sub['cocain']:.2e} <= {sub['bpg_wb']:.2e} "
            f"<= {sub['bpg_fixed']:.2e}, |cfi gap| "
            f"{abs(psi_c - psi_cfi):.2e}"
        )
    elapsed = sum(timings[(reg, name)] for reg in ("l1", "sql2")
                  for name in compared)
    ok = ok and elapsed < 60.0
    _report(6, ok, "; ".join(details) + f"; {elapsed:.1f}s < 60s")


def test_criterion_07_cfi_distance_bound(pr_bundle):
    problems, runs, _ = pr_bundle
    worst = 0.0
    n = 0
    for reg in ("l1", "sql2"):
        report = check_cfi_bound(runs[reg]["cfi"].records, problems[reg])
        assert report.passed, f"{reg}: excess {report.worst_violation}"
        worst = max(worst, report.worst_violation)
        n += report.n_checked
    _report(
        7, True,
        f"distance estimate holds at all {n} iterations of both stored "
        f"closed-form-inertia runs, worst excess {worst:.2e}",
    )


def test_criterion_08_prox_oracle_equivalence():
    t0 = time.perf_counter()
    results = run_scope("prox")
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]
    ok = elapsed < 20.0
    _report(
        8, ok,
        f"all {len(results)} prox properties hold (grid equivalence, "
        f"first-order optimality, cubic residuals), {elapsed:.1f}s < 20s",
    )


def test_criterion_09_analytic_consistency():
    t0 = time.perf_counter()
    results = run_scope("kernels") + run_scope("problems")
    elapsed = time.perf_counter() - t0
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]
    ok = elapsed < 20.0
    _report(
        9, ok,
        f"all {len(results)} kernel/problem properties hold (three-points, "
        f"gradients, Hessian bound, sampled constants with "
        f"negative control), {elapsed:.1f}s < 20s",
    )


def test_criterion_10_denoising_ordering(denoise_bundle):
    problem, runs, timings = denoise_bundle
    psi = {name: runs[name].final_psi for name in runs}
    ordered = psi["cocain"] <= psi["bpg_wb"] <= psi["bpg_fixed"]
    lyapunov_ok = all(
        check_lyapunov_descent(
            runs[name].records, _params(runs[name], problem)
        ).passed
        for name in ("cocain", "bpg_wb", "cocain_nobt")
    )
    elapsed = sum(timings[name] for name in ("cocain", "bpg_wb", "bpg_fixed"))
    ok = ordered and lyapunov_ok and elapsed < 120.0
    _report(
        10, ok,
        f"final psi {psi['cocain']:.6f} <= {psi['bpg_wb']:.6f} <= "
        f"{psi['bpg_fixed']:.6f}; Lyapunov certificates pass; "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_11_reduction_identities():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=60, stop_tol=0.0, store_iterates=True)
    x0 = np.array([3.0])
    t0 = time.perf_counter()
    capped = cocain_bpg(problem, replace(cfg, gamma_cap=0.0), x0)
    plain = bpg_wb(problem, cfg, x0)
    heavy_ball_off = ipiano(problem, replace(cfg, beta=0.0), x0)
    assert_traces_identical(capped.records, plain.records)
    assert_traces_identical(heavy_ball_off.records, plain.records)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _report(
        11, ok,
        f"gamma_cap=0 and beta=0 traces match bpg_wb bit for bit over "
        f"{plain.iterations} iterations, {elapsed:.2f}s < 5s",
    )
