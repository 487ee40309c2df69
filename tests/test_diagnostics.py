"""Certificate checks: positive runs, arithmetic spots, negative controls.

Every check is exercised three ways where it makes sense: on a healthy
trace (must pass), on a synthetic trace with hand-computable numbers (must
reproduce the arithmetic), and on a deliberately corrupted copy of the
healthy trace (must fail, at the corrupted index).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cocain import cli
from cocain import diagnostics as diag
from cocain.diagnostics import (
    PROMISES,
    LyapunovParams,
    certify,
    check_acceptance_conditions,
    check_cfi_bound,
    check_function_descent,
    check_lyapunov_descent,
    check_prefix_bound,
    lyapunov_phi,
)
from cocain.problems import (
    generate_phase_retrieval,
    make_phase_retrieval,
    make_univariate,
)
from cocain.solvers import (
    SolverConfig,
    Trace,
    TraceRecord,
    cocain_bpg,
    cocain_bpg_cfi,
    cocain_bpg_no_backtracking,
    ipiano,
    replace_record,
)
from helpers import quadratic_problem, report_bits
from test_traces import PROBLEMS


def _record(k, psi, tau, dh=0.0):
    return TraceRecord(
        k=k, psi=psi, tau=tau, gamma=0.0, L_bar=1.0, L_lower=0.0,
        dh_prev_curr=dh, dh_curr_y=0.0, step_norm=0.0,
        lower_trials=0, upper_trials=0, wall_time_ns=0,
    )


@pytest.fixture(scope="module")
def logquad_run():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=80, stop_tol=0.0, store_iterates=True)
    result = cocain_bpg(problem, cfg, [3.0])
    params = LyapunovParams(cfg.delta, cfg.epsilon, problem.psi_lower_bound)
    return problem, result, params


@pytest.fixture(scope="module")
def abssincos_run():
    problem = make_univariate("abssincos")
    cfg = SolverConfig(max_iters=150, stop_tol=0.0)
    result = cocain_bpg(problem, cfg, [13.0])
    params = LyapunovParams(cfg.delta, cfg.epsilon, problem.psi_lower_bound)
    return problem, result, params


@pytest.fixture(scope="module")
def cfi_run():
    data = generate_phase_retrieval(5, 20, seed=3)
    problem = make_phase_retrieval(data, reg="l1", lam=0.1)
    cfg = SolverConfig(max_iters=60, stop_tol=0.0, store_iterates=True)
    result = cocain_bpg_cfi(problem, cfg, np.full(5, 2.0))
    params = LyapunovParams(cfg.delta, cfg.epsilon, problem.psi_lower_bound)
    return problem, result, params


@pytest.fixture(scope="module")
def frozen_quadratic_run():
    problem = quadratic_problem([8.0, 2.0])
    cfg = SolverConfig(
        L_bar_init=8.0, freeze_after=1, max_iters=60, stop_tol=0.0,
        store_iterates=True,
    )
    result = cocain_bpg(problem, cfg, [3.0, -2.0])
    params = LyapunovParams(cfg.delta, cfg.epsilon, 0.0)
    return problem, result, params


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        LyapunovParams(delta=0.5, epsilon=0.5, v_lower=0.0)
    with pytest.raises(ValueError):
        LyapunovParams(delta=1.0, epsilon=0.1, v_lower=0.0)


def test_params_from_run(logquad_run):
    problem, result, _ = logquad_run
    params = LyapunovParams.from_run(result, problem)
    assert params.delta == result.config.delta
    assert params.epsilon == result.config.epsilon
    assert params.v_lower == problem.psi_lower_bound


# ---------------------------------------------------------------------------
# Lyapunov function arithmetic


def test_phi_spot_value():
    records = Trace([_record(0, psi=2.0, tau=0.5),
                     _record(1, psi=2.0, tau=0.5, dh=0.1)])
    params = LyapunovParams(delta=0.99, epsilon=0.0099, v_lower=0.0)
    phi = lyapunov_phi(records, params)
    assert phi.shape == (1,)
    assert phi[0] == 0.5 * (2.0 - 0.0) + 0.99 * 0.1


def test_phi_vanishes_at_stationary_start():
    records = Trace([_record(0, psi=1.5, tau=0.5),
                     _record(1, psi=1.5, tau=0.5)])
    params = LyapunovParams(delta=0.99, epsilon=0.0099, v_lower=1.5)
    assert lyapunov_phi(records, params)[0] == 0.0


def test_phi_rejects_malformed_traces():
    params = LyapunovParams(delta=0.99, epsilon=0.0099, v_lower=0.0)
    with pytest.raises(ValueError):
        lyapunov_phi(Trace(), params)
    with pytest.raises(ValueError):
        lyapunov_phi(Trace([_record(1, psi=0.0, tau=1.0)]), params)


# ---------------------------------------------------------------------------
# descent certificate


def test_lyapunov_descent_passes_on_solver_runs(
    logquad_run, abssincos_run, cfi_run
):
    for problem, result, params in (logquad_run, abssincos_run, cfi_run):
        report = check_lyapunov_descent(result.records, params)
        assert report.passed, (
            f"{result.solver}/{problem.name}: violation "
            f"{report.worst_violation} at {report.worst_index}"
        )
        assert report.n_checked == len(result.records) - 2


def test_lyapunov_descent_passes_without_backtracking():
    problem = make_univariate("abssincos")
    cfg = SolverConfig(delta=0.985, epsilon=0.005, max_iters=80, stop_tol=0.0)
    result = cocain_bpg_no_backtracking(problem, cfg, [13.0])
    params = LyapunovParams(cfg.delta, cfg.epsilon, problem.psi_lower_bound)
    assert check_lyapunov_descent(result.records, params).passed


def test_lyapunov_descent_catches_objective_bump(abssincos_run):
    _, result, params = abssincos_run
    mid = len(result.records) // 2
    corrupted = replace_record(
        result.records, mid, psi=result.records[mid].psi + 1.0
    )
    report = check_lyapunov_descent(corrupted, params)
    assert not report.passed
    assert report.worst_index == mid - 1


def test_lyapunov_descent_catches_step_size_inflation(abssincos_run):
    # Phi weights the objective gap by the previous step size, so a doubled
    # tau shows up as a jump of tau * (psi - v) at the following record
    _, result, params = abssincos_run
    mid = len(result.records) // 2
    corrupted = replace_record(
        result.records, mid, tau=2.0 * result.records[mid].tau
    )
    report = check_lyapunov_descent(corrupted, params)
    assert not report.passed
    assert report.worst_index == mid


# ---------------------------------------------------------------------------
# prefix bound


def test_prefix_bound_passes_on_solver_runs(logquad_run, abssincos_run, cfi_run):
    for _, result, params in (logquad_run, abssincos_run, cfi_run):
        report = check_prefix_bound(result.records, params)
        assert report.passed, f"{result.solver}: excess {report.worst_violation}"
        assert report.details["phi1"] >= 0.0


def test_prefix_bound_catches_inflated_gaps(abssincos_run):
    # force every per-step distance to 1 while keeping Phi^1 at delta * 1,
    # so the telescoped budget is exhausted after delta/epsilon steps
    _, result, params = abssincos_run
    corrupted = list(result.records)
    for k in range(1, len(corrupted) - 1):
        corrupted = replace_record(corrupted, k, dh_prev_curr=1.0)
    corrupted = replace_record(corrupted, 1, psi=params.v_lower)
    report = check_prefix_bound(corrupted, params)
    assert not report.passed
    assert report.worst_index == len(result.records) - 2


# ---------------------------------------------------------------------------
# per-iteration conditions from stored iterates


def test_acceptance_conditions_pass_on_stored_runs(logquad_run, cfi_run):
    for problem, result, params in (logquad_run, cfi_run):
        report = check_acceptance_conditions(result.records, problem, params)
        assert report.passed, (
            f"{result.solver}: {report.details}"
        )
        assert report.n_checked == len(result.records) - 2


def test_acceptance_conditions_require_stored_iterates(abssincos_run):
    problem, result, params = abssincos_run
    with pytest.raises(ValueError):
        check_acceptance_conditions(result.records, problem, params)


def test_acceptance_conditions_cross_validate_extrapolation(logquad_run):
    problem, result, params = logquad_run
    k_bad = 2
    corrupted = replace_record(
        result.records, k_bad, gamma=result.records[k_bad].gamma + 0.25
    )
    report = check_acceptance_conditions(corrupted, problem, params)
    assert not report.passed
    assert report.details["cross_validation_index"] == k_bad
    assert report.details["cross_validation"] > 1e-10


# ---------------------------------------------------------------------------
# function descent


def test_function_descent_passes(logquad_run, cfi_run):
    for problem, result, _ in (logquad_run, cfi_run):
        assert check_function_descent(result.records, problem).passed


def test_function_descent_catches_objective_bump(logquad_run):
    problem, result, _ = logquad_run
    mid = len(result.records) // 2
    corrupted = replace_record(
        result.records, mid, psi=result.records[mid].psi + 1.0
    )
    report = check_function_descent(corrupted, problem)
    assert not report.passed
    assert report.worst_index == mid - 1


# ---------------------------------------------------------------------------
# frozen tail: sufficient decrease is Lyapunov descent


def test_two_phase_lyapunov_forms_agree(frozen_quadratic_run):
    # on a frozen phase with step size tau_f, tau_f * (u_k - v) recovers
    # Phi^k, where u_k = Psi(x^k) + (delta / tau_f) D_h(x^{k-1}, x^k): so
    # Lyapunov descent is the sufficient decrease of u, scaled by tau_f
    _, result, params = frozen_quadratic_run
    phi = lyapunov_phi(result.records, params)
    tau_f = result.records[-1].tau
    for k in (1, 3, 10):
        rec = result.records[k]
        u_k = rec.psi + params.delta / tau_f * rec.dh_prev_curr
        assert phi[k - 1] == pytest.approx(
            tau_f * (u_k - params.v_lower), rel=1e-12
        )


# ---------------------------------------------------------------------------
# closed-form inertia distance estimate


def test_cfi_bound_holds_on_cfi_run(cfi_run):
    problem, result, _ = cfi_run
    report = check_cfi_bound(result.records, problem)
    assert report.passed
    assert report.n_checked == len(result.records) - 2


def test_cfi_bound_catches_understated_gamma(cfi_run):
    problem, result, _ = cfi_run
    k_bad = next(
        k for k in range(1, len(result.records) - 1)
        if result.records[k].dh_curr_y > 1e-6
    )
    corrupted = replace_record(result.records, k_bad, gamma=0.0)
    report = check_cfi_bound(corrupted, problem)
    assert not report.passed
    assert report.worst_index == k_bad


# ---------------------------------------------------------------------------
# the promise table


def test_promises_cover_every_cli_solver():
    assert set(PROMISES) == set(cli.SOLVERS)


def test_certify_runs_exactly_the_promised_checks():
    # no check is promised without a runner, and none runs without a row
    assert set(diag._CHECKS) == set().union(*PROMISES.values())
    assert diag._NEEDS_ITERATES <= set(diag._CHECKS)


def test_certify_reports_the_promised_checks(logquad_run, cfi_run):
    for (problem, result, _), solver in ((logquad_run, "cocain"),
                                         (cfi_run, "cfi")):
        reports = certify(result, problem)
        assert [r.name for r in reports] == list(PROMISES[solver])
        assert all(reports)


def test_certify_skips_acceptance_without_iterates(abssincos_run, cfi_run):
    # and the cfi bound, the other check that reads stored iterates
    pr_problem = cfi_run[0]
    unstored_cfi = cocain_bpg_cfi(pr_problem, SolverConfig(max_iters=20),
                                  np.full(5, 2.0))
    for problem, result in (abssincos_run[:2], (pr_problem, unstored_cfi)):
        reports = certify(result, problem)
        assert [r.name for r in reports] == ["lyapunov_descent",
                                             "prefix_bound"]
        assert all(reports)


def test_certify_holds_ipiano_to_nothing():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=20, store_iterates=True)
    assert certify(ipiano(problem, cfg, [3.0]), problem) == []


# ---------------------------------------------------------------------------
# non-finite traces: a NaN or an infinity in a checked column fails the
# check with an infinite violation where the value first enters


@pytest.mark.parametrize("field,value,expected", [
    ("psi", math.nan, {"descent": -1, "function": -1}),
    ("tau", math.nan, {"descent": 0, "function": 0}),
    ("dh_prev_curr", math.nan, {"descent": -1, "prefix": 0, "function": -1}),
    ("psi", math.inf, {"descent": -1, "function": -1}),
])
def test_nonfinite_value_fails_trace_checks(abssincos_run, field, value,
                                            expected):
    problem, result, params = abssincos_run
    mid = len(result.records) // 2
    corrupted = replace_record(result.records, mid, **{field: value})
    reports = {
        "descent": check_lyapunov_descent(corrupted, params),
        "prefix": check_prefix_bound(corrupted, params),
        "function": check_function_descent(corrupted, problem),
    }
    for name, report in reports.items():
        if name in expected:
            assert not report.passed, name
            assert report.worst_violation == math.inf, name
            assert report.worst_index == mid + expected[name], name
        else:
            assert report.passed, name


def test_nonfinite_value_fails_stored_and_tail_checks(logquad_run, cfi_run):
    problem, result, params = logquad_run
    k = 5
    report = check_acceptance_conditions(
        replace_record(result.records, k, dh_curr_y=math.nan), problem, params)
    assert not report.passed
    assert report.details["cross_validation"] == math.inf
    assert report.details["cross_validation_index"] == k
    report = check_acceptance_conditions(
        replace_record(result.records, k, L_lower=math.nan), problem, params)
    assert not report.passed
    assert (report.worst_violation, report.worst_index) == (math.inf, k)

    problem, result, _ = cfi_run
    report = check_cfi_bound(
        replace_record(result.records, k, gamma=math.nan), problem)
    assert not report.passed
    assert (report.worst_violation, report.worst_index) == (math.inf, k)


def test_reports_hold_plain_python_values(abssincos_run):
    _, result, params = abssincos_run
    mid = len(result.records) // 2
    failing = replace_record(result.records, mid,
                             psi=result.records[mid].psi + 1.0)
    for records in (result.records, failing):
        report = check_lyapunov_descent(records, params)
        assert type(report.passed) is bool
        assert type(report.n_checked) is int
        assert type(report.worst_violation) is float
        assert type(report.worst_index) is int
    assert not report.passed


# ---------------------------------------------------------------------------
# packed traces


@pytest.mark.parametrize("problem_name",
                         ["logquad", "spurious2d", "phase_retrieval", "denoise"])
def test_checks_read_a_trace_and_its_list_alike(problem_name):
    # a run's trace and the Trace packed from its list of records give the
    # same report, bit for bit
    problem, config, x0 = PROBLEMS[problem_name]()
    result = cocain_bpg(problem, replace(config, store_iterates=True), x0)
    params = LyapunovParams.from_run(result, problem)
    records = list(result.records)
    skipped = Trace(records[:5] + records[6:])
    for name, check in diag._CHECKS.items():
        assert report_bits(check(result.records, problem, params)) == \
            report_bits(check(Trace(records), problem, params)), name
        with pytest.raises(ValueError, match="record 5 has k=6"):
            check(skipped, problem, params)


@pytest.mark.parametrize("layout, message", [
    (lambda records: records[:5] + records[6:], "record 5 has k=6"),
    (lambda records: [], "empty trace"),
    (lambda records: records[1:], "record 0 has k=1"),
], ids=["skipped", "empty", "from_k1"])
def test_checks_reject_a_malformed_trace(logquad_run, layout, message):
    # the layout check comes first, before any iterate or value is read
    problem, result, params = logquad_run
    trace = Trace(layout(list(result.records)))
    for name, check in diag._CHECKS.items():
        with pytest.raises(ValueError, match=message):
            check(trace, problem, params)
    with pytest.raises(ValueError, match=message):
        lyapunov_phi(trace, params)
