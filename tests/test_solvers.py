"""Solver loop invariants, frozen backtracking counts, and reductions.

The quadratic escalation count is exact arithmetic: for g = (L0/2) x^2 on
the Euclidean kernel the majorant inequality holds iff the trial constant
is at least L0 along the step, so a ladder seeded at L0/4 with ratio 2 is
accepted on its third trial.  The frozen extrapolation factors come from
the closed form sqrt((delta - eps) / (1 + L * tau)); sqrt(0.98 / 2) and
sqrt(0.5 / 2) are exactly 0.7 and 0.5 in binary floating point.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cocain import solvers
from cocain.cli import SWEEP_CONFIG
from cocain.diagnostics import (
    LyapunovParams,
    check_acceptance_conditions,
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
    TERM_BACKTRACK_FAILURE,
    TERM_MAX_ITERS,
    TERM_NON_FINITE,
    TERM_STEP_TOL,
    TRACE_FIELDS,
    IterateState,
    SolverConfig,
    Trace,
    bpg_fixed,
    bpg_wb,
    cocain_bpg,
    cocain_bpg_cfi,
    cocain_bpg_no_backtracking,
    find_gamma,
    find_gamma_cfi,
    ipiano,
    lower_backtrack,
    replace_record,
)
from cocain.tol import geq, leq
from helpers import assert_traces_identical, quadratic_problem


def _state(problem, x_prev, x_curr, tau_prev=1.0, L_bar_prev=1.0,
           L_lower_prev=0.0):
    x_prev = np.asarray(x_prev, dtype=float)
    x_curr = np.asarray(x_curr, dtype=float)
    return IterateState(
        k=1, x_curr=x_curr, delta=x_curr - x_prev,
        g_prev=problem.evaluate(x_prev), g_curr=problem.evaluate(x_curr),
        dh_prev_curr=problem.kernel.bregman(x_prev, x_curr),
        tau_prev=tau_prev, L_bar_prev=L_bar_prev,
        L_lower_prev=L_lower_prev,
    )


def _mid_records(result):
    return result.records[1:result.iterations + 1]


# ---------------------------------------------------------------------------
# configuration contracts


def test_config_epsilon_defaults_to_hundredth_of_delta():
    cfg = SolverConfig(delta=0.5)
    assert cfg.epsilon == 0.005


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 1.0},
        {"delta": 0.0},
        {"delta": 0.5, "epsilon": 0.5},
        {"delta": 0.5, "epsilon": 0.0},
        {"nu_lower": 1.0},
        {"nu_upper": 0.5},
        {"L_bar_init": 0.0},
        {"L_bar_init": -2.0},
        {"gamma_cap": 1.5},
        {"gamma_cap": -0.1},
        {"max_backtracks": 0},
        {"max_iters": 0},
        {"stop_tol": -1e-9},
        {"L_lower_value": 0.0},
        {"freeze_after": 0},
        {"max_iters": 2.5},
        {"max_backtracks": 3.5},
        {"freeze_after": 2.5},
        {"max_iters": True},
        {"max_backtracks": True},
        {"freeze_after": True},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_config_accepts_numpy_integer_counts():
    # the majorant ladder 2, 4, 8 needs all three trials on this quadratic
    cfg = SolverConfig(L_bar_init=2.0, stop_tol=0.0, max_iters=np.int64(3),
                       max_backtracks=np.int32(3))
    result = cocain_bpg(quadratic_problem([8.0]), cfg, [1.0])
    assert result.termination == TERM_MAX_ITERS
    assert result.iterations == 3
    assert result.records[1].upper_trials == 3


# ---------------------------------------------------------------------------
# extrapolation factor


def test_find_gamma_euclidean_closed_form():
    problem = quadratic_problem([1.0, 1.0])
    cfg = SolverConfig(delta=0.6, epsilon=0.1)
    state = _state(problem, [0.0, 0.0], [1.0, 1.0], tau_prev=1.0)
    gamma, y, dh_curr_y = find_gamma(state, 1.0, cfg, problem)
    assert gamma == 0.5
    # the base point and its distance come with the factor
    assert np.array_equal(y, state.x_curr + gamma * state.delta)
    assert dh_curr_y == problem.kernel.bregman(state.x_curr, y)
    # the inertia condition holds with equality at the closed-form factor
    scale = 1.0 + 1.0 * state.tau_prev
    lhs = scale * dh_curr_y
    rhs = (cfg.delta - cfg.epsilon) * state.dh_prev_curr
    assert lhs == rhs == 0.5


def test_find_gamma_respects_cap():
    problem = quadratic_problem([1.0, 1.0])
    cfg = SolverConfig(delta=0.6, epsilon=0.1, gamma_cap=0.3)
    state = _state(problem, [0.0, 0.0], [1.0, 1.0], tau_prev=1.0)
    assert find_gamma(state, 1.0, cfg, problem)[0] == 0.3


def test_find_gamma_kappa_form_root_also_satisfies_condition():
    # the conservative general-kernel factor (-1 + sqrt(1 + 8k)) / 4 with
    # k = (delta - eps) / (1 + L * tau) is dominated by the closed form
    problem = quadratic_problem([1.0, 1.0])
    cfg = SolverConfig(delta=0.6, epsilon=0.1)
    state = _state(problem, [0.0, 0.0], [1.0, 1.0], tau_prev=1.0)
    kappa = (cfg.delta - cfg.epsilon) / (1.0 + 1.0 * state.tau_prev)
    gamma_star = (-1.0 + math.sqrt(1.0 + 8.0 * kappa)) / 4.0
    assert gamma_star == pytest.approx(0.1830127018922193, abs=1e-16)
    assert gamma_star <= find_gamma(state, 1.0, cfg, problem)[0]
    y = state.x_curr + gamma_star * state.delta
    scale = 1.0 + 1.0 * state.tau_prev
    assert leq(
        scale * problem.kernel.bregman(state.x_curr, y),
        (cfg.delta - cfg.epsilon) * state.dh_prev_curr,
    )


def test_find_gamma_equal_iterates_returns_candidate():
    # with x_prev = x_curr the base point is x_curr for every factor, so
    # even the quartic kernel keeps the unconstrained candidate
    data = generate_phase_retrieval(3, 6, seed=0)
    problem = make_phase_retrieval(data, reg="l1", lam=0.1)
    cfg = SolverConfig(delta=0.6, epsilon=0.1)
    x = np.array([0.5, -1.0, 2.0])
    state = _state(problem, x, x, tau_prev=1.0)
    assert find_gamma(state, 1.0, cfg, problem)[0] == 0.5


def test_find_gamma_cfi_zero_displacement():
    data = generate_phase_retrieval(3, 6, seed=0)
    problem = make_phase_retrieval(data, reg="l1", lam=0.1)
    cfg = SolverConfig()
    x = np.array([0.5, -1.0, 2.0])
    gamma, y, dh_curr_y = find_gamma_cfi(_state(problem, x, x), 1.0, cfg,
                                         problem)
    assert gamma == 0.0 and dh_curr_y == 0.0
    assert np.array_equal(y, x)


def test_find_gamma_cfi_satisfies_inertia_condition():
    # the closed form rests on a displacement bound whose quartic remainder
    # is absorbed only for steps of norm <= 1, the regime the solver is in
    # whenever consecutive iterates are close; sample states accordingly
    data = generate_phase_retrieval(4, 8, seed=1)
    problem = make_phase_retrieval(data, reg="l1", lam=0.1)
    cfg = SolverConfig()
    rng = np.random.default_rng(7)
    for _ in range(50):
        x_curr = rng.uniform(-2.0, 2.0, 4)
        x_prev = x_curr + rng.uniform(-0.35, 0.35, 4)
        tau_prev = float(rng.uniform(0.05, 1.0))
        L_lo = float(rng.uniform(0.1, 10.0))
        state = _state(problem, x_prev, x_curr, tau_prev=tau_prev)
        gamma, y, dh_curr_y = find_gamma_cfi(state, L_lo, cfg, problem)
        assert 0.0 <= gamma <= cfg.gamma_cap
        assert dh_curr_y == problem.kernel.bregman(state.x_curr, y)
        lhs = (1.0 + L_lo * tau_prev) * dh_curr_y
        rhs = (cfg.delta - cfg.epsilon) * state.dh_prev_curr
        assert leq(lhs, rhs)


def test_euclidean_inertia_holds_where_the_step_cancels():
    # |x^k| ~ 1e4 against unit steps: y - x^k rounds, and the closed-form
    # factor, taken untested, broke the inertia condition by 1.46e-12 at
    # record 16
    image = add_outlier_noise(synthetic_blocks(3, 5), magnitude=1e4,
                              fraction=1.0, seed=0)
    problem = make_robust_denoising(image, lam=1, rho=1, data_term="sql2")
    cfg = SolverConfig(delta=0.5, epsilon=0.25, L_bar_init=1.0, max_iters=60,
                       stop_tol=0.0, store_iterates=True)
    result = cocain_bpg(problem, cfg, -np.ones(problem.dim))
    report = check_acceptance_conditions(
        result.records, problem, LyapunovParams.from_run(result, problem))
    assert report.passed, report.details


def test_lower_backtrack_one_trial_on_convex_objective():
    problem = quadratic_problem([2.0, 1.0])
    cfg = SolverConfig()
    state = _state(problem, [1.0, 1.0], [0.5, 0.25], tau_prev=0.5)
    L_lower, gamma, y, g_y, dh_curr_y, trials = lower_backtrack(
        state, cfg, problem
    )
    assert trials == 1
    assert L_lower == cfg.L_lower_value
    assert g_y.value == problem.g_value(y)
    assert dh_curr_y == problem.kernel.bregman(state.x_curr, y)


def _lower_backtrack_every_rung(state, config, problem, gamma_rule=find_gamma):
    """`lower_backtrack` without its reuse: every trial extrapolates its own
    evaluation and forms the whole right side of the minorant test."""
    g_curr = state.g_curr
    L_lo = max(config.L_lower_value, state.L_lower_prev / config.nu_lower)
    for trial in range(1, config.max_backtracks + 1):
        gamma, y, dh_curr_y = gamma_rule(state, L_lo, config, problem)
        g_y = g_curr.extrapolated(state.g_prev, gamma, y)
        rhs = g_y.value + g_y.slope_to(g_curr) - L_lo * dh_curr_y
        if geq(g_curr.value, rhs):
            return L_lo, gamma, y, g_y, dh_curr_y, trial
        L_lo *= config.nu_lower
    return None


# the sweep's starts: cocain sweep --kind abssincos, 100 starts on [-15, 15]
_SWEEP_STARTS = np.linspace(-15.0, 15.0, 100)


def test_repeated_gamma_reuses_the_rung_evaluation():
    # under SWEEP_CONFIG gamma stays at its cap of 0.88 while
    # L_lower * tau < 0.272, so consecutive rungs often share a base point;
    # without the reuse this run makes 139 g_value and 88 g_grad calls
    problem = make_univariate("abssincos")
    calls = {"value": 0, "grad": 0}

    def counted(name, oracle):
        def call(x):
            calls[name] += 1
            return oracle(x)
        return call

    counted_problem = replace(problem,
                              g_value=counted("value", problem.g_value),
                              g_grad=counted("grad", problem.g_grad))
    x0 = [_SWEEP_STARTS[15]]
    result = cocain_bpg(counted_problem, SWEEP_CONFIG, x0)
    assert result.iterations == 45
    assert sum(rec.lower_trials for rec in result.records) == 88
    assert calls == {"value": 108, "grad": 57}
    assert_traces_identical(result.records,
                            cocain_bpg(problem, SWEEP_CONFIG, x0).records)


def test_rung_reuse_keeps_the_traces_of_evaluating_every_rung(monkeypatch):
    problem = make_univariate("abssincos")
    runs = [cocain_bpg(problem, SWEEP_CONFIG, [s]) for s in _SWEEP_STARTS]
    monkeypatch.setattr(solvers, "lower_backtrack", _lower_backtrack_every_rung)
    for s, result in zip(_SWEEP_STARTS, runs):
        assert_traces_identical(
            result.records, cocain_bpg(problem, SWEEP_CONFIG, [s]).records)


# ---------------------------------------------------------------------------
# frozen escalation count


def test_upper_backtrack_escalates_exactly_twice_on_quadratic():
    problem = quadratic_problem([8.0])
    cfg = SolverConfig(L_bar_init=2.0, max_iters=10)
    result = cocain_bpg(problem, cfg, [1.0])
    first = result.records[1]
    assert first.upper_trials == 3
    assert first.L_bar == 8.0
    assert first.tau == 0.125
    # once the constant matches the curvature the step lands on the minimizer
    assert result.x[0] == 0.0
    assert result.termination == TERM_STEP_TOL


def test_zero_stop_tol_runs_the_budget_on_a_zero_step():
    # the zero steps after landing on the minimizer pass no test at
    # stop_tol = 0, where max |delta_i| < 0 cannot hold
    problem = quadratic_problem([8.0])
    cfg = SolverConfig(L_bar_init=2.0, stop_tol=0.0, max_iters=10)
    result = cocain_bpg(problem, cfg, [1.0])
    assert result.x[0] == 0.0
    assert result.termination == TERM_MAX_ITERS
    assert result.iterations == 10


# ---------------------------------------------------------------------------
# accepted-parameter laws


def test_parameter_laws_along_a_run():
    problem = make_univariate("abssincos")
    cfg = SolverConfig(max_iters=200, stop_tol=0.0)
    result = cocain_bpg(problem, cfg, [13.0])
    records = result.records
    assert result.iterations == 200
    for k in range(1, result.iterations + 1):
        r = records[k]
        assert r.L_bar >= records[k - 1].L_bar or k == 1
        assert r.tau == min(records[k - 1].tau, 1.0 / r.L_bar)
        assert r.tau * r.L_bar <= 1.0 + 1e-12
        assert 0.0 <= r.gamma <= cfg.gamma_cap
        assert r.lower_trials >= 1 and r.upper_trials >= 1
        assert r.dh_prev_curr >= 0.0 and r.dh_curr_y >= 0.0
    # majorant never decreases across the whole run
    L_bars = [r.L_bar for r in _mid_records(result)]
    assert all(b >= a for a, b in zip(L_bars, L_bars[1:]))


def test_trace_layout():
    problem = make_univariate("logquad")
    result = cocain_bpg(problem, SolverConfig(max_iters=30), [3.0])
    records = result.records
    assert len(records) == result.iterations + 2
    assert [r.k for r in records] == list(range(len(records)))
    # the run starts from a duplicated iterate
    assert records[0].psi == records[1].psi
    for r in (records[0], records[-1]):
        assert r.gamma == 0.0 and r.L_lower == 0.0
        assert r.lower_trials == 0 and r.upper_trials == 0
        assert r.dh_curr_y == 0.0
        assert r.x is None and r.y is None
    assert records[0].dh_prev_curr == 0.0 and records[0].step_norm == 0.0
    assert result.final_psi == records[-1].psi
    assert result.problem == "logquad"


def test_trace_records_are_immutable():
    result = cocain_bpg(make_univariate("logquad"),
                        SolverConfig(max_iters=5, stop_tol=0.0), [3.0])
    rec = result.records[2]
    with pytest.raises(AttributeError):
        rec.L_bar = 0.0
    corrupted = replace_record(result.records, 2, L_bar=0.0, psi=-1.0)
    assert (corrupted[2].L_bar, corrupted[2].psi) == (0.0, -1.0)
    assert corrupted[2]._replace(L_bar=rec.L_bar, psi=rec.psi) == rec
    assert result.records[2] == rec and rec.L_bar > 0.0
    assert corrupted[:2] == result.records[:2]
    assert TRACE_FIELDS == (
        "k", "psi", "tau", "gamma", "L_bar", "L_lower", "dh_prev_curr",
        "dh_curr_y", "step_norm", "lower_trials", "upper_trials")


def test_replace_record_returns_a_trace_of_the_stored_points():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=12, stop_tol=0.0, store_iterates=True)
    trace = cocain_bpg(problem, cfg, [3.0]).records
    for records in (trace, list(trace)):
        corrupted = replace_record(records, 4, psi=-1.0, gamma=math.nan)
        assert isinstance(corrupted, Trace)
        assert_traces_identical(corrupted[:4] + corrupted[5:],
                                trace[:4] + trace[5:])
        assert repr(corrupted[4]) == repr(
            trace[4]._replace(psi=-1.0, gamma=math.nan))
        # the input's own arrays, not copies
        assert all(a is b for a, b in zip(corrupted.x, trace.x, strict=True))
        assert all(a is b for a, b in zip(corrupted.y, trace.y, strict=True))


def test_trace_reads_back_the_records_it_packed():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=12, stop_tol=0.0, store_iterates=True)
    trace = cocain_bpg(problem, cfg, [3.0]).records
    assert isinstance(trace, Trace) and len(trace) == 14
    records = list(trace)
    assert [rec.k for rec in records] == list(range(14))
    assert trace[-1] == trace[13] == records[13]
    assert trace[3:6] == records[3:6] and trace[::5] == records[::5]
    with pytest.raises(IndexError):
        trace[14]
    # a list packs into rows that read back bit for bit, -0.0 and NaN too
    edge = records + [records[1]._replace(k=14, psi=-0.0, gamma=math.nan,
                                          wall_time_ns=2**63 - 1)]
    again = Trace(edge)
    assert_traces_identical(again[:14], records)
    assert repr(again[14]) == repr(edge[14])  # repr tells -0.0 from 0.0
    # a column is a copy: it holds no view that would block an append
    psi = again.column("psi")
    assert psi.dtype == np.float64 and psi.tolist()[:14] == [
        rec.psi for rec in records]
    again.append(*records[0])
    assert len(again) == 16 and again.column("k")[-1] == 0.0


def test_trace_retains_at_most_160_bytes_per_record():
    # 96 packed bytes a record, and an x and a y slot, against about 367 B
    # for a named tuple and its float objects
    problem = make_univariate("abssincos")
    cfg = SolverConfig(max_iters=2000, stop_tol=0.0)
    cocain_bpg(problem, cfg, [13.0])  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = cocain_bpg(problem, cfg, [13.0])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.termination == TERM_MAX_ITERS
    assert retained <= 160 * len(result.records), retained / len(result.records)


def test_stored_iterates_reproduce_logged_quantities():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=25, stop_tol=0.0, store_iterates=True)
    result = cocain_bpg(problem, cfg, [3.0])
    records = result.records
    kernel = problem.kernel
    np.testing.assert_array_equal(records[0].x, np.array([3.0]))
    np.testing.assert_array_equal(records[-1].x, result.x)
    for k in range(1, result.iterations + 1):
        r = records[k]
        y_expected = r.x + r.gamma * (r.x - records[k - 1].x)
        np.testing.assert_array_equal(r.y, y_expected)
        assert r.dh_prev_curr == kernel.bregman(records[k - 1].x, r.x)
        assert r.step_norm == float(np.linalg.norm(r.x - records[k - 1].x))
        assert r.psi == pytest.approx(problem.psi(r.x), abs=1e-12)


def test_callback_sees_each_accepted_record():
    seen = []
    problem = make_univariate("logquad")
    result = cocain_bpg(
        problem, SolverConfig(max_iters=10, stop_tol=0.0), [2.0],
        callback=seen.append,
    )
    assert len(seen) == result.iterations
    assert seen == result.records[1:-1]


def test_deterministic_rerun():
    data = generate_phase_retrieval(6, 20, seed=5)
    problem = make_phase_retrieval(data, reg="l1", lam=0.1)
    cfg = SolverConfig(max_iters=40, stop_tol=0.0, store_iterates=True)
    a = cocain_bpg(problem, cfg, np.full(6, 1.5))
    b = cocain_bpg(problem, cfg, np.full(6, 1.5))
    assert_traces_identical(a.records, b.records)


# ---------------------------------------------------------------------------
# terminations


def test_terminates_on_small_step():
    result = cocain_bpg(make_univariate("logquad"), SolverConfig(), [1.0])
    assert result.termination == TERM_STEP_TOL
    assert result.iterations < 1000
    assert abs(result.x[0]) < 1e-6


_TINY = 5e-324  # the smallest subnormal


@pytest.mark.parametrize("stop_tol", [0.0, 1e-9])
@pytest.mark.parametrize("step", [
    [0.0], [-0.0], [0.0, -0.0], [_TINY], [-_TINY, 0.0], [2.0e-308, -1e-300],
    [1e-10, -1e-10], [-1e-9], [1e-8, 0.0], [math.inf], [-math.inf],
    [_TINY, -math.inf], [math.nan], [0.0, math.nan], [math.nan, -0.0],
    [math.nan, math.inf],
])
def test_stop_decision_matches_two_reductions(step, stop_tol):
    # one step from 0 to a scripted point: delta is the point itself, and a
    # run of one iteration ends in step_tol exactly when the stop test fires
    step = np.array(step)
    problem = replace(
        quadratic_problem(np.zeros(step.size)),
        f_prox_step=lambda grad_h, grad_g, tau: step.copy(),
        g_value=lambda x: 0.0)
    cfg = SolverConfig(L=1.0, max_iters=1, stop_tol=stop_tol)
    result = bpg_fixed(problem, cfg, np.zeros(step.size))
    assert result.iterations == 1
    stops = max(step.max(), -step.min()) < stop_tol
    assert result.termination == (TERM_STEP_TOL if stops else TERM_MAX_ITERS)


def test_terminates_on_iteration_budget():
    cfg = SolverConfig(max_iters=3, stop_tol=0.0)
    result = cocain_bpg(make_univariate("logquad"), cfg, [3.0])
    assert result.termination == TERM_MAX_ITERS
    assert result.iterations == 3
    assert len(result.records) == 5


def test_upper_backtrack_failure_is_reported():
    cfg = SolverConfig(L_bar_init=1e-8, max_backtracks=1)
    result = cocain_bpg(make_univariate("logquad"), cfg, [13.0])
    assert result.termination == TERM_BACKTRACK_FAILURE
    assert result.reason == "majorant ladder ran out at iteration 1"
    assert result.iterations == 0
    assert len(result.records) == 2


def test_lower_backtrack_failure_is_reported():
    # one trial with a vanishing minorant constant cannot certify the
    # concave stretch of the sigmoid once real inertia kicks in
    cfg = SolverConfig(L_bar_init=100.0, max_backtracks=1, stop_tol=0.0)
    result = cocain_bpg(make_univariate("sigmoid"), cfg, [-2.0])
    assert result.termination == TERM_BACKTRACK_FAILURE
    assert result.iterations >= 1
    assert result.reason == (
        f"minorant ladder ran out at iteration {result.iterations + 1}")


def _assert_stopped_on_last_accepted_state(result):
    """Every logged Psi is finite, and the final record repeats the last
    accepted step size and majorant."""
    assert np.all(np.isfinite([rec.psi for rec in result.records]))
    last, final = result.records[-2], result.records[-1]
    assert (final.tau, final.L_bar) == (last.tau, last.L_bar)
    assert final.k == result.iterations + 1


def test_non_finite_objective_ends_the_run():
    # g drops to -inf below 1.  Both ladders accept -inf (a +inf value
    # would fail the majorant test and end the run as a backtrack_failure),
    # and with gamma_cap = 0.3 and tau = 1/4 the step of iteration 6
    # crosses 1 before the extrapolated point does, so Psi(x_next) is the
    # first -inf.  Freezing at that step raises the majorant to smad_L = 8,
    # which the final record must not show.
    problem = replace(quadratic_problem([1.0]), smad_L=8.0, g_value=lambda x: (
        -math.inf if x[0] < 1.0 else 0.5 * float(x[0] ** 2)))
    cfg = SolverConfig(L_bar_init=4.0, gamma_cap=0.3, stop_tol=0.0,
                       freeze_after=6)
    result = cocain_bpg(problem, cfg, [10.0])
    assert result.termination == TERM_NON_FINITE
    assert result.reason == "objective became non-finite at iteration 6"
    assert result.iterations == 5
    _assert_stopped_on_last_accepted_state(result)
    assert result.records[-1].L_bar == 4.0
    params = LyapunovParams(cfg.delta, cfg.epsilon, problem.psi_lower_bound)
    for check in (check_lyapunov_descent, check_prefix_bound):
        report = check(result.records, params)
        assert report.passed and report.n_checked > 0, report.name


@pytest.mark.parametrize("solver", [cocain_bpg, bpg_fixed])
def test_arithmetic_error_in_a_rule_ends_the_run(solver):
    # a prox solve that gives up once the step would land below 1
    def prox_step(grad_h, grad_g, tau):
        x = grad_h - tau * grad_g
        if x[0] < 1.0:
            raise FloatingPointError("prox gave up")
        return x

    problem = replace(quadratic_problem([1.0]), f_prox_step=prox_step)
    cfg = SolverConfig(L_bar_init=4.0, L=4.0, gamma_cap=0.3, stop_tol=0.0)
    result = solver(problem, cfg, [10.0])
    assert result.termination == TERM_NON_FINITE
    assert result.reason == f"prox gave up at iteration {result.iterations + 1}"
    assert result.iterations >= 3
    assert result.x[0] >= 1.0
    _assert_stopped_on_last_accepted_state(result)


# ---------------------------------------------------------------------------
# setup validation


def test_barrier_on_initial_majorant():
    # weakly convex f forces L_bar_init > -alpha / ((1 - delta) * sigma)
    problem = make_spurious2d()
    with pytest.raises(ValueError):
        cocain_bpg(problem, SolverConfig(), [2.0, 2.0])
    result = cocain_bpg(
        problem, SolverConfig(L_bar_init=101.0, max_iters=3, stop_tol=0.0),
        [2.0, 2.0],
    )
    assert result.iterations == 3


def test_fixed_constant_solvers_skip_the_barrier():
    # cocain_nobt and bpg_fixed fix their own majorant and never read
    # L_bar_init, so the default (below spurious2d's barrier) is no error
    problem = make_spurious2d()
    cfg = SolverConfig(max_iters=20, stop_tol=0.0)
    for solver in (cocain_bpg_no_backtracking, bpg_fixed):
        result = solver(problem, cfg, [2.0, 2.0])
        assert result.iterations == 20
        high = solver(problem, replace(cfg, L_bar_init=1e6), [2.0, 2.0])
        assert_traces_identical(result.records, high.records)


def test_x0_shape_and_finiteness():
    problem = make_univariate("logquad")
    with pytest.raises(ValueError):
        cocain_bpg(problem, SolverConfig(), [1.0, 2.0])
    with pytest.raises(ValueError):
        cocain_bpg(problem, SolverConfig(), [np.nan])


def test_cfi_requires_quartic_kernel():
    with pytest.raises(ValueError):
        cocain_bpg_cfi(make_univariate("logquad"), SolverConfig(), [1.0])


def test_ipiano_requires_euclidean_kernel_and_valid_beta():
    data = generate_phase_retrieval(3, 6, seed=0)
    quartic = make_phase_retrieval(data, reg="l1", lam=0.1)
    with pytest.raises(ValueError):
        ipiano(quartic, SolverConfig(beta=0.5), np.zeros(3))
    for beta in (-0.1, 1.0):
        with pytest.raises(ValueError):
            SolverConfig(beta=beta)


def test_bpg_fixed_requires_positive_constant():
    for L in (0.0, -2.0):
        with pytest.raises(ValueError):
            SolverConfig(L=L)


# ---------------------------------------------------------------------------
# no-backtracking variant


def test_no_backtracking_uses_global_constants():
    problem = make_univariate("logquad")
    cfg = SolverConfig(delta=0.985, epsilon=0.005, max_iters=40, stop_tol=0.0)
    result = cocain_bpg_no_backtracking(problem, cfg, [2.0])
    assert result.solver == "cocain_nobt"
    for r in _mid_records(result):
        assert r.tau == 0.5
        assert r.L_bar == 2.0 and r.L_lower == 2.0
        assert r.gamma == 0.7
        assert r.lower_trials == 0 and r.upper_trials == 0


def test_no_backtracking_respects_gamma_cap():
    problem = make_univariate("logquad")
    cfg = SolverConfig(
        delta=0.985, epsilon=0.005, gamma_cap=0.5, max_iters=10, stop_tol=0.0
    )
    result = cocain_bpg_no_backtracking(problem, cfg, [2.0])
    assert all(r.gamma == 0.5 for r in _mid_records(result))


# ---------------------------------------------------------------------------
# fixed-step variant


def test_bpg_fixed_on_logquad():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=60, L=2.0)
    result = bpg_fixed(problem, cfg, [1.0])
    records = result.records
    assert records[1].psi == pytest.approx(math.log(2.0), abs=1e-15)
    # first step lands exactly on 0.5, so the next value is log(1.25)
    assert records[2].psi == pytest.approx(math.log(1.25), abs=1e-15)
    assert all(r.tau == 0.5 for r in _mid_records(result))
    psis = [r.psi for r in records]
    assert all(b <= a + 1e-15 for a, b in zip(psis, psis[1:]))
    assert result.termination == TERM_STEP_TOL
    assert abs(result.x[0]) < 1e-6


# ---------------------------------------------------------------------------
# reductions


def test_gamma_cap_zero_reduces_to_bpg_wb():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=60, stop_tol=0.0, store_iterates=True)
    inertial_off = cocain_bpg(problem, type(cfg)(**{
        **cfg.__dict__, "gamma_cap": 0.0,
    }), [3.0])
    plain = bpg_wb(problem, cfg, [3.0])
    assert_traces_identical(inertial_off.records, plain.records)
    assert plain.solver == "bpg_wb"


def test_ipiano_zero_inertia_reduces_to_bpg_wb():
    problem = make_univariate("logquad")
    cfg = SolverConfig(max_iters=60, stop_tol=0.0, store_iterates=True)
    heavy_ball_off = ipiano(problem, replace(cfg, beta=0.0), [3.0])
    plain = bpg_wb(problem, cfg, [3.0])
    assert_traces_identical(heavy_ball_off.records, plain.records)


def test_ipiano_heavy_ball_recursion():
    # with f = 0 the update is the classical heavy-ball step
    problem = quadratic_problem([2.0, 0.5])
    beta = 0.4
    cfg = SolverConfig(
        L_bar_init=4.0, max_iters=15, stop_tol=0.0, store_iterates=True,
        beta=beta,
    )
    result = ipiano(problem, cfg, [1.0, -2.0])
    records = result.records
    for k in range(1, result.iterations + 1):
        r = records[k]
        assert r.gamma == beta
        y_expected = r.x + beta * (r.x - records[k - 1].x)
        np.testing.assert_array_equal(r.y, y_expected)
        x_next_expected = y_expected - r.tau * problem.g_grad(r.x)
        np.testing.assert_array_equal(records[k + 1].x, x_next_expected)


# ---------------------------------------------------------------------------
# frozen second phase


@pytest.mark.parametrize("solver", [cocain_bpg, bpg_wb, ipiano],
                         ids=lambda solver: solver.__name__)
def test_freeze_after_pins_majorant_and_skips_search(solver):
    problem = make_univariate("logquad")
    cfg = SolverConfig(freeze_after=3, max_iters=12, stop_tol=0.0)
    result = solver(problem, cfg, [13.0])
    records = result.records
    assert result.iterations == 12
    for k in range(1, 13):
        r = records[k]
        if k >= 3:
            assert r.upper_trials == 0
            assert r.L_bar == max(records[k - 1].L_bar, problem.smad_L)
            assert r.L_bar >= problem.smad_L
        else:
            assert r.upper_trials >= 1
        assert r.tau == min(records[k - 1].tau, 1.0 / r.L_bar)
