"""The evaluation object of g and the products it saves.

`problem.evaluate(x)` must agree bit for bit with g_value and g_grad,
whether a problem supplies a fused evaluation (phase retrieval, one Ax per
point; denoise, whose gradient starts from its value pass's squared
stencil norms) or takes the default one, in whichever order the two are
read.  The lower search's extrapolated
evaluations are, by default, fresh evaluations at y; phase retrieval
derives them from the images Ax^k and Ax^{k-1} and must agree with fresh
ones up to rounding.  The product counts are read against the trace's own
trial counts: a counting wrapper around the phase-retrieval evaluation
books one A product per `g_eval` call (an extrapolated evaluation makes
none) and one A^T product per gradient first read.  The audit of stored
iterates evaluates g once per stored x, in blocks through `g_eval_rows`
(one image per x, computed together) or one point at a time without it;
a base point the trace re-forms is extrapolated from the evaluations of
its two x's, only a kept one is evaluated itself, and no A^T product is
made.  Blocks take 16 to 64 iterations by the size of the stored point,
and the longer blocks of small points must give the bits of 16-iteration
ones.  The report must equal, float bits included, that of the
per-iteration reference loop in `helpers.py`, on healthy and broken
traces and on a run that stops at its first iteration.
"""

from dataclasses import replace

import numpy as np
import pytest

from cocain import cli
from cocain import diagnostics as diag
from cocain.problems import (
    finite_difference,
    finite_difference_adjoint,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
)
from cocain.solvers import replace_record
from helpers import reference_acceptance_conditions, report_bits
from test_traces import PROBLEMS, _broken


def _bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def _points(dim, seed):
    """Random points with +0.0 and -0.0 entries mixed in."""
    rng = np.random.default_rng(seed)
    points = []
    for scale in (1e-3, 1.0, 2.0, 1e3):
        x = scale * rng.standard_normal(dim)
        x[rng.choice(dim, size=dim // 4, replace=False)] = 0.0
        x[rng.choice(dim, size=dim // 4, replace=False)] = -0.0
        points.append(x)
    points += [np.zeros(dim), -np.zeros(dim)]
    return points


def _phase_retrieval40():
    data = generate_phase_retrieval(40, 200, seed=3, noise_std=0.3)
    return make_phase_retrieval(data, reg="l1", lam=0.1)


def _denoise():
    noisy = np.random.default_rng(0).uniform(0.0, 1.0, (7, 5))
    return make_robust_denoising(noisy, lam=10.0, rho=1.0)


def _extrapolations(problem, seed):
    """(x_prev, x, gamma) triples, with gamma = 0 and 1 among them."""
    rng = np.random.default_rng(seed)
    for gamma in (0.0, 0.25, 0.5, 0.99, 1.0):
        x_prev, x = rng.standard_normal((2, problem.dim))
        yield x_prev, x, gamma


@pytest.mark.parametrize("reg", ["l1", "sql2"])
def test_phase_retrieval_evaluation_is_bitwise_the_two_oracles(reg):
    data = generate_phase_retrieval(40, 200, seed=3, noise_std=0.3)
    problem = make_phase_retrieval(data, reg=reg, lam=0.1)
    assert problem.g_eval is not None
    A, b2 = data.A, data.b * data.b
    for x in _points(problem.dim, seed=1):
        ev = problem.evaluate(x)
        grad = ev.grad
        value = ev.value
        assert _bits(value) == _bits(problem.g_value(x))
        np.testing.assert_array_equal(_bits(grad), _bits(problem.g_grad(x)))
        # the two closures the fused evaluation replaced
        r = A @ x
        t = r * r - b2
        assert _bits(value) == _bits(0.25 * float(np.dot(t, t)))
        np.testing.assert_array_equal(_bits(grad),
                                      _bits(A.T @ ((r * r - b2) * r)))
        # each is computed once and then kept
        assert ev.grad is grad and ev.value is value


def test_denoise_evaluation_is_bitwise_the_two_oracles():
    problem = _denoise()
    assert problem.g_eval is not None
    lam, rho = problem.meta["lam"], problem.meta["rho"]
    for x in _points(problem.dim, seed=1):
        value, grad = problem.g_value(x), problem.g_grad(x)
        # the expressions of the two oracles, from Dx
        d1, d2 = finite_difference(x.reshape(problem.meta["shape"]))
        s = rho * (d1 * d1 + d2 * d2)
        assert _bits(value) == _bits(float(lam * np.log1p(s).sum()))
        w = 2.0 * lam * rho / (s + 1.0)
        np.testing.assert_array_equal(
            _bits(grad),
            _bits(finite_difference_adjoint(d1 * w, d2 * w).ravel()))
        # value then grad: the gradient starts from the value pass
        ev = problem.evaluate(x)
        assert _bits(ev.value) == _bits(value)
        np.testing.assert_array_equal(_bits(ev.grad), _bits(grad))
        assert ev.value is ev.value and ev.grad is ev.grad
        # grad then value, and value only
        ev = problem.evaluate(x)
        np.testing.assert_array_equal(_bits(ev.grad), _bits(grad))
        assert _bits(ev.value) == _bits(value)
        assert _bits(problem.evaluate(x).value) == _bits(value)


def test_denoise_extrapolation_drops_the_held_square():
    # the lower search reads only the values of x^k and x^{k-1}: their
    # value passes' buffers go, and a later gradient forms the same bits
    problem = _denoise()
    for x_prev, x, gamma in _extrapolations(problem, seed=5):
        g_prev, g_x = problem.evaluate(x_prev), problem.evaluate(x)
        assert g_prev.value is not None and g_x.value is not None
        assert g_x._shared is not None and g_prev._shared is not None
        g_x.extrapolated(g_prev, gamma, x + gamma * (x - x_prev))
        assert g_x._shared is None and g_prev._shared is None
        np.testing.assert_array_equal(_bits(g_x.grad), _bits(problem.g_grad(x)))
        np.testing.assert_array_equal(_bits(g_prev.grad),
                                      _bits(problem.g_grad(x_prev)))


def test_default_evaluation_calls_the_two_oracles_lazily():
    problem = replace(_denoise(), g_eval=None)
    calls = []
    counted = replace(
        problem,
        g_value=lambda x: calls.append("value") or problem.g_value(x),
        g_grad=lambda x: calls.append("grad") or problem.g_grad(x),
    )
    for x in _points(problem.dim, seed=2):
        calls.clear()
        ev = counted.evaluate(x)
        assert calls == []
        grad = ev.grad
        assert _bits(ev.value) == _bits(problem.g_value(x))
        np.testing.assert_array_equal(_bits(grad), _bits(problem.g_grad(x)))
        assert ev.grad is grad
        assert calls == ["grad", "value"]


@pytest.mark.parametrize("build", [_phase_retrieval40, _denoise])
def test_extrapolated_evaluation_matches_a_fresh_one(build):
    problem = build()
    for x_prev, x, gamma in _extrapolations(problem, seed=4):
        y = x + gamma * (x - x_prev)
        g_x = problem.evaluate(x)
        g_y = g_x.extrapolated(problem.evaluate(x_prev), gamma, y)
        fresh = problem.evaluate(y)
        slope = float(np.dot(fresh.grad, x - y))
        assert g_y.value == pytest.approx(fresh.value, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g_y.grad, fresh.grad, rtol=1e-12, atol=0.0)
        assert g_y.slope_to(g_x) == pytest.approx(slope, rel=1e-12, abs=0.0)
        if gamma == 0.0:
            # the extrapolation collapses onto x and its evaluation
            assert _bits(g_y.value) == _bits(g_x.value)
            np.testing.assert_array_equal(_bits(g_y.grad), _bits(g_x.grad))
            assert g_y.slope_to(g_x) == 0.0


def test_default_extrapolation_is_a_fresh_lazy_evaluation():
    # bit for bit today's lower-search arithmetic on problems without an
    # image: g at y on first read, and float(np.dot(grad g(y), x - y))
    problem = replace(_denoise(), g_eval=None)
    calls = []
    counted = replace(
        problem,
        g_value=lambda x: calls.append("value") or problem.g_value(x),
        g_grad=lambda x: calls.append("grad") or problem.g_grad(x),
    )
    for x_prev, x, gamma in _extrapolations(problem, seed=5):
        y = x + gamma * (x - x_prev)
        g_x = counted.evaluate(x)
        calls.clear()
        g_y = g_x.extrapolated(counted.evaluate(x_prev), gamma, y)
        assert calls == []
        assert _bits(g_y.value) == _bits(problem.g_value(y))
        slope = float(np.dot(problem.g_grad(y), x - y))
        assert _bits(g_y.slope_to(g_x)) == _bits(slope)
        assert calls == ["value", "grad"]


class _Counted:
    """An evaluation that books its first gradient read as one A^T and
    passes the lower search's two methods through, booking no product."""

    def __init__(self, inner, counts):
        self._inner, self._counts, self._read = inner, counts, False

    @property
    def value(self):
        return self._inner.value

    @property
    def grad(self):
        if not self._read:
            self._read = True
            self._counts["AT"] += 1
        return self._inner.grad

    def extrapolated(self, prev, gamma, y):
        return _Counted(self._inner.extrapolated(prev._inner, gamma, y),
                        self._counts)

    def slope_to(self, base):
        return self._inner.slope_to(base._inner)


def _counting(problem):
    counts = {"A": 0, "AT": 0}
    g_eval = problem.g_eval

    def counted(x):
        counts["A"] += 1
        return _Counted(g_eval(x), counts)

    return replace(problem, g_eval=counted), counts


def _products_per_iteration(solver, **changes):
    """(record, A products, A^T products) for each iteration of a run on
    phase retrieval d=6, whose cocain run takes up to 32 lower trials."""
    problem, config, x0 = PROBLEMS["phase_retrieval"]()
    problem, counts = _counting(problem)
    seen = []
    last = {"A": 1, "AT": 0}  # the evaluation of x^0 precedes iteration 1

    def callback(record):
        seen.append((record, counts["A"] - last["A"],
                     counts["AT"] - last["AT"]))
        last.update(counts)

    result = cli.SOLVERS[solver](problem, replace(config, **changes), x0,
                                 callback=callback)
    assert counts == last  # nothing after the last iteration
    assert len(seen) == result.iterations == 60
    return seen


@pytest.mark.parametrize("solver", ["cocain", "cfi"])
def test_inertial_solvers_pay_no_product_per_lower_trial(solver):
    seen = _products_per_iteration(solver)
    for rec, a, at in seen:
        # A x^{k+1} of each upper trial and the A^T of the accepted y,
        # whatever the number of lower trials
        assert (a, at) == (rec.upper_trials, 1)
    if solver == "cocain":
        assert max(rec.lower_trials for rec, _, _ in seen) > 1
    assert max(rec.upper_trials for rec, _, _ in seen) > 1


def test_bpg_wb_takes_the_gradient_from_the_carried_evaluation():
    for rec, a, at in _products_per_iteration("bpg_wb"):
        assert (a, at) == (rec.upper_trials, 1)
        assert a + at == 1 + rec.upper_trials


@pytest.mark.parametrize("solver,products", [("bpg_fixed", (1, 1)),
                                             ("cocain_nobt", (2, 1))])
def test_fixed_step_solvers_products(solver, products):
    for _, a, at in _products_per_iteration(solver):
        assert (a, at) == products


def test_frozen_majorant_evaluates_each_point_once():
    for rec, a, at in _products_per_iteration("cocain", freeze_after=30):
        # from k = 30 on one prox step and one evaluation of x^{k+1}
        assert (rec.upper_trials == 0) == (rec.k >= 30)
        assert (a, at) == (max(rec.upper_trials, 1), 1)


def _counting_rows(problem):
    """`_counting` with `g_eval_rows` counted too: one A image per x of a
    block and per y the block does not re-form, and one A^T per `g_grad`
    call.  Returns the problem, the counts, the list of every point imaged
    and the number of x's of each block."""
    problem, counts = _counting(problem)
    g_eval, g_grad = problem.g_eval, problem.g_grad
    g_eval_rows = problem.g_eval_rows
    points, blocks = [], []

    def counted(x):
        points.append(x)
        return g_eval(x)

    def counted_grad(x):
        counts["AT"] += 1
        return g_grad(x)

    def counted_rows(xs, ys, gamma, reformed, carry):
        imaged = list(xs) + list(ys[~reformed])
        points.extend(imaged)
        blocks.append(len(xs))
        counts["A"] += len(imaged)
        return g_eval_rows(xs, ys, gamma, reformed, carry)

    problem = replace(problem, g_eval=counted, g_grad=counted_grad,
                      g_eval_rows=g_eval_rows and counted_rows)
    return problem, counts, points, blocks


def test_audit_evaluates_each_stored_point_once():
    problem, config, x0 = PROBLEMS["phase_retrieval"]()
    config = replace(config, store_iterates=True, max_iters=150, stop_tol=0.0)
    result = cli.SOLVERS["cocain"](problem, config, x0)
    n = result.iterations
    assert n == 150
    block = diag._audit_block_length(result.records[0].x)
    assert block < n
    params = diag.LyapunovParams.from_run(result, problem)
    corrupted = replace_record(result.records, 70, y=result.records[70].y + 0.1)
    # in blocks through g_eval_rows, and one point at a time without it
    for audited, trace, kept in (
            (problem, result.records, []),
            (problem, corrupted, [corrupted[70].y]),
            (replace(problem, g_eval_rows=None), result.records, []),
            (replace(problem, g_eval_rows=None), corrupted, [corrupted[70].y])):
        counted, counts, points, blocks = _counting_rows(audited)
        report = diag.check_acceptance_conditions(trace, counted, params)
        assert report == diag.check_acceptance_conditions(trace, audited,
                                                          params)
        assert report.n_checked == n and report.passed == (not kept)
        # x^0..x^{n+1} and each kept y once, with the bits of the trace's
        # points; no re-formed y, whose image is extrapolated from its
        # x's, and no A^T product: both linear terms come from the images
        stored = list(trace.x) + kept
        assert len(stored) == (n + 2) + len(kept)
        assert counts == {"A": len(stored), "AT": 0}
        assert sorted(p.tobytes() for p in points) == sorted(
            p.tobytes() for p in stored)
        if audited.g_eval_rows is not None:
            # the first block's x^0 and the carried x's imaged once, in
            # blocks that bound the audit's memory whatever the trace length
            assert blocks[0] == block + 2 and max(blocks[1:]) == block
            assert len(blocks) == -(-n // block)


def _audit_summary(report):
    details = report.details
    violations = {name: details[name]
                  for name in ("inertia", "minorant", "majorant")}
    return ((report.passed, report.n_checked, report.worst_index,
             details["per_condition_index"], details["cross_validation"],
             details["cross_validation_index"]),
            report.worst_violation, violations)


def _zeroed(records, ks):
    """`_broken` with the constants of the records ks zeroed."""
    for k in ks:
        records = replace_record(records, k, L_bar=0.0,
                                 L_lower=-records[k].L_bar)
    return records


# iterations per audit block of a 40-coordinate point
_PR40_BLOCK = diag._audit_block_length(np.empty(40))


@pytest.mark.parametrize("problem_name,max_iters,zeroed", [
    pytest.param("phase_retrieval40_l1", 100, (10, 50, 90),
                 id="phase_retrieval40_l1"),
    pytest.param("phase_retrieval40_sql2", 100, (10, 50, 90),
                 id="phase_retrieval40_sql2"),
    # a last block of one iteration, whose 1-row y and carried x image
    # share the block's product, and the worst excess in that block
    pytest.param("phase_retrieval40_l1", _PR40_BLOCK + 1, (_PR40_BLOCK + 1,),
                 id="phase_retrieval40_l1-block+1")])
def test_blocked_audit_matches_the_per_point_audit(problem_name, max_iters,
                                                   zeroed):
    problem, config, x0 = PROBLEMS[problem_name]()
    config = replace(config, store_iterates=True, max_iters=max_iters)
    result = cli.SOLVERS["cocain"](problem, config, x0)
    assert result.iterations == max_iters
    per_point = replace(problem, g_eval_rows=None)
    params = diag.LyapunovParams.from_run(result, problem)
    for trace in (result.records, _zeroed(result.records, zeroed)):
        blocked = _audit_summary(
            diag.check_acceptance_conditions(trace, problem, params))
        single = _audit_summary(
            diag.check_acceptance_conditions(trace, per_point, params))
        # verdicts, counts, indices and the g-free cross-validation agree
        # exactly; the violations up to the rounding of the products
        assert blocked[0] == single[0]
        assert blocked[1] == pytest.approx(single[1], rel=1e-9, abs=0.0)
        assert blocked[2] == pytest.approx(single[2], rel=1e-9, abs=0.0)
    assert blocked[1] > 0.0  # the broken trace's excesses are compared


@pytest.mark.parametrize("problem_name,rows", [
    ("phase_retrieval40_l1", True), ("phase_retrieval40_sql2", True),
    ("phase_retrieval40_l1", False), ("denoise64", False)])
def test_stacked_audit_is_the_reference_loop(problem_name, rows):
    problem, config, x0 = PROBLEMS[problem_name]()
    if not rows:
        problem = replace(problem, g_eval_rows=None)
    result = cli.SOLVERS["cocain"](problem, replace(config, store_iterates=True),
                                   x0)
    params = diag.LyapunovParams.from_run(result, problem)
    for trace in (result.records, _broken(result.records)):
        report = diag.check_acceptance_conditions(trace, problem, params)
        assert report_bits(report) == report_bits(
            reference_acceptance_conditions(trace, problem, params))
    assert not report.passed  # the broken trace's excesses are compared


def _phase_retrieval10(reg):
    """The desk study's phase retrieval: d = 10, m = 50."""
    def build():
        data = generate_phase_retrieval(10, 50, seed=0, noise_std=0.3)
        return (make_phase_retrieval(data, reg=reg, lam=0.1),
                cli.PHASE_RETRIEVAL_CONFIG, np.full(10, 2.0))

    return build


@pytest.mark.parametrize("build", [
    PROBLEMS["logquad"], PROBLEMS["spurious2d"], _phase_retrieval10("l1"),
    _phase_retrieval10("sql2")],
    ids=["logquad", "spurious2d", "phase_retrieval10_l1",
         "phase_retrieval10_sql2"])
def test_audit_blocks_sized_by_the_point_keep_every_bit(build, monkeypatch):
    problem, config, x0 = build()
    config = replace(config, store_iterates=True, max_iters=200, stop_tol=0.0)
    result = cli.SOLVERS["cocain"](problem, config, x0)
    assert result.iterations == 200
    params = diag.LyapunovParams.from_run(result, problem)
    # the constants zeroed at three records, and gamma understated on
    # every tenth, so that each check's worst excess is a live float
    understated = result.records
    for k in range(10, 200, 10):
        understated = replace_record(understated, k,
                                     gamma=understated[k].gamma / 3.0)
    traces = (result.records, _broken(result.records), understated)

    def reports():
        return [report_bits(check(trace)) for trace in traces for check in (
            lambda t: diag.check_acceptance_conditions(t, problem, params),
            lambda t: diag.check_cfi_bound(t, problem))]

    assert diag._audit_block_length(x0) == diag.AUDIT_BLOCK_MAX == 64
    sized = reports()
    monkeypatch.setattr(diag, "AUDIT_BLOCK_MAX", diag.AUDIT_BLOCK)
    assert diag._audit_block_length(x0) == 16
    assert sized == reports()
    assert not diag.check_acceptance_conditions(traces[1], problem, params)
    assert not diag.check_cfi_bound(traces[2], problem)


@pytest.mark.parametrize("dim,block", [
    (0, 64), (1, 64), (10, 64), (32, 64), (33, 62), (40, 51), (127, 16),
    (128, 16), (129, 16), (500, 16)])
def test_audit_block_length_rule(dim, block):
    # a block of one stored point per iteration fits in 16 KiB, clamped
    # to [16, 64] iterations
    assert diag._audit_block_length(np.empty(dim)) == block


@pytest.mark.parametrize("problem_name", ["logquad", "phase_retrieval"])
def test_audit_of_a_run_that_fails_at_its_first_iteration(problem_name):
    problem, config, x0 = PROBLEMS[problem_name]()
    config = replace(config, L_bar_init=1e-8, max_backtracks=1,
                     store_iterates=True)
    result = cli.SOLVERS["cocain"](problem, config, x0)
    assert result.termination == "backtrack_failure"
    assert result.iterations == 0 and len(result.records) == 2
    params = diag.LyapunovParams.from_run(result, problem)
    report = diag.check_acceptance_conditions(result.records, problem, params)
    assert report.n_checked == 0 and report.passed
    assert report_bits(report) == report_bits(
        reference_acceptance_conditions(result.records, problem, params))
