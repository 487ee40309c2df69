"""Problem constructors: objective values, gradients, declared constants.

The spurious2d minimizer constants below were derived independently: the
objective is separable, its per-coordinate stationarity condition reduces to
200 u^2 + 200 u + 1 = 0 for u = t - 1 (at lam=0.5, rho=100), and the root
near zero was confirmed against a 1e-6-step grid argmin.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from cocain.diagnostics import LyapunovParams
from cocain.kernels import EuclideanKernel, QuarticKernel
from cocain.problems import (
    PhaseRetrievalData,
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
from cocain.solvers import SolverConfig
from helpers import quadratic_problem

# per-coordinate minimizer of 0.5 log(1+100(t-1)^2) + log(1+|t|):
# t* = 1 + (-200 + sqrt(39200)) / 400, confirmed by bisection and grid;
# kept as a literal to check the closed form in make_spurious2d
SPURIOUS_T_STAR = 0.9949747468305832
SPURIOUS_PSI_STAR = 1.3837849177497237  # psi at (t*, t*)
SPURIOUS_PSI_TARGET = 2.0 * math.log(2.0)  # psi at (1, 1)


def _fd_gradient(problem, x, step=1e-6):
    fd = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fd[i] = (problem.g_value(x + e) - problem.g_value(x - e)) / (2.0 * step)
    return fd


def _assert_grad_matches_fd(problem, points, rel=1e-5):
    for x in points:
        grad = np.asarray(problem.g_grad(x), dtype=float)
        fd = _fd_gradient(problem, x)
        err = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
        assert err < rel, f"{problem.name}: FD mismatch {err} at {x}"


# ---------------------------------------------------------------------------
# univariate problems


def test_logquad_spot_values():
    p = make_univariate("logquad")
    assert p.dim == 1 and isinstance(p.kernel, EuclideanKernel)
    assert p.psi(np.array([0.0])) == 0.0
    assert p.g_grad(np.array([0.0]))[0] == 0.0
    assert p.psi(np.array([1.0])) == pytest.approx(math.log(2.0), abs=1e-15)
    assert p.smad_L == 2.0
    assert p.meta["global_psi"] == 0.0


def test_sigmoid_spot_values():
    p = make_univariate("sigmoid")
    assert p.g_value(np.array([0.0])) == pytest.approx(0.5, abs=1e-15)
    assert p.g_grad(np.array([0.0]))[0] == pytest.approx(-0.25, abs=1e-15)
    # strictly decreasing everywhere
    xs = np.linspace(-12.0, 12.0, 49)
    assert all(p.g_grad(np.array([x]))[0] < 0.0 for x in xs)
    assert p.smad_L == 0.1


def test_abssincos_spot_values():
    p = make_univariate("abssincos")
    x_star = -0.5 * math.pi
    assert p.psi(np.array([x_star])) == pytest.approx(
        0.5 * math.pi - 1.0, abs=1e-15
    )
    assert p.meta["global_psi"] == pytest.approx(0.5 * math.pi - 1.0, abs=1e-15)
    assert p.smad_L == pytest.approx(math.sqrt(2.0))
    assert p.psi_lower_bound == -math.sqrt(2.0)


def test_univariate_lower_bounds_hold_on_grid():
    for kind in ("logquad", "sigmoid", "abssincos"):
        p = make_univariate(kind)
        lo, hi = p.sampling_box
        for x in np.linspace(lo, hi, 1001):
            assert p.psi(np.array([x])) >= p.psi_lower_bound - 1e-12


def test_univariate_gradients_match_fd():
    rng = np.random.default_rng(5)
    pts = [np.array([v]) for v in rng.uniform(-10.0, 10.0, 30)]
    for kind in ("logquad", "sigmoid", "abssincos"):
        _assert_grad_matches_fd(make_univariate(kind), pts)


def test_univariate_unknown_kind():
    with pytest.raises(ValueError):
        make_univariate("cubic")


# ---------------------------------------------------------------------------
# spurious 2-d problem


def test_spurious_constants():
    p = make_spurious2d()
    assert p.dim == 2
    assert p.smad_L == 100.0  # 2 * lam * rho at the default (0.5, 100)
    assert p.alpha == -1.0
    np.testing.assert_array_equal(p.meta["target"], np.array([1.0, 1.0]))


def test_spurious_g_minimized_at_target():
    p = make_spurious2d()
    np.testing.assert_allclose(
        p.g_grad(np.array([1.0, 1.0])), np.zeros(2), atol=1e-15
    )
    assert p.g_value(np.array([1.0, 1.0])) == 0.0


@pytest.mark.parametrize("lam,rho,target", [(0.5, 100.0, (2.0, 0.5)),
                                            (0.25, 400.0, (1.0, 3.0))])
def test_spurious_minimizer_is_stationary_for_other_targets(lam, rho, target):
    p = make_spurious2d(lam, rho, target)
    x_star = p.meta["minimizer"]
    assert np.all((0.0 < x_star) & (x_star < p.meta["target"]))
    grad = p.g_grad(x_star) + 1.0 / (1.0 + x_star)
    np.testing.assert_allclose(grad, np.zeros(2), atol=1e-9)


def test_spurious_f_spot_values():
    p = make_spurious2d()
    f = p.f_value
    assert f(np.zeros(2)) == 0.0
    assert f(np.array([math.e - 1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)


def test_spurious_true_minimizer_is_off_target():
    # the log(1+|x|) term drags the minimizer slightly below the target
    p = make_spurious2d()
    meta = p.meta
    tol = 4 * math.ulp(SPURIOUS_T_STAR)
    assert np.all(np.abs(meta["minimizer"] - SPURIOUS_T_STAR) <= tol)
    x_star = np.array([SPURIOUS_T_STAR, SPURIOUS_T_STAR])
    assert p.psi(x_star) == pytest.approx(SPURIOUS_PSI_STAR, abs=1e-12)
    assert p.psi(np.array([1.0, 1.0])) == pytest.approx(
        SPURIOUS_PSI_TARGET, abs=1e-12
    )
    assert p.psi(x_star) < p.psi(np.array([1.0, 1.0])) - 1e-6
    # stationarity of the smooth part against the subgradient of f at x*
    grad = p.g_grad(x_star) + 1.0 / (1.0 + x_star)
    np.testing.assert_allclose(grad, np.zeros(2), atol=1e-9)


def test_spurious_gradient_matches_fd():
    rng = np.random.default_rng(11)
    pts = [rng.uniform(-2.5, 2.5, 2) for _ in range(25)]
    _assert_grad_matches_fd(make_spurious2d(), pts)


def test_spurious_parameter_validation():
    with pytest.raises(ValueError):
        make_spurious2d(lam=0.0)
    with pytest.raises(ValueError):
        make_spurious2d(rho=-1.0)
    with pytest.raises(ValueError):
        make_spurious2d(target=(1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# phase retrieval


def test_generate_deterministic():
    a = generate_phase_retrieval(6, 12, seed=9)
    b = generate_phase_retrieval(6, 12, seed=9)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.x_true, b.x_true)
    c = generate_phase_retrieval(6, 12, seed=10)
    assert not np.array_equal(a.A, c.A)


def test_generate_noiseless_measurements_exact():
    data = generate_phase_retrieval(8, 30, seed=2)
    np.testing.assert_array_equal(data.b, np.abs(data.A @ data.x_true))
    assert np.all(data.b >= 1e-6)
    assert np.linalg.norm(data.x_true) == pytest.approx(1.0, abs=1e-12)


def test_generate_noisy_measurements_clamped_positive():
    data = generate_phase_retrieval(4, 200, seed=3, noise_std=1.0)
    assert np.all(data.b >= 1e-6)


def test_objective_vanishes_at_ground_truth():
    data = generate_phase_retrieval(10, 50, seed=7)
    p = make_phase_retrieval(data, reg="l1", lam=0.0)
    assert p.g_value(data.x_true) == 0.0


def test_single_sample_smad_constant():
    data = PhaseRetrievalData(
        A=np.array([[1.0, 0.0]]), b=np.array([1.0]), x_true=None
    )
    p = make_phase_retrieval(data, reg="l1", lam=0.1)
    assert p.smad_L == 4.0  # 3 ||a||^4 + ||a||^2 b^2


def test_origin_is_stationary():
    data = generate_phase_retrieval(5, 20, seed=1)
    p = make_phase_retrieval(data, reg="sql2", lam=0.2)
    assert p.g_value(np.zeros(5)) == pytest.approx(
        0.25 * float(np.sum(data.b**4)), rel=1e-14
    )
    np.testing.assert_array_equal(p.g_grad(np.zeros(5)), np.zeros(5))


def test_phase_retrieval_regularizers():
    data = generate_phase_retrieval(4, 10, seed=4)
    x = np.array([1.0, -2.0, 0.5, 0.0])
    p1 = make_phase_retrieval(data, reg="l1", lam=0.3)
    p2 = make_phase_retrieval(data, reg="sql2", lam=0.3)
    assert isinstance(p1.kernel, QuarticKernel)
    assert p1.f_value(x) == pytest.approx(0.3 * 3.5)
    assert p2.f_value(x) == pytest.approx(0.3 * 5.25)
    assert p1.name == "phase_retrieval_l1"
    assert p2.name == "phase_retrieval_sql2"
    assert p1.psi_lower_bound == 0.0


def test_phase_retrieval_gradient_matches_fd():
    data = generate_phase_retrieval(5, 20, seed=6)
    p = make_phase_retrieval(data, reg="l1", lam=0.1)
    rng = np.random.default_rng(13)
    pts = [rng.uniform(-1.5, 1.5, 5) for _ in range(20)]
    _assert_grad_matches_fd(p, pts)


def test_phase_retrieval_frees_its_matrix_without_the_collector():
    # A is the largest array a run holds: reference counting alone must
    # free it with the problem, or the next problem's A is built beside it
    gc.collect()
    gc.disable()
    try:
        data = generate_phase_retrieval(5, 20, seed=6)
        problem = make_phase_retrieval(data, reg="l1", lam=0.1)
        x = np.full(5, 0.5)
        g_x = problem.evaluate(x)
        g_x.extrapolated(problem.evaluate(-x), 0.5, 2.0 * x).grad
        matrix = weakref.ref(data.A)
        del data, problem, g_x
        assert matrix() is None
    finally:
        gc.enable()


def test_phase_retrieval_bad_inputs():
    data = generate_phase_retrieval(4, 10, seed=0)
    with pytest.raises(ValueError):
        make_phase_retrieval(data, reg="l3")
    with pytest.raises(ValueError):
        make_phase_retrieval(data, reg="l1", lam=-0.5)
    with pytest.raises(ValueError):
        make_phase_retrieval(
            PhaseRetrievalData(A=np.zeros((3, 2)), b=np.zeros(4)), reg="l1"
        )


# ---------------------------------------------------------------------------
# finite differences


def test_finite_difference_frozen_2x2():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    d1, d2 = finite_difference(x)
    np.testing.assert_array_equal(d1, np.array([[2.0, 2.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(d2, np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_finite_difference_constant_grid():
    d1, d2 = finite_difference(np.full((4, 5), 3.7))
    assert not d1.any() and not d2.any()


def test_finite_difference_adjoint_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.standard_normal((5, 5))
        y1 = rng.standard_normal((5, 5))
        y2 = rng.standard_normal((5, 5))
        d1, d2 = finite_difference(x)
        lhs = float(np.sum(d1 * y1) + np.sum(d2 * y2))
        rhs = float(np.sum(x * finite_difference_adjoint(y1, y2)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def _finite_difference_reference(x):
    """The plain zero-filled form of `finite_difference`."""
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    d1[:-1, :] = x[1:, :] - x[:-1, :]
    d2[:, :-1] = x[:, 1:] - x[:, :-1]
    return d1, d2


def _finite_difference_adjoint_reference(y1, y2):
    """The plain zero-filled form of `finite_difference_adjoint`: one slice
    pass per term, in the order row +, row -, column +, column -."""
    out = np.zeros_like(y1)
    out[1:, :] += y1[:-1, :]
    out[:-1, :] -= y1[:-1, :]
    out[:, 1:] += y2[:, :-1]
    out[:, :-1] -= y2[:, :-1]
    return out


def _denoise_g_reference(x, shape, lam, rho):
    """g and its gradient for make_robust_denoising, one expression each."""
    d1, d2 = _finite_difference_reference(x.reshape(shape))
    value = float(lam * np.sum(np.log1p(rho * (d1 * d1 + d2 * d2))))
    w = 2.0 * lam * rho / (1.0 + rho * (d1 * d1 + d2 * d2))
    return value, _finite_difference_adjoint_reference(w * d1, w * d2).ravel()


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


STENCIL_SHAPES = [(2, 2), (7, 5), (64, 48)]
STENCIL_SCALES = [1e-3, 1e-1, 1.0, 1e2, 1e5]


@pytest.mark.parametrize("shape", STENCIL_SHAPES)
def test_finite_difference_matches_reference(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for scale in STENCIL_SCALES:
        x = scale * rng.standard_normal(shape)
        before = x.copy()
        d1, d2 = finite_difference(x)
        r1, r2 = _finite_difference_reference(x)
        np.testing.assert_array_equal(_bits(d1), _bits(r1))
        np.testing.assert_array_equal(_bits(d2), _bits(r2))
        np.testing.assert_array_equal(_bits(x), _bits(before))


@pytest.mark.parametrize("shape", STENCIL_SHAPES)
def test_denoising_smooth_oracle_matches_reference(shape):
    # the oracles reshape the flat iterate into a view of it, and must
    # never write through that view
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + 1)
    obs = rng.uniform(0.0, 1.0, shape)
    for lam, rho in [(10.0, 1.0), (2.0, 1.5)]:
        p = make_robust_denoising(obs, lam=lam, rho=rho)
        for scale in STENCIL_SCALES:
            x = scale * rng.standard_normal(p.dim)
            before = x.copy()
            want_value, want_grad = _denoise_g_reference(x, shape, lam, rho)
            value = p.g_value(x)
            np.testing.assert_array_equal(_bits(x), _bits(before))
            grad = p.g_grad(x)
            np.testing.assert_array_equal(_bits(x), _bits(before))
            assert value.hex() == want_value.hex()
            np.testing.assert_array_equal(_bits(grad), _bits(want_grad))


@pytest.mark.parametrize("shape", STENCIL_SHAPES + [(3, 1), (1, 3)])
def test_finite_difference_adjoint_matches_reference(shape):
    # signed zeros everywhere (0.0 + -0.0 is +0.0, so the zero fill shows),
    # and +-0.0, +-inf and NaN in the entries the forward operator never
    # produces: y1's last row and y2's last column
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + 2)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for scale in STENCIL_SCALES:
        y1 = scale * rng.standard_normal(shape)
        y2 = scale * rng.standard_normal(shape)
        for y in (y1, y2):
            y[rng.random(shape) < 0.2] = 0.0
            y[rng.random(shape) < 0.2] = -0.0
        y1[-1, :] = rng.choice(specials, shape[1])
        y2[:, -1] = rng.choice(specials, shape[0])
        before = y1.copy(), y2.copy()
        with np.errstate(invalid="ignore"):
            got = finite_difference_adjoint(y1, y2)
        want = _finite_difference_adjoint_reference(y1, y2)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        np.testing.assert_array_equal(_bits(y1), _bits(before[0]))
        np.testing.assert_array_equal(_bits(y2), _bits(before[1]))


def test_finite_difference_shape_contracts():
    with pytest.raises(ValueError):
        finite_difference(np.zeros(5))
    with pytest.raises(ValueError):
        finite_difference_adjoint(np.zeros((3, 3)), np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# outlier noise


def test_outlier_noise_counts_and_magnitude():
    img = np.zeros((10, 10))
    noisy = add_outlier_noise(img, magnitude=1e5, fraction=0.05, seed=1)
    changed = noisy != img
    assert changed.sum() == math.ceil(0.05 * 100)
    assert np.all(np.isin(noisy[changed], [-1e5, 1e5]))


def test_outlier_noise_zero_magnitude_is_identity():
    rng = np.random.default_rng(19)
    img = rng.uniform(0.0, 1.0, (6, 7))
    np.testing.assert_array_equal(
        add_outlier_noise(img, magnitude=0.0, fraction=0.1, seed=5), img
    )


def test_outlier_noise_deterministic_in_seed():
    img = np.zeros((8, 8))
    a = add_outlier_noise(img, fraction=0.25, seed=4)
    b = add_outlier_noise(img, fraction=0.25, seed=4)
    np.testing.assert_array_equal(a, b)
    c = add_outlier_noise(img, fraction=0.25, seed=5)
    assert not np.array_equal(a, c)


def test_outlier_noise_fraction_contract():
    with pytest.raises(ValueError):
        add_outlier_noise(np.zeros((4, 4)), fraction=0.0)
    with pytest.raises(ValueError):
        add_outlier_noise(np.zeros((4, 4)), fraction=1.5)


# ---------------------------------------------------------------------------
# robust denoising


def test_denoising_constants():
    p = make_robust_denoising(np.zeros((4, 4)), lam=10.0, rho=1.0)
    assert p.smad_L == 160.0  # 16 * lam * rho
    assert p.alpha == -1.0
    assert p.dim == 16
    assert p.name == "denoise_log"


def test_denoising_constant_image_spot_values():
    obs = np.full((5, 6), 0.3)
    p = make_robust_denoising(obs)
    c = np.full(30, 1.1)
    assert p.g_value(c) == 0.0
    np.testing.assert_array_equal(p.g_grad(c), np.zeros(30))
    assert p.f_value(obs.ravel()) == 0.0


def test_denoising_gradient_matches_fd():
    rng = np.random.default_rng(23)
    obs = rng.uniform(0.0, 1.0, (4, 4))
    p = make_robust_denoising(obs, lam=2.0, rho=1.5)
    pts = [rng.uniform(-1.0, 2.0, 16) for _ in range(15)]
    _assert_grad_matches_fd(p, pts)


def test_denoising_data_terms():
    obs = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = obs.ravel()
    x = np.array([0.5, 0.5, 0.5, 0.5])
    p_l1 = make_robust_denoising(obs, data_term="l1")
    p_sq = make_robust_denoising(obs, data_term="sql2")
    assert p_l1.f_value(x) == pytest.approx(2.0)
    assert p_sq.f_value(x) == pytest.approx(0.5)
    assert p_l1.alpha == 0.0 and p_sq.alpha == 0.0
    # proximal steps solve their separable subproblems exactly
    gh, gg, tau = x, np.zeros(4), 0.4
    np.testing.assert_allclose(
        p_sq.f_prox_step(gh, gg, tau), (gh + tau * b) / (1.0 + tau)
    )
    step_l1 = p_l1.f_prox_step(gh, gg, tau)
    expected = b + np.sign(x - b) * np.maximum(np.abs(x - b) - tau, 0.0)
    np.testing.assert_allclose(step_l1, expected)


def test_denoising_log_prox_first_order_optimality():
    rng = np.random.default_rng(29)
    obs = rng.uniform(0.0, 1.0, (3, 3))
    p = make_robust_denoising(obs)
    b = obs.ravel()
    gh = rng.uniform(-2.0, 2.0, 9)
    tau = 0.7
    x = p.f_prox_step(gh, np.zeros(9), tau)
    # away from the kink: sign(x-b)/(1+|x-b|) + (x - gh)/tau = 0
    off = np.abs(x - b) > 1e-9
    res = np.sign(x - b) / (1.0 + np.abs(x - b)) + (x - gh) / tau
    assert np.all(np.abs(res[off]) < 1e-8)


def test_denoising_input_validation():
    with pytest.raises(ValueError):
        make_robust_denoising(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        make_robust_denoising(np.zeros((4, 4)), lam=0.0)
    with pytest.raises(ValueError):
        make_robust_denoising(np.zeros((4, 4)), data_term="huber")
    with pytest.raises(ValueError):
        make_robust_denoising(np.full((4, 4), np.nan))


# ---------------------------------------------------------------------------
# sampled smooth-adaptability verification


def test_smad_quadratic_is_tight():
    p = quadratic_problem([3.0, 1.0])
    report = verify_smad_by_sampling(p, n_segments=2000, seed=0)
    assert report.passed
    assert report.worst_ratio <= 1.0


def test_smad_declared_constants_pass():
    problems = [
        make_univariate("logquad"),
        make_univariate("sigmoid"),
        make_univariate("abssincos"),
        make_spurious2d(),
        make_phase_retrieval(generate_phase_retrieval(5, 20, seed=3), reg="l1"),
        make_robust_denoising(np.zeros((4, 4))),
    ]
    for p in problems:
        report = verify_smad_by_sampling(p, n_segments=2000, seed=1)
        assert report.passed, f"{p.name}: worst ratio {report.worst_ratio}"
        assert report.L == p.smad_L


def test_smad_halved_constant_fails():
    p = make_univariate("logquad")
    report = verify_smad_by_sampling(
        p, n_segments=2000, seed=1, override_L=p.smad_L / 2.0
    )
    assert not report.passed
    assert report.worst_ratio > 1.0
    assert 0 <= report.worst_index < 2000


def test_smad_contracts():
    p = make_univariate("logquad")
    with pytest.raises(ValueError):
        verify_smad_by_sampling(p, n_segments=0)
    with pytest.raises(ValueError):
        verify_smad_by_sampling(p, box=(2.0, 2.0))


_PR_DATA = generate_phase_retrieval(3, 6, seed=0)
_IMAGE = np.zeros((4, 4))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda v: SolverConfig(delta=v),
    lambda v: SolverConfig(epsilon=v),
    lambda v: SolverConfig(nu_lower=v),
    lambda v: SolverConfig(nu_upper=v),
    lambda v: SolverConfig(L_bar_init=v),
    lambda v: SolverConfig(gamma_cap=v),
    lambda v: SolverConfig(stop_tol=v),
    lambda v: SolverConfig(L_lower_value=v),
    lambda v: SolverConfig(L=v),
    lambda v: SolverConfig(beta=v),
    lambda v: LyapunovParams(delta=0.9, epsilon=0.1, v_lower=v),
    lambda v: make_spurious2d(lam=v),
    lambda v: make_spurious2d(rho=v),
    lambda v: make_spurious2d(target=(1.0, v)),
    lambda v: make_phase_retrieval(_PR_DATA, lam=v),
    lambda v: generate_phase_retrieval(3, 6, noise_std=v),
    lambda v: make_robust_denoising(_IMAGE, lam=v),
    lambda v: make_robust_denoising(_IMAGE, rho=v),
    lambda v: add_outlier_noise(_IMAGE, magnitude=v),
    lambda v: add_outlier_noise(_IMAGE, background_std=v),
], ids=["delta", "epsilon", "nu_lower", "nu_upper", "L_bar_init",
        "gamma_cap", "stop_tol", "L_lower_value", "L", "beta", "v_lower",
        "spurious_lam", "spurious_rho", "spurious_target",
        "phase_retrieval_lam", "noise_std", "denoise_lam", "denoise_rho",
        "magnitude", "background_std"])
def test_non_finite_parameters_are_rejected(build, value):
    # every range check is an acceptance, which NaN never meets
    with pytest.raises(ValueError):
        build(value)
