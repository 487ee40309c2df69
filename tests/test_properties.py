"""Sampled certificates: every solver on random problems, starts and configs.

Each example draws one problem of the given kind (a univariate test
function, the 2-D escape problem, phase retrieval l1/sql2 with d = 2..8,
or a denoise grid 2..6 on a side with one of the three data terms), a
start in the problem's sampling box and a solver config, runs 60
iterations with stop_tol = 0 and stored iterates, and re-verifies from
its trace the certificates the solver promises (`diagnostics.certify`,
which reads them from `diagnostics.PROMISES`).  cocain_nobt and bpg_fixed
run without stored iterates.  Every run must end in one of the
four terminations with a finite Psi on every record, and a run that
stores its iterates must log each step_norm exactly as np.linalg.norm of
x^k - x^{k-1}.  A run that ends in a backtrack_failure or non_finite is a
valid outcome, and its partial trace is held to the same certificates.
Each acceptance report must also equal, float bits included, the report
of the per-iteration reference loop in `helpers.py`.
A second property holds the two reductions bit for bit: cocain with
gamma_cap = 0 and ipiano with beta = 0 reproduce bpg_wb.

The problem kind is a test parameter rather than a draw: Hypothesis grows
most examples from earlier ones, so a drawn kind clusters (one kind got a
single example of 150 in a trial).  Sampling is derandomized and keeps no
example database, so the suite runs the same 9 * (12 + 4) examples every
time (`conftest.py` keeps the cache Hypothesis writes anyway out of the
checkout).
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cocain.diagnostics import LyapunovParams, certify  # noqa: E402
from cocain.kernels import EuclideanKernel, QuarticKernel  # noqa: E402
from cocain.pgm import synthetic_blocks  # noqa: E402
from cocain.problems import (  # noqa: E402
    add_outlier_noise,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
    make_spurious2d,
    make_univariate,
)
from cocain.solvers import (  # noqa: E402
    TERM_BACKTRACK_FAILURE,
    TERM_MAX_ITERS,
    TERM_NON_FINITE,
    TERM_STEP_TOL,
    SolverConfig,
    bpg_fixed,
    bpg_wb,
    cocain_bpg,
    cocain_bpg_cfi,
    cocain_bpg_no_backtracking,
    ipiano,
)
from helpers import (  # noqa: E402
    assert_traces_identical,
    reference_acceptance_conditions,
    report_bits,
)

ITERS = 60

TERMINATIONS = (TERM_MAX_ITERS, TERM_STEP_TOL, TERM_BACKTRACK_FAILURE,
                TERM_NON_FINITE)

KINDS = ("logquad", "sigmoid", "abssincos", "spurious2d",
         "phase_retrieval_l1", "phase_retrieval_sql2",
         "denoise_log", "denoise_l1", "denoise_sql2")

SAMPLED = settings(derandomize=True, database=None, deadline=None)

unit = st.floats(0.0, 1.0)


def _problem(kind, draw):
    family, _, variant = kind.rpartition("_")
    if family == "phase_retrieval":
        d = draw(st.integers(2, 8))
        data = generate_phase_retrieval(d, draw(st.integers(d, 5 * d)),
                                        seed=draw(st.integers(0, 2**16)))
        return make_phase_retrieval(data, reg=variant,
                                    lam=draw(st.floats(0.01, 1.0)))
    if family == "denoise":
        image = add_outlier_noise(
            synthetic_blocks(draw(st.integers(2, 6)), draw(st.integers(2, 6))),
            magnitude=10.0 ** draw(st.floats(0.0, 5.0)),
            fraction=draw(st.floats(0.05, 1.0)),
            seed=draw(st.integers(0, 2**16)))
        return make_robust_denoising(
            image, lam=draw(st.floats(0.1, 10.0)),
            rho=draw(st.floats(0.1, 10.0)), data_term=variant)
    if kind == "spurious2d":
        return make_spurious2d()
    return make_univariate(kind)


def _case(kind, draw):
    """(problem, config, x0); L_bar_init lies above the problem's barrier
    -alpha / ((1 - delta) * sigma)."""
    problem = _problem(kind, draw)
    lo, hi = problem.sampling_box
    x0 = lo + (hi - lo) * np.array(
        draw(st.lists(unit, min_size=problem.dim, max_size=problem.dim)))
    delta = draw(st.floats(0.05, 0.99))
    barrier = max(0.0, -problem.alpha / ((1.0 - delta) * problem.kernel.sigma))
    config = SolverConfig(
        delta=delta,
        epsilon=draw(st.floats(0.001, 0.999)) * delta,
        nu_lower=draw(st.floats(1.05, 10.0)),
        nu_upper=draw(st.floats(1.05, 10.0)),
        L_bar_init=barrier * (1.0 + draw(unit)) + 10.0 ** draw(st.floats(-3.0, 3.0)),
        gamma_cap=draw(unit),
        freeze_after=draw(st.one_of(st.none(), st.integers(1, ITERS))),
        max_iters=ITERS,
        stop_tol=0.0,
        store_iterates=True,
    )
    return problem, config, x0


def _assert_passes(report, solver):
    assert report.passed, (
        f"{solver}: {report.name} fails, worst {report.worst_violation!r} "
        f"at record {report.worst_index}"
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(SAMPLED, max_examples=12)
@given(data=st.data())
def test_sampled_runs_keep_their_certificates(kind, data):
    problem, config, x0 = _case(kind, data.draw)
    unstored = replace(config, store_iterates=False)
    runs = {
        "cocain": cocain_bpg(problem, config, x0),
        "cocain_nobt": cocain_bpg_no_backtracking(problem, unstored, x0),
        "bpg_wb": bpg_wb(problem, config, x0),
        "bpg_fixed": bpg_fixed(problem, unstored, x0),
    }
    if isinstance(problem.kernel, QuarticKernel):
        runs["cfi"] = cocain_bpg_cfi(problem, config, x0)
    for name, run in runs.items():
        assert run.termination in TERMINATIONS, name
        assert np.all(np.isfinite([rec.psi for rec in run.records])), name
        if run.records[0].x is not None:
            # bit for bit what np.linalg.norm gives for the logged step
            for prev, rec in zip(run.records, run.records[1:]):
                assert rec.step_norm == float(np.linalg.norm(rec.x - prev.x)), name
        for report in certify(run, problem):
            _assert_passes(report, name)
            if report.name == "acceptance_conditions":
                # the stacked audit is the per-iteration loop, bit for bit
                params = LyapunovParams.from_run(run, problem)
                assert report_bits(report) == report_bits(
                    reference_acceptance_conditions(run.records, problem,
                                                    params)), name


@pytest.mark.parametrize("kind", KINDS)
@settings(SAMPLED, max_examples=4)
@given(data=st.data())
def test_sampled_reductions_are_exact(kind, data):
    problem, config, x0 = _case(kind, data.draw)
    wb = bpg_wb(problem, config, x0).records
    assert_traces_identical(
        cocain_bpg(problem, replace(config, gamma_cap=0.0), x0).records, wb)
    if isinstance(problem.kernel, EuclideanKernel):
        heavy_ball_off = ipiano(problem, replace(config, beta=0.0), x0)
        assert_traces_identical(heavy_ball_off.records, wb)
