"""Pinned certificate reports: every check on a fixed grid of traces.

Each trace of the grid is audited by every check of `cocain.diagnostics`,
and the reports are hashed: `passed`, `n_checked`, the bits of
`worst_violation`, `worst_index` and `details` (arrays by dtype, shape and
bytes), plus the message of every check that raises.  The digests were
recorded from an earlier build, so a rewrite of the checks that moves any
verdict, index or worst violation by one ulp fails here, in the same way
`tests/test_traces.py` pins the traces themselves.

The grid: every CLI solver on the four small problems of
`tests/test_traces.py` with stored iterates, one-iteration runs, runs with
a frozen majorant, and copies of healthy traces with psi, tau, the logged
distance or the stored base point corrupted at one record.  On every trace
of the grid, `diagnostics.certify` must also give the reports of the
checks it runs, called directly, bit for bit.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cocain import cli
from cocain import diagnostics as diag
from cocain.problems import make_univariate
from cocain.solvers import replace_record
from helpers import quadratic_problem, report_bits
from test_traces import PROBLEMS

SOLVER_GRID = {
    "logquad": ("cocain", "cocain_nobt", "bpg_wb", "bpg_fixed", "ipiano"),
    "spurious2d": ("cocain", "cocain_nobt", "bpg_wb", "bpg_fixed", "ipiano"),
    "phase_retrieval": ("cocain", "cfi", "cocain_nobt", "bpg_wb", "bpg_fixed"),
    "denoise": ("cocain", "cocain_nobt", "bpg_wb", "bpg_fixed", "ipiano"),
}


def _run(problem_name, solver, **changes):
    problem, config, x0 = PROBLEMS[problem_name]()
    config = replace(config, store_iterates=True, **changes)
    return problem, cli.SOLVERS[solver](problem, config, x0)


def _frozen_quadratic():
    problem = quadratic_problem([8.0, 2.0])
    config = cli.SolverConfig(L_bar_init=8.0, freeze_after=1, max_iters=60,
                              stop_tol=0.0, store_iterates=True)
    return problem, cli.SOLVERS["cocain"](problem, config, np.array([3.0, -2.0]))


def _frozen_abssincos():
    problem = make_univariate("abssincos")
    config = cli.SolverConfig(freeze_after=10, max_iters=80, stop_tol=0.0,
                              store_iterates=True)
    return problem, cli.SOLVERS["cocain"](problem, config, np.array([13.0]))


def _corrupted(base, **changes):
    problem, result = base()
    k = len(result.records) // 2
    rec = result.records[k]
    values = {name: fn(rec) for name, fn in changes.items()}
    return problem, replace(result, records=replace_record(result.records, k,
                                                           **values))


def _grid():
    grid = {f"{p}/{s}": (lambda p=p, s=s: _run(p, s))
            for p, solvers in SOLVER_GRID.items() for s in solvers}
    grid.update({
        "logquad/cocain/1": lambda: _run("logquad", "cocain", max_iters=1),
        "phase_retrieval/cfi/1":
            lambda: _run("phase_retrieval", "cfi", max_iters=1),
        "spurious2d/cocain/freeze":
            lambda: _run("spurious2d", "cocain", freeze_after=5),
        "quadratic/cocain/freeze": _frozen_quadratic,
        "abssincos/cocain/freeze": _frozen_abssincos,
    })
    pr_cocain = grid["phase_retrieval/cocain"]
    logquad = grid["logquad/cocain"]
    grid.update({
        "phase_retrieval/cocain/psi":
            lambda: _corrupted(pr_cocain, psi=lambda r: r.psi + 1.0),
        "phase_retrieval/cocain/tau":
            lambda: _corrupted(pr_cocain, tau=lambda r: 2.0 * r.tau),
        "phase_retrieval/cocain/dh":
            lambda: _corrupted(pr_cocain,
                               dh_prev_curr=lambda r: 4.0 * r.dh_prev_curr),
        "phase_retrieval/cocain/y":
            lambda: _corrupted(pr_cocain, y=lambda r: r.y + 0.1),
        "logquad/cocain/psi":
            lambda: _corrupted(logquad, psi=lambda r: r.psi + 1.0),
        "logquad/cocain/tau":
            lambda: _corrupted(logquad, tau=lambda r: 2.0 * r.tau),
        "logquad/cocain/dh": lambda: _corrupted(logquad, dh_prev_curr=lambda r: 1.0),
        "logquad/cocain/y": lambda: _corrupted(logquad, y=lambda r: r.y - 0.5),
        "phase_retrieval/cfi/gamma": lambda: _corrupted(
            grid["phase_retrieval/cfi"], gamma=lambda r: 0.0),
        "abssincos/cocain/gaps": _inflated_gaps,
    })
    return grid


def _inflated_gaps():
    # every logged distance 1 and Phi^1 = delta: the prefix bound's budget
    # runs out after delta/epsilon = 100 steps
    problem = make_univariate("abssincos")
    config = cli.SolverConfig(max_iters=150, stop_tol=0.0)
    result = cli.SOLVERS["cocain"](problem, config, np.array([13.0]))
    records = result.records
    for k in range(1, len(records) - 1):
        records = replace_record(records, k, dh_prev_curr=1.0)
    records = replace_record(records, 1, psi=problem.psi_lower_bound)
    return problem, replace(result, records=records)


GRID = _grid()


def _plain(value):
    """A value as plain Python data whose repr fixes every bit."""
    if isinstance(value, diag.CheckReport):
        return _plain((value.name, value.passed, value.n_checked,
                       value.worst_violation, value.worst_index,
                       value.details))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple((key, _plain(item)) for key, item in value.items())
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _reports(problem, result):
    """Every check of the module on one trace, as (name, outcome) pairs;
    an outcome is a report, a plain value or the message of a raise."""
    records = result.records
    params = diag.LyapunovParams.from_run(result, problem)
    k0 = diag.frozen_phase_start(records, min_run=5)
    checks = [
        ("phi", lambda: diag.lyapunov_phi(records, params)),
        ("descent", lambda: diag.check_lyapunov_descent(records, params)),
        ("prefix", lambda: diag.check_prefix_bound(records, params)),
        ("conditions",
         lambda: diag.check_acceptance_conditions(records, problem, params)),
        ("function", lambda: diag.check_function_descent(records, problem)),
        ("frozen", lambda: diag.frozen_phase_start(records)),
        ("frozen5", lambda: k0),
        ("settling", lambda: diag.check_objective_settling(records)),
        ("cfi", lambda: diag.check_cfi_bound(records, problem)),
    ]
    for start in sorted({1, k0 or 1}):
        checks += [
            (f"sufficient@{start}", lambda start=start:
             diag.check_sufficient_decrease(records, params, start=start)),
            (f"subgradient@{start}", lambda start=start:
             diag.check_subgradient_bound(records, problem, params,
                                          start=start)),
        ]
    out = []
    for name, check in checks:
        try:
            outcome = check()
        except ValueError as exc:
            outcome = ("raises", str(exc))
        out.append((name, _plain(outcome)))
    return out


def _digest(problem, result):
    return hashlib.sha256(repr(_reports(problem, result)).encode()).hexdigest()


# sha256 of the repr of every check's outcome on each trace of the grid
PINNED = {
    'abssincos/cocain/freeze':
        'a83270d062d8e3eead81ef998f176fb9eea2bdce825abeb23a74a74042f32e83',
    'abssincos/cocain/gaps':
        '44c3f2fe7459f02477c8059c49a3f69766f589d1a266f1ee112dcc69ac09ec77',
    'denoise/bpg_fixed':
        '4b644ea0f38d09e7658b9844a1a2cdf058ae6325800dc20c6c552ac5c39a176d',
    'denoise/bpg_wb':
        'cbfa17b86f45a9eb20f2b7ba0c4d39d294ac85c12eb2771f54896a84768e02a4',
    'denoise/cocain':
        '9e63ee04a1f8358a6f31b92e34dc688914f15d8b32d1aabca440a5676e66dde8',
    'denoise/cocain_nobt':
        '319876da22e064e20e63d14ddf98315beaa56b6c956fd9593e5d2aed25d24456',
    'denoise/ipiano':
        '47aaa48fbd4a7698edf88746d3e365bb8dcecc354150365a4935e9a0db5127ed',
    'logquad/bpg_fixed':
        '2981210825560d422c99fdd05b3eefae8c863e3c4cd4175f9ea396d465a50650',
    'logquad/bpg_wb':
        '8ce454e941bb5752bdc0a0b8f385d1c69f94f1cc5539bafa3a83b39c2799e3e9',
    'logquad/cocain':
        'c768dabb17d6ed5cc633790d5daeef4d119da9dae9f154fa14d1becc9f2b3e2a',
    'logquad/cocain/1':
        'dc5fd93434e111fb5e315c338ceb9222b508dbce0be538d816071beab735fe88',
    'logquad/cocain/dh':
        'd0a5d3e5fdfa9f2a770530dfa2fcd92449fecb6e14360445f46da2c1dd276c4d',
    'logquad/cocain/psi':
        '0d709d1b7b73e77b35d48b2a529da1803355eea4e0c30e1b04dcd8e33023c91b',
    'logquad/cocain/tau':
        'c768dabb17d6ed5cc633790d5daeef4d119da9dae9f154fa14d1becc9f2b3e2a',
    'logquad/cocain/y':
        'b28f302d8394c4445063686f660c8eb92572105061717cf40807ac0d8173120f',
    'logquad/cocain_nobt':
        '5418d45af882ae08387aaf73800075e9917c30cb53ec1278b14369bafed68bcc',
    'logquad/ipiano':
        '78dc1a348c7ce4baaebe1e0137ff973d53abdefedb7cd1d519646abea7f4992a',
    'phase_retrieval/bpg_fixed':
        '129c90904f5c1454771ad8fa48c9bf576d15ac9d267f6ec8cb54a0c7dffa1e48',
    'phase_retrieval/bpg_wb':
        'e69f6daa2f85c1220c6d07eb4f6b4489ac253bd4f45182d7d3cc8653e942d003',
    'phase_retrieval/cfi':
        'dfa8bc36e60a759b9b92f6ba8f5a93e561d976d507263f42ec4413503ac9650d',
    'phase_retrieval/cfi/1':
        'aef1cdb628506f1c02e10d20f078843305556f2340764ecfe02ea76947836336',
    'phase_retrieval/cfi/gamma':
        '66ef690f85f1ed03852848f36a4bf1916816b359f6055661a5b8b135aa3e0bd7',
    'phase_retrieval/cocain':
        '566a8b4fbf64de0ea2880ece3b7984f05da80a788d47750bd7d487d0b3dd3804',
    'phase_retrieval/cocain/dh':
        'e9af67c856a148c3f1e415a39f266c39491856b6b8d643f040b2109c300ea6bc',
    'phase_retrieval/cocain/psi':
        'de59c2238536cd9ae83c502a6db6053506bfcf050ddabe40955590cb8f4069a8',
    'phase_retrieval/cocain/tau':
        '9302027d71b9b77ab3bf2558dddd66ff73f6c59e4d74a10025649bfb128f7083',
    'phase_retrieval/cocain/y':
        'bb8c1e1f7c5305bda8fb9bf1c7ffca1e2d9e057444c3232aa4eb497ddaf101ef',
    'phase_retrieval/cocain_nobt':
        'bc5828e3ccafb340aed54ef909d7f30c907571c05f62a0f39384bdbf0c549176',
    'quadratic/cocain/freeze':
        'd5cf038b27bee388762fc0c49b46d24d34957f5eae051b2f7f2c8a7b8219e2b9',
    'spurious2d/bpg_fixed':
        'ab6fcfd914058f8da4946e926248732ec61a5df7bbf321efd6ca7fa566d0f0c8',
    'spurious2d/bpg_wb':
        '53a2119a4daef995059f4611f5899617801a4b53138fd5f48cae039a03dbdba4',
    'spurious2d/cocain':
        'eeb9b7410812863279396d1071eff6875c6db0401d12f889f61ce7cb7abfb25b',
    'spurious2d/cocain/freeze':
        'eeb9b7410812863279396d1071eff6875c6db0401d12f889f61ce7cb7abfb25b',
    'spurious2d/cocain_nobt':
        'c962a997872060c0481f0a45a7a3d9a25e7a0d964cb161d937ee015d1daa4288',
    'spurious2d/ipiano':
        '8504984e237b00caa729ab8f55db9fc4e1b0824159a6cf623e63b7ac7ae1ffb7',
}


@pytest.mark.parametrize("label", sorted(GRID))
def test_reports_match_pinned_digest(label):
    assert _digest(*GRID[label]()) == PINNED[label]


# each check certify runs, called directly, by report name
DIRECT = {
    "lyapunov_descent": lambda records, problem, params:
        diag.check_lyapunov_descent(records, params),
    "prefix_bound": lambda records, problem, params:
        diag.check_prefix_bound(records, params),
    "acceptance_conditions": diag.check_acceptance_conditions,
    "function_descent": lambda records, problem, params:
        diag.check_function_descent(records, problem),
}


@pytest.mark.parametrize("label", sorted(GRID))
def test_certify_is_the_promised_checks_bit_for_bit(label):
    problem, result = GRID[label]()
    records = result.records
    params = diag.LyapunovParams.from_run(result, problem)
    reports = diag.certify(result, problem)
    assert [r.name for r in reports] == [
        name for name in diag.PROMISES[result.solver]
        if name != "acceptance_conditions" or records[0].x is not None]
    assert [report_bits(r) for r in reports] == [
        report_bits(DIRECT[r.name](records, problem, params)) for r in reports]


def test_every_trace_is_pinned():
    assert set(PINNED) == set(GRID)
