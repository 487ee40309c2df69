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
    checks = [
        ("phi", lambda: diag.lyapunov_phi(records, params)),
        ("descent", lambda: diag.check_lyapunov_descent(records, params)),
        ("prefix", lambda: diag.check_prefix_bound(records, params)),
        ("conditions",
         lambda: diag.check_acceptance_conditions(records, problem, params)),
        ("function", lambda: diag.check_function_descent(records, problem)),
        ("cfi", lambda: diag.check_cfi_bound(records, problem)),
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
        '80a71fa76981b20a508db9bafff30a37f49c57be6a4d427cb59bb6e38d1a106f',
    'abssincos/cocain/gaps':
        '5f255f717d4864aa6238c6360ec66eee88eb3e67e2925bb3a856266b957e5657',
    'denoise/bpg_fixed':
        'bb3598bfb08bda1390b37b5bae407d056e17d6427d58dee6e09b5d327fafe749',
    'denoise/bpg_wb':
        'cf6896d203178b62d6d66e4801eff062988636f6cc8c629de83778b5a10681ac',
    'denoise/cocain':
        '188db36fc143141dba1b3856c2c4864f1195db8727a9b4aa0bea56182c3ee2fb',
    'denoise/cocain_nobt':
        '5ff4d80a1bd37ae90f71ebe6350c88d435208258485a2b8f4c6153cc371f9bab',
    'denoise/ipiano':
        '34304a68026a079212ce63d799bdac5cb87cb6dfbd24057d31d399a3a8d118dd',
    'logquad/bpg_fixed':
        '9944af32e1a22ce9dee508108ac00f04486674e81410370135f24dcc03928b90',
    'logquad/bpg_wb':
        '4dbb55c2c097335895284b0b2f6b30cbad5492dfd09862c7e58736b4b471a5b1',
    'logquad/cocain':
        '06e8a75ff3233ac36a80925984d3343d6b18eb4725d28c87ca1adb22a71c8046',
    'logquad/cocain/1':
        '95a7e01d29c3a10b0b316515966000c9600736ce017d9745096c652ad9ffb70b',
    'logquad/cocain/dh':
        '8f675c3adddcdd91328a0f0cf7be8a81f02612e4ee5eb78dadce69e173122ffd',
    'logquad/cocain/psi':
        'de30be336df4f0e907a1aa2e4ca72b2708855811671f64be3ab94b004cd5446e',
    'logquad/cocain/tau':
        '06e8a75ff3233ac36a80925984d3343d6b18eb4725d28c87ca1adb22a71c8046',
    'logquad/cocain/y':
        'a22791678957611e6be37c93e4c1cb5087a73249a9afc0575ccf64f58e6d15ab',
    'logquad/cocain_nobt':
        '16001fb68db67cd6696ade18484ddd428369a3f59d77b96ddc19cd4e80a090e2',
    'logquad/ipiano':
        'def897b78b54ff2695124a302f3834bb1eebf1f3988b6f10afef4ef75da94053',
    'phase_retrieval/bpg_fixed':
        'f9cd6f81c9f85e7e77b9d294d38bf1be49b681672dd2228cfd36005c63210883',
    'phase_retrieval/bpg_wb':
        '7c7a400b4fc4637fa1536d23962dd76c1d5b475fb6d37d335c0c746a6730d781',
    'phase_retrieval/cfi':
        'efe49b081bfbafa45dbf750fb9bb53734392561081b7e19349975fd1c98ce4f7',
    'phase_retrieval/cfi/1':
        '58e6fe23ae48289a041e6a77df6ab8ba4d7798bb8c55240649d3142e7408c672',
    'phase_retrieval/cfi/gamma':
        '8f819dfe1b04c202630ef5a71ca284aabab0d3f110e692085733d817f9f67f5d',
    'phase_retrieval/cocain':
        '03ab23d1de6b06c9e36dd59059651b3ede5ec5019357534953eae06fd8fd82a3',
    'phase_retrieval/cocain/dh':
        '5ea08ebf69ef54c840893afe3830eab1f57691dcf7b6900d27415805192400c8',
    'phase_retrieval/cocain/psi':
        '87812cdd540ec86f3b0dfab1941ef7ca124284f72c59b4748a4403c8e9696c5b',
    'phase_retrieval/cocain/tau':
        '32eeda90a693f88a79fd1448c5ce3921d56747683880ff2c1c76ea232970f492',
    'phase_retrieval/cocain/y':
        'e09b2bd1efc9aaa680a1cbeb12ee9161d29596be9f0c96478953a6d4fa9b7cbe',
    'phase_retrieval/cocain_nobt':
        'da17920de0473abca6eb274efd6a16a25a91d802b4e7d965e8f04b29935f3952',
    'quadratic/cocain/freeze':
        '633ac8b9040e23ece72e12876aa11480e58e403582c1cd40ea7d498bb44ca988',
    'spurious2d/bpg_fixed':
        '7eb16982a8b07d72c1c8d434358af4fec40c4529b82286dd90153df0134e0820',
    'spurious2d/bpg_wb':
        '23a4967707586550f7cd2ebfbdd6debcb01fdeee88f465e295e0972bab8caae8',
    'spurious2d/cocain':
        'b429c950e66adca02f087e52823f4bd5c198a072041b4c983c3555f6ac4de024',
    'spurious2d/cocain/freeze':
        'b429c950e66adca02f087e52823f4bd5c198a072041b4c983c3555f6ac4de024',
    'spurious2d/cocain_nobt':
        '4739bc57b48167650b8163e31a25aa4af768dda58a9cfee954200006980359aa',
    'spurious2d/ipiano':
        '8c4f1d6990f15fd399ccb8bf6205096a7e4f5a9677ca84780d3d749e973c0f4e',
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
    "cfi_bound": lambda records, problem, params:
        diag.check_cfi_bound(records, problem),
}


@pytest.mark.parametrize("label", sorted(GRID))
def test_certify_is_the_promised_checks_bit_for_bit(label):
    problem, result = GRID[label]()
    records = result.records
    params = diag.LyapunovParams.from_run(result, problem)
    reports = diag.certify(result, problem)
    assert [r.name for r in reports] == [
        name for name in diag.PROMISES[result.solver]
        if name not in diag._NEEDS_ITERATES or records[0].x is not None]
    assert [report_bits(r) for r in reports] == [
        report_bits(DIRECT[r.name](records, problem, params)) for r in reports]


def test_certify_fails_the_cfi_bound_of_an_understated_gamma():
    problem, result = GRID["phase_retrieval/cfi/gamma"]()
    report = diag.certify(result, problem)[-1]
    assert report.name == "cfi_bound"
    assert not report.passed


def test_every_trace_is_pinned():
    assert set(PINNED) == set(GRID)
