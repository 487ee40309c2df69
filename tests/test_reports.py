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
distance or the stored base point corrupted at one record.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cocain import cli
from cocain import diagnostics as diag
from cocain.problems import make_univariate
from cocain.solvers import replace_record
from helpers import quadratic_problem
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
        ("summary", lambda: {key: value for key, value
                             in diag.summarize(result, problem, params).items()
                             if key != "wall_time_s"}),
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
        if isinstance(outcome, diag.CheckReport):
            outcome = (outcome.name, outcome.passed, outcome.n_checked,
                       outcome.worst_violation, outcome.worst_index,
                       outcome.details)
        out.append((name, _plain(outcome)))
    return out


def _digest(problem, result):
    return hashlib.sha256(repr(_reports(problem, result)).encode()).hexdigest()


# sha256 of the repr of every check's outcome on each trace of the grid
PINNED = {
    'abssincos/cocain/freeze':
        'd903ddcc1d7a264ac8aa2ca8256f33764be2de1b22de6f28b84ad221c0bd41c1',
    'abssincos/cocain/gaps':
        '4aae7c6f11b831e18f1bcb2bd15396eab7cfd436f169c5f1f63819a783657c59',
    'denoise/bpg_fixed':
        '3d3773747f352c16dabfa01c6cfd3031b00364946e388e6c58cacfa240849b3d',
    'denoise/bpg_wb':
        'd0766d2a798255ee099cd53c11800b13c6692fd6133690a6ac7c557da465dc51',
    'denoise/cocain':
        '63648f0a896dbb6096b1290d8b2617f4a7b750ef0d3db04315d9ee6a8dec7009',
    'denoise/cocain_nobt':
        '39b85892eb9e6a432790e1a7d9026ff5a6bbb995b77569f14ab527dbc77ee7d9',
    'denoise/ipiano':
        'b7b1526832c95b2c7951d97b7b638411473ad78744671a5b301c728feb8a98cc',
    'logquad/bpg_fixed':
        '4bc8ecb5fb558e62bd732871b56643f916c321d0b19410d16420d7a6f136a926',
    'logquad/bpg_wb':
        '79e7c0774690a25d46e0c3bf2626f408b9d04a1e57b4a7d24b1ecb4ff0c1965a',
    'logquad/cocain':
        'eb2c26d858476b83154b2ffcdf15b31ff8a291bacbe1374cd1716201d37671bc',
    'logquad/cocain/1':
        '20c3c109d05150ac1f2fc88d48ace68db9819844c866c584af287d59b647de9c',
    'logquad/cocain/dh':
        '445a8dd9bdd89865d4011acbd5bb864f7691f59d0c8449a934eab1796c7bdcb3',
    'logquad/cocain/psi':
        '97524b7fa7616e183250a47a5e8698cee0d2b78b54869edd29106b99135cc3f3',
    'logquad/cocain/tau':
        'eb2c26d858476b83154b2ffcdf15b31ff8a291bacbe1374cd1716201d37671bc',
    'logquad/cocain/y':
        'c87d4f1114d8e5077b3cae5547902df498ce5433d4d01704a01ae1e908bd98af',
    'logquad/cocain_nobt':
        '3edeb4d1715e8a307b3a5a28366939a373d62cbdb21bb09f43081f102147f94f',
    'logquad/ipiano':
        'b5a097619c59ae5ff93e1a70c18b9f3e8babc0670ccef974bb1e9baa2663347c',
    'phase_retrieval/bpg_fixed':
        '696458132617250324cbe9ff0c4d2c20f65f4e2e17e069737bc6778d805a899a',
    'phase_retrieval/bpg_wb':
        '0f5452eb3a2b58196b64ebe346e6e8926b1f28499512d6bd8cce1c50d1c9634c',
    'phase_retrieval/cfi':
        'de0532b40aacbaf16cb5c6d69931fe277601ee0aec076fa539d91bec4ff4709c',
    'phase_retrieval/cfi/1':
        '52fa5e72f9b72a4223feab57145a417c25d34d1e4c299ac44da8352458ba6336',
    'phase_retrieval/cfi/gamma':
        'eb014faeb77f2b193db16fb2d7b312c1a38eba87882f3b566a66a1e450f09339',
    'phase_retrieval/cocain':
        'e386b5001c471870405ce0382e3acb21ee25508e103fe1f2c7eac899b2f8fe46',
    'phase_retrieval/cocain/dh':
        '6bf41af34bfdbfb6027ca33ee5c2e114c7b05c1c462c673193490cf91aff400e',
    'phase_retrieval/cocain/psi':
        '9113683d5049d7801907df206a129bc0edcfb1694718356262e4b9089141d1f0',
    'phase_retrieval/cocain/tau':
        '28b09ce0f4ec0534708da71b59890715713893db6572df91fd7046924962e608',
    'phase_retrieval/cocain/y':
        'dda29fa64910d286248ed9e4800d77023bcd15333dbdb2f81fcfb4259fa38943',
    'phase_retrieval/cocain_nobt':
        '9939afff4b40b2cb57ba08a4458bf1ad5177a8212522190505202dd8ec87cda6',
    'quadratic/cocain/freeze':
        '20bfc634e27eabe7186952836a05b058b17885b1b47b09c8beb9b9f2567ac45a',
    'spurious2d/bpg_fixed':
        'e39ef17b167e5da66628d578c614e9cbda294710d004f9c6e20d2a30f5d03a85',
    'spurious2d/bpg_wb':
        'f07704f0248ce8c25447f5b47fcd387fbd87f75f4f766c684f82e50e0c93a735',
    'spurious2d/cocain':
        'a1d6e45001645b97af654d4882f3b77d1d124cf28bbd0a734935a9352ee7a810',
    'spurious2d/cocain/freeze':
        '3c7980330d5c6d8e54aa7d7dc9d0a56b28a628c9a4a5992d5788efbddbcd8534',
    'spurious2d/cocain_nobt':
        '5de448eb65b003c118d141310585bcc53d5e431078da7d13615be19706a2c362',
    'spurious2d/ipiano':
        'ee938bc0cd9e51eddad0ee9a959efee49ca93830e2ab15cd9debded41b5d0a7b',
}


@pytest.mark.parametrize("label", sorted(GRID))
def test_reports_match_pinned_digest(label):
    assert _digest(*GRID[label]()) == PINNED[label]


def test_every_trace_is_pinned():
    assert set(PINNED) == set(GRID)
