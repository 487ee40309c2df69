"""Pinned traces: every solver of the CLI table on four small problems.

Each run's `--compare` CSV text (`cli._trace_csv` with wall times zeroed)
is hashed and compared with a digest recorded from an earlier build, so a
refactor of the solvers that moves any column of any trace by one ulp
fails here.  The closed-form inertia variant needs the quartic kernel and
iPiano the Euclidean one, so each runs only where it is defined.

A fifth problem, denoise 64x64 over 100 iterations with the three solvers
of the shipped denoise study, pins the log prox and the stencil oracle on
enough entries to reach every branch of the prox many times over.

Phase retrieval at d=40, m=200 (l1 and sql2, 100 iterations) pins the
quartic-kernel solvers where the sensing products are large enough for a
reordering of the smooth oracle to show, and the `cocain` run with stored
iterates pins the iterates themselves and the acceptance audit over them.

The phase-retrieval runs of the inertial solvers are also held by a drift
guard that does not hash: their trial counts and termination exactly, and
psi at a few records to 1e-12 relative.  A change to the lower search that
moves these traces by rounding only passes it unchanged, and its digests
above are then re-recorded.
"""

import hashlib
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from cocain import cli
from cocain import diagnostics as diag
from cocain.pgm import synthetic_blocks
from cocain.problems import (
    add_outlier_noise,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
    make_spurious2d,
    make_univariate,
)
from cocain.solvers import replace_record
from helpers import assert_traces_identical


def _logquad():
    config = cli.SolverConfig(max_iters=30, stop_tol=0.0)
    return make_univariate("logquad"), config, np.array([2.0])


def _spurious():
    config = replace(cli.SPURIOUS_CONFIG, max_iters=60)
    return make_spurious2d(), config, np.array([2.0, -2.0])


def _phase_retrieval():
    data = generate_phase_retrieval(6, 30, seed=0, noise_std=0.3)
    config = replace(cli.PHASE_RETRIEVAL_CONFIG, max_iters=60)
    problem = make_phase_retrieval(data, reg="l1", lam=0.1)
    return problem, config, np.full(6, 2.0)


def _denoise():
    noisy = add_outlier_noise(synthetic_blocks(8, 8), magnitude=1e5,
                              fraction=0.05, seed=0)
    problem = make_robust_denoising(noisy, lam=10.0, rho=1.0)
    config = replace(cli.DENOISE_CONFIG, max_iters=30)
    return problem, config, np.zeros(problem.dim)


def _denoise64():
    noisy = add_outlier_noise(synthetic_blocks(64, 64), magnitude=1e5,
                              fraction=0.05, seed=0)
    problem = make_robust_denoising(noisy, lam=10.0, rho=1.0)
    config = replace(cli.DENOISE_CONFIG, max_iters=100)
    return problem, config, np.zeros(problem.dim)


def _phase_retrieval40(reg):
    def build():
        data = generate_phase_retrieval(40, 200, seed=0, noise_std=0.3)
        config = replace(cli.PHASE_RETRIEVAL_CONFIG, max_iters=100)
        problem = make_phase_retrieval(data, reg=reg, lam=0.1)
        return problem, config, np.full(40, 2.0)

    return build


PROBLEMS = {
    "logquad": _logquad,
    "spurious2d": _spurious,
    "phase_retrieval": _phase_retrieval,
    "denoise": _denoise,
    "denoise64": _denoise64,
    "phase_retrieval40_l1": _phase_retrieval40("l1"),
    "phase_retrieval40_sql2": _phase_retrieval40("sql2"),
}

# sha256 of the --compare CSV of each (problem, solver) run
PINNED = {
    ("logquad", "cocain"):
        "32022bb57570a3cc44e5c25b3573ffe43ee1478c2adabab1ac169581ec272862",
    ("logquad", "cocain_nobt"):
        "f9b53bb5ca58d511844d5b2531b3a5bb04d95f78212403f24137b3388e0c485e",
    ("logquad", "bpg_wb"):
        "46b07c3743f11f0a194a13deff75e776f15b684c1c538c903f6bf94bd8be0ae6",
    ("logquad", "bpg_fixed"):
        "174fbcbdeb9fe4f7e6ed4d6ed48dc53eff3872c75ac1a85b844b0e2b0499ee68",
    ("logquad", "ipiano"):
        "9d89aec995166fcf752e041af6cf9387635b870d65770dafab946eb9e4b6aa5c",
    ("spurious2d", "cocain"):
        "aecfe9621df835d9a994de93c6d6f541fc473952d4c54aed885d8d7667427dfd",
    ("spurious2d", "cocain_nobt"):
        "8f5dfd439f1ae398f4e2ca5c10c463f986f058d7b387ffae99e5cb1a44754e48",
    ("spurious2d", "bpg_wb"):
        "f87ea13646918be0cb51d40f7e67106cdd44f8ca61329fdd4b40843d26e9ab0c",
    ("spurious2d", "bpg_fixed"):
        "bccfcd9257a2ba0e457c6310d03e7a5d77f4091a5cfbd63a9f0549bd1b5d043b",
    ("spurious2d", "ipiano"):
        "d61198a80b89d14507d438559937879a2f20cfab5dafa213a8c027b77c24d23e",
    ("phase_retrieval", "cocain"):
        "8a70aa11273aa4217c2ebd059d388bb997307e7d059f8576689a1e8795548867",
    ("phase_retrieval", "cfi"):
        "747bd2718898c0d65fde6e738a79e058ad4fe0a45f6c3dd8dd9c19dddca7b22a",
    ("phase_retrieval", "cocain_nobt"):
        "443aa2e5b9ce0e382ef2b2be548a1bd2f35575d12f034edf3b70fc98e130b55f",
    ("phase_retrieval", "bpg_wb"):
        "c20b1cdd51fb8302e40a7158e566507ebbbfb6564675570f160998cfa50beb22",
    ("phase_retrieval", "bpg_fixed"):
        "21238f70e7456de2f53484f1433b992183ca628674807c3fecc9b84b50771bec",
    ("denoise", "cocain"):
        "87b9795a5ca8d8c17af6f2f27283abd9e3a945c8198ac69781512f9dffedd8ca",
    ("denoise", "cocain_nobt"):
        "8cc3498f0d1b135e9f35265de1ad238ddc784368402da330802dc764390f839b",
    ("denoise", "bpg_wb"):
        "428d8ff79acb0509b3da04aedabc4888c9af0556538df3913a63336311dd7994",
    ("denoise", "bpg_fixed"):
        "85c5cef6f32a10a64ca500edbc56bceae14957c4397f37c0ef945716595940f3",
    ("denoise", "ipiano"):
        "b6ce3eac1850d5d9f89baf0f5c43ca5c93bfcb20ff4505dfc1fb3f94d6de98c2",
    ("denoise64", "cocain"):
        "924886c419cfb5df184ee6aab3415c7e00baf910b0faa740e7e09395a8478f7e",
    ("denoise64", "bpg_wb"):
        "67c416aac554ef4b983bac71c5bd35c7c7559d25dbf1e4f029f0c831ddff8dd8",
    ("denoise64", "bpg_fixed"):
        "c2935b9fd682ba05ea8b0db2cccbc37964b24d3ddec32abe872798dc2b5dc96a",
    ("phase_retrieval40_l1", "cocain"):
        "0ca79f104c4c6a80ba67cb5b5fc1bfda5b678d435e2bab17efea3884bc767b62",
    ("phase_retrieval40_l1", "cfi"):
        "d193c825583cdcbd02f75cb47c1a4cd2cff3e0c9e8845601cbcad88d640cf5d3",
    ("phase_retrieval40_l1", "bpg_wb"):
        "2f9abf09157dced766b9ca4ab119380bee931e5094704bc295af86a1321737a8",
    ("phase_retrieval40_l1", "bpg_fixed"):
        "24686d5d5e2494628d9cb68d1707990ae4d39576f7010d0fdf4a94f0584efd97",
    ("phase_retrieval40_l1", "cocain_nobt"):
        "07d5466d5c7520c76568cb4170c6bac9bfc0fd8273490c48c41dd5c062b13eb3",
    ("phase_retrieval40_sql2", "cocain"):
        "5bff181e4096b97ad39082f1865c85f3816ee8c26b53d3e617bd82b7c6024968",
    ("phase_retrieval40_sql2", "cfi"):
        "b037d979df96de7b19f1923453752a754bcc2f9b0c5eed3a20398e10d061754b",
    ("phase_retrieval40_sql2", "bpg_wb"):
        "8bdfe8d182542d68593308917c32690ff0a83a282c1db05b34cc7fc01ce707ae",
    ("phase_retrieval40_sql2", "bpg_fixed"):
        "b172fbd2aa75579d51dfff2d350255b86f58fb3c78a3a7770e1dafd44655a19e",
    ("phase_retrieval40_sql2", "cocain_nobt"):
        "5ab17d3b536a392983752f7a11ad3e60c20aab47eedf4885872280d5ddd38e7e",
}


def _csv_digest(records):
    ref = min(rec.psi for rec in records)
    text = cli._trace_csv(records, ref, True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("problem_name,solver", sorted(PINNED))
def test_trace_matches_pinned_digest(problem_name, solver):
    problem, config, x0 = PROBLEMS[problem_name]()
    seen = []
    result = cli.SOLVERS[solver](problem, config, x0, callback=seen.append)
    assert result.solver == solver
    assert len(seen) == result.iterations
    assert_traces_identical(seen, result.records[1:-1])
    assert _csv_digest(result.records) == PINNED[problem_name, solver]


def _bits(y):
    return None if y is None else y.tobytes()


@pytest.mark.parametrize("problem_name,solver", sorted(PINNED))
def test_stored_base_points_are_the_ones_the_run_formed(problem_name,
                                                         solver):
    # the trace keeps each y as its x, re-forms it or keeps a copy: every
    # reader returns the bits the callback saw while the run formed it
    problem, config, x0 = PROBLEMS[problem_name]()
    config = replace(config, store_iterates=True)
    seen = []
    result = cli.SOLVERS[solver](
        problem, config, x0, callback=lambda rec: seen.append(_bits(rec.y)))
    trace = result.records
    assert len(seen) == result.iterations == len(trace) - 2
    ys = [None, *seen, None]
    assert [_bits(rec.y) for rec in trace] == ys
    assert [_bits(trace[k].y) for k in range(len(trace))] == ys
    assert list(map(_bits, trace.y)) == ys
    X = np.array(trace.x[:-1])
    Y, reformed = trace.y_stack(1, len(trace) - 1, X)
    assert Y.tobytes() == b"".join(seen)
    # every y but a no-inertia rule's x^k itself is re-formed
    assert list(reformed) == [rec.y is not rec.x for rec in trace[1:-1]]


def test_a_no_inertia_y_is_kept_as_its_x_with_its_negative_zero():
    # bpg_wb's y^k is x^k itself, which x + 0 (x - x_prev) is not: it turns
    # the -0.0 of the start into +0.0
    problem, config, x0 = PROBLEMS["phase_retrieval"]()
    x0[0] = -0.0
    config = replace(config, store_iterates=True)
    seen = []
    result = cli.SOLVERS["bpg_wb"](
        problem, config, x0, callback=lambda rec: seen.append(_bits(rec.y)))
    trace = result.records
    x = trace[1].x
    assert np.signbit(x[0]) and not np.signbit((x + 0.0 * (x - x))[0])
    for records in (trace, replace_record(trace, 3, psi=-1.0)):
        assert records[1].y is records[1].x
        assert [_bits(rec.y) for rec in records][1:-1] == seen


def _audit_outcome(report):
    details = {key: value.hex() if isinstance(value, float) else value
               for key, value in report.details.items()}
    return (report.passed, report.n_checked, report.worst_violation.hex(),
            report.worst_index, details)


def _broken(records):
    """The trace with the constants of three records zeroed, so that the
    minorant and majorant excesses there are nonzero floats."""
    broken = records
    for k in (10, 50, 90):
        broken = replace_record(broken, k, L_bar=0.0,
                                L_lower=-records[k].L_bar)
    return broken


def _stored_audit_digest(problem, result):
    """sha256 of the stored iterates and of the acceptance audit, on the
    trace as run and on `_broken` of it."""
    records = result.records
    params = diag.LyapunovParams.from_run(result, problem)
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.x.tobytes())
        h.update(b"" if rec.y is None else rec.y.tobytes())
    for trace in (records, _broken(records)):
        report = diag.check_acceptance_conditions(trace, problem, params)
        h.update(repr(_audit_outcome(report)).encode())
    return h.hexdigest()


# sha256 of the stored iterates and acceptance audits of a cocain run
PINNED_AUDIT = {
    "phase_retrieval40_l1":
        "4cb0ed0a4e65608b28b7c5fee7f1b90fde202a94dfed1fd5e6e6e32412d60f0e",
    "phase_retrieval40_sql2":
        "03e3c2c1d5eee76d23f3078006f8caaabf57893e58e79723624e4c382c606787",
}


@pytest.mark.parametrize("problem_name", sorted(PINNED_AUDIT))
def test_stored_iterates_and_audit_match_pinned_digest(problem_name):
    problem, config, x0 = PROBLEMS[problem_name]()
    config = replace(config, store_iterates=True)
    result = cli.SOLVERS["cocain"](problem, config, x0)
    assert _csv_digest(result.records) == PINNED[problem_name, "cocain"]
    assert (_stored_audit_digest(problem, result)
            == PINNED_AUDIT[problem_name])


def test_every_solver_is_pinned():
    assert {solver for _, solver in PINNED} == set(cli.SOLVERS)
    assert {name for name, _ in PINNED} == set(PROBLEMS)


# (termination, lower_trials and upper_trials of records 1..n as
# (trials, repeats) runs, {record: float.hex of psi}) of each inertial run
DRIFT_GUARD = {
    ("phase_retrieval", "cocain"): (
        "max_iters",
        ((1, 39), (32, 1), (7, 1), (2, 1), (3, 1), (2, 3), (1, 1), (2, 4),
         (1, 1), (2, 1), (1, 7)),
        ((9, 1), (1, 59)),
        {10: "0x1.6b10556a4d23cp+6", 30: "0x1.ebafe825a4506p+2",
         61: "0x1.2cb357ebe89d9p+1"}),
    ("phase_retrieval", "cfi"): (
        "max_iters", ((1, 60),), ((9, 1), (1, 59)),
        {10: "0x1.0a13202ce891fp+5", 30: "0x1.8d7f55c38369ep+0",
         61: "0x1.81b0c62dfd1efp+0"}),
    ("phase_retrieval40_l1", "cocain"): (
        "max_iters", ((1, 100),), ((12, 1), (1, 99)),
        {10: "0x1.861b05e97c4eap+16", 50: "0x1.7a5cafb043726p+7",
         101: "0x1.fd3ea8b7da02fp+5"}),
    ("phase_retrieval40_l1", "cfi"): (
        "max_iters", ((1, 100),), ((12, 1), (1, 99)),
        {10: "0x1.3dcfc28bfcd33p+15", 50: "0x1.15c245ef41ed4p+6",
         101: "0x1.7b16e24fa1a6bp+4"}),
    ("phase_retrieval40_sql2", "cocain"): (
        "max_iters", ((1, 100),), ((12, 1), (1, 99)),
        {10: "0x1.861a721d5a17ep+16", 50: "0x1.7957f4dded476p+7",
         101: "0x1.f96653818fb10p+5"}),
    ("phase_retrieval40_sql2", "cfi"): (
        "max_iters", ((1, 100),), ((12, 1), (1, 99)),
        {10: "0x1.3dcef00ccac8bp+15", 50: "0x1.13c2e48766ccap+6",
         101: "0x1.79402ab7d90f1p+4"}),
}


def _runs(values):
    return tuple((value, len(list(group))) for value, group in groupby(values))


@pytest.mark.parametrize("problem_name,solver", sorted(DRIFT_GUARD))
def test_inertial_phase_retrieval_trials_and_psi(problem_name, solver):
    termination, lower, upper, psi = DRIFT_GUARD[problem_name, solver]
    problem, config, x0 = PROBLEMS[problem_name]()
    result = cli.SOLVERS[solver](problem, config, x0)
    steps = result.records[1:-1]
    assert result.termination == termination
    assert _runs(rec.lower_trials for rec in steps) == lower
    assert _runs(rec.upper_trials for rec in steps) == upper
    assert len(result.records) - 1 == max(psi)
    for k, pinned in psi.items():
        assert result.records[k].psi == pytest.approx(float.fromhex(pinned),
                                                      rel=1e-12, abs=0.0)


def test_run_config_with_auto_L(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text("""\
[problem]
name = logquad

[run]
solvers = bpg_fixed
x0 = 2.0

[solver]
max_iters = 30
stop_tol = 0

[solver.bpg_fixed]
L = auto
""")
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out", str(out), "--compare"]
    assert cli.main(argv) == 0
    text = (out / "logquad_bpg_fixed.csv").read_text()
    problem, _, _ = _logquad()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert all(float(row[3]) == 1.0 / problem.smad_L for row in rows)
    # the same run as the direct call with L = None, i.e. problem.smad_L
    assert (hashlib.sha256(text.encode()).hexdigest()
            == PINNED["logquad", "bpg_fixed"])
