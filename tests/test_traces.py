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
        "05a1a1623d93f62cd0e04fc8c8dc69cb9010aba399fe075f03d5939d1d5d9324",
    ("phase_retrieval", "cfi"):
        "fcf88d68070fd0a30530e6f9fd09565c5c7c4fccdc283d905f8c3522e8dcd73f",
    ("phase_retrieval", "cocain_nobt"):
        "e7f578910c184972f41ae6618d00436cc0b05127e0da79157d0a2c6bb7d07589",
    ("phase_retrieval", "bpg_wb"):
        "cc161bce50f736064c1238cf36a445586b36d95a3ea774b5e26aa1e518676b7e",
    ("phase_retrieval", "bpg_fixed"):
        "63b546d861420c0d6777bd0d46345443b2da4b7cda354978ecd94a5e78a27db8",
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
        "149af9d579b0a16a909beaed8bb920e93d903d9ed6529681a571e0ad4026e836",
    ("phase_retrieval40_l1", "cfi"):
        "e7e2b0f38a5d8b297a1a17aaa5c3828e486fdca5f16299233372c259d0159766",
    ("phase_retrieval40_l1", "bpg_wb"):
        "8642d5dd4183177a75548b6f51ed8ef7282ef582067a0f2cfac9556a39e6af7f",
    ("phase_retrieval40_l1", "bpg_fixed"):
        "ab9221463d24a7dc75e64b32df2da92f7e3da0b0aca8495bac70088542242bbb",
    ("phase_retrieval40_l1", "cocain_nobt"):
        "3a06e84a19403b4b0f3aa8e9f0e0e4e68df7e12060e484be5fdd80535c51e4fc",
    ("phase_retrieval40_sql2", "cocain"):
        "aec1d2bd6a8314a8e775b7da54ea0eddb4995ea4b26a1b51e8b917e94b4a9df1",
    ("phase_retrieval40_sql2", "cfi"):
        "b3c8d2597eece7522cb27f31714fe6e5d331bb490a1241a72b44b2a5d2428644",
    ("phase_retrieval40_sql2", "bpg_wb"):
        "0d5d40a07a0161f346cf366e5460af0d04d5744d8f023307590b30c6891ea4da",
    ("phase_retrieval40_sql2", "bpg_fixed"):
        "21aea7485ef942a5044117ff53459c5a71de9b9d74a28523dfc74d74e9b9cf4e",
    ("phase_retrieval40_sql2", "cocain_nobt"):
        "78b6151873232c5d4c81fcc98e7801a3818947c2c22a88164023f3c604d10318",
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
    assert all(a is b for a, b in zip(seen, result.records[1:-1]))
    assert _csv_digest(result.records) == PINNED[problem_name, solver]


def _audit_outcome(report):
    details = {key: value.hex() if isinstance(value, float) else value
               for key, value in report.details.items()}
    return (report.passed, report.n_checked, report.worst_violation.hex(),
            report.worst_index, details)


def _stored_audit_digest(problem, result):
    """sha256 of the stored iterates and of the acceptance audit, on the
    trace as run and with the constants of three records zeroed (so the
    minorant and majorant excesses are nonzero floats)."""
    records = result.records
    params = diag.LyapunovParams.from_run(result, problem)
    broken = records
    for k in (10, 50, 90):
        broken = replace_record(broken, k, L_bar=0.0,
                                L_lower=-records[k].L_bar)
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.x.tobytes())
        h.update(b"" if rec.y is None else rec.y.tobytes())
    for trace in (records, broken):
        report = diag.check_acceptance_conditions(trace, problem, params)
        h.update(repr(_audit_outcome(report)).encode())
    return h.hexdigest()


# sha256 of the stored iterates and acceptance audits of a cocain run
PINNED_AUDIT = {
    "phase_retrieval40_l1":
        "0fa45eb71a376ebd72caab1f4bd01ad3e7b4cac6d05e14c6eb174359a895a753",
    "phase_retrieval40_sql2":
        "313d2fbcfd2fe00e9fdcaa1648f28f34a828c78a23a9a1bcc62602e7bd8d2824",
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
