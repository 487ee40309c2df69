"""Pinned traces: every solver of the CLI table on four small problems.

Each run's `--compare` CSV text (`cli._trace_csv` with wall times zeroed)
is hashed and compared with a digest recorded from an earlier build, so a
refactor of the solvers that moves any column of any trace by one ulp
fails here.  The closed-form inertia variant needs the quartic kernel and
iPiano the Euclidean one, so each runs only where it is defined.

A fifth problem, denoise 64x64 over 100 iterations with the three solvers
of the shipped denoise study, pins the log prox and the stencil oracle on
enough entries to reach every branch of the prox many times over.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cocain import cli
from cocain.pgm import synthetic_blocks
from cocain.problems import (
    add_outlier_noise,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
    make_spurious2d,
    make_univariate,
)


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


PROBLEMS = {
    "logquad": _logquad,
    "spurious2d": _spurious,
    "phase_retrieval": _phase_retrieval,
    "denoise": _denoise,
    "denoise64": _denoise64,
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
        "6f053d004bfa13a6a6865c0a211e66246f2cae3be90f3cf0af7296bd526e1354",
    ("phase_retrieval", "cfi"):
        "298ba0c4e48a6cf8f40accf7a529ff0d46fa8f8cba688e99b93ee93a09a91ea1",
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


def test_every_solver_is_pinned():
    assert {solver for _, solver in PINNED} == set(cli.SOLVERS)
    assert {name for name, _ in PINNED} == set(PROBLEMS)


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
