"""Pinned outputs of every study subcommand.

Each case runs `cli.main` under `--compare` and hashes the name and bytes
of every file it writes, plus what it prints, against a digest recorded
from an earlier build.  A refactor of the CLI's config handling, problem
building, summaries or writers that moves one byte of one output fails
here.  Only Euclidean-kernel problems are used, so the cases pin the CLI
and not the quartic kernel's arithmetic.
"""

import hashlib
import os

import pytest

from cocain import cli

LOGQUAD_INI = """\
[problem]
name = logquad

[run]
solvers = cocain,cocain_nobt,bpg_wb,bpg_fixed,ipiano
x0 = 2.0

[solver]
max_iters = 40
stop_tol = 0
"""

CONTRAST_INI = """\
[problem]
name = abssincos

[run]
solvers = cocain,bpg_wb,cocain_nobt
"""

SWEEP_INI = """\
[solver]
gamma_cap = 0.5
nu_upper = 3
"""

# a 10x12 binary graymap: a ramp with a bright square
IMAGE = (b"P5\n10 12\n255\n" + bytes(
    220 if 3 <= row < 8 and 2 <= col < 6 else 10 * row + 5 * col
    for row in range(12) for col in range(10)))

DENOISE_FLAGS = [
    "--image", "{image}", "--lam", "4", "--rho", "2", "--magnitude", "50",
    "--fraction", "0.1",
    "--solvers", "cocain,cocain_nobt,ipiano", "--seed", "3", "--iters", "15",
]

CASES = {
    "run_logquad": ["run", "--config", "{logquad}"],
    "run_contrast": ["run", "--config", "{contrast}"],
    "sweep": ["sweep", "--n-starts", "5"],
    "sweep_set": ["sweep", "--n-starts", "5", "--set", "solver.gamma_cap=0.5",
                  "--set", "solver.nu_upper=3"],
    "sweep_config_iters": ["sweep", "--n-starts", "5", "--kind", "logquad",
                           "--lo", "-3", "--hi", "4",
                           "--solvers", "cocain,cocain_nobt",
                           "--config", "{sweep}", "--iters", "40"],
    "spurious": ["spurious"],
    "spurious_iters": ["spurious", "--iters", "5",
                       "--starts", "1,-1; 3,0.5; -0.5,2"],
    "denoise_iters": ["denoise", "--iters", "20"],
    "denoise_l1": ["denoise", *DENOISE_FLAGS, "--data-term", "l1"],
    "denoise_sql2": ["denoise", *DENOISE_FLAGS, "--data-term", "sql2"],
}

# sha256 over (name, bytes) of each output file, then stdout
PINNED = {
    "denoise_iters":
        "739b14bffe8537ba4acf44d16801cd141f46a922d28facaffcd3babf8b9af933",
    "denoise_l1":
        "48b4dd4b7c5f956c66033cf385c5738da136a67e0252b2d42f98d4f126fe028f",
    "denoise_sql2":
        "f239ca88bfd62b1ad4c80d9d756bbe96812dba2250d21906c9582376259c0c2c",
    "run_contrast":
        "dd32808bf3e143a85cff58fa9193d731b8c253d346bd5374446349c3e898f077",
    "run_logquad":
        "17cb2e9fde7979fe3388b44c44e13b7440a2efd732bb1a4bc4b743886852bcec",
    "spurious":
        "07d01a8c3381c1a710d5ec7a2cdb8912e1b6be04817b85a899dce2cd62791b27",
    "spurious_iters":
        "1d633f4474c76aa0b1219506853ea89f9e1091c9a84e7ff8db0c4652ff018ecd",
    "sweep":
        "6f2b9f799be644641643193d9d2276d72033683baa1d305c458e90f8b310f870",
    "sweep_config_iters":
        "b0f167f1bb00931c5be63d5da00244cf4c1e19bcd8f4319b733f02a3f242cf21",
    "sweep_set":
        "08b6625004fac3386928a391417266afeb411717ea24326d96bc585ce4622312",
}


def _inputs(tmp_path):
    files = {"logquad.ini": LOGQUAD_INI, "contrast.ini": CONTRAST_INI,
             "sweep.ini": SWEEP_INI}
    paths = {}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name.split(".")[0]] = str(tmp_path / name)
    (tmp_path / "image.pgm").write_bytes(IMAGE)
    paths["image"] = str(tmp_path / "image.pgm")
    return paths


def _digest(out_dir, stdout):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        data = (out_dir / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    h.update(b"stdout\0" + stdout.encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digest(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("COCAIN_OUT", raising=False)
    paths = _inputs(tmp_path)
    argv = [arg.format(**paths) for arg in CASES[case]]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out), "--compare"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _digest(out, captured.out) == PINNED[case]


def test_every_study_subcommand_is_pinned():
    assert {argv[0] for argv in CASES.values()} == {
        "run", "sweep", "spurious", "denoise"}
    assert set(PINNED) == set(CASES)
