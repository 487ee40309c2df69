"""End-to-end command tests: exit codes, file layout, byte stability.

All invocations go through cli.main(argv) in process.  Determinism claims
are always checked under --compare, which zeroes wall-clock fields and
drops the timestamp so outputs are byte-stable functions of config + seed.
"""

import ctypes
import dataclasses
import math
import os
import pathlib
import stat
import subprocess
import sys
import typing

import numpy as np
import pytest

from cocain import cli
from cocain.pgm import atomic_write, read_pgm, synthetic_blocks, write_pgm
from cocain.solvers import SolverConfig, Trace, cocain_bpg
from cocain.problems import make_univariate

RUN_CONFIG = """\
[problem]
name = logquad

[run]
solvers = cocain,bpg_wb
x0 = 2.0

[solver]
max_iters = 40
stop_tol = 0
"""


def _write(path, text):
    path.write_text(text)
    return str(path)


def _read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# run command


def test_run_writes_bundle(tmp_path, capsys):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("logquad_cocain.csv", "logquad_bpg_wb.csv", "summary.txt"):
        assert (out / name).exists(), name
    header, rows = _read_rows(out / "logquad_cocain.csv")
    assert header == cli.CSV_HEADER
    assert len(rows) == 42  # 40 iterations plus initial and final records
    assert [int(r[0]) for r in rows] == list(range(42))
    summary = (out / "summary.txt").read_text()
    assert capsys.readouterr().out == summary
    for line in (
        "command = run", "problem = logquad", "dim = 1", "[cocain]",
        "[bpg_wb]", "termination = max_iters", "trace = logquad_cocain.csv",
    ):
        assert line in summary, line
    ordering = next(
        l for l in summary.splitlines() if l.startswith("ordering = ")
    )
    assert sorted(ordering[len("ordering = "):].split(" <= ")) == [
        "bpg_wb", "cocain"
    ]


def test_run_trace_round_trips_exactly(tmp_path):
    # 17-significant-digit serialization must reproduce the in-memory trace
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    result = cocain_bpg(
        make_univariate("logquad"),
        SolverConfig(max_iters=40, stop_tol=0.0),
        [2.0],
    )
    _, rows = _read_rows(out / "logquad_cocain.csv")
    assert len(rows) == len(result.records)
    for row, rec in zip(rows, result.records):
        assert float(row[1]) == rec.psi
        assert float(row[3]) == rec.tau
        assert float(row[4]) == rec.gamma
        assert float(row[5]) == rec.L_bar
        assert float(row[6]) == rec.L_lower
        assert float(row[7]) == rec.dh_prev_curr
        assert float(row[8]) == rec.dh_curr_y
        assert float(row[9]) == rec.step_norm
        assert int(row[10]) == rec.lower_trials
        assert int(row[11]) == rec.upper_trials
    # suboptimality is relative to the best value either solver attained
    ref = min(
        min(float(r[1]) for r in _read_rows(out / f"logquad_{n}.csv")[1])
        for n in ("cocain", "bpg_wb")
    )
    for row in rows:
        assert float(row[2]) == max(float(row[1]) - ref, 0.0)


def _reference_trace_csv(records, ref, compare_mode):
    # the writer's former per-field form, kept as the reference
    lines = [cli.CSV_HEADER]
    for rec in records:
        wall = 0 if compare_mode else rec.wall_time_ns
        lines.append(",".join([
            str(rec.k), cli._fmt(rec.psi), cli._fmt(max(rec.psi - ref, 0.0)),
            cli._fmt(rec.tau), cli._fmt(rec.gamma), cli._fmt(rec.L_bar),
            cli._fmt(rec.L_lower), cli._fmt(rec.dh_prev_curr),
            cli._fmt(rec.dh_curr_y), cli._fmt(rec.step_norm),
            str(rec.lower_trials), str(rec.upper_trials), str(wall),
        ]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("compare_mode", [False, True])
def test_trace_csv_writes_the_reference_bytes(compare_mode):
    result = cocain_bpg(make_univariate("logquad"),
                        SolverConfig(max_iters=30, stop_tol=0.0), [2.0])
    rec = result.records[1]
    edge = [
        rec._replace(k=31, psi=math.inf, tau=-math.inf, gamma=math.nan),
        rec._replace(k=32, psi=-0.0, L_bar=1e-320, L_lower=-1e-320,
                     dh_prev_curr=5e-324, dh_curr_y=1.7976931348623157e308),
        rec._replace(k=33, psi=-math.inf, step_norm=0.1,
                     wall_time_ns=2**63 - 1, lower_trials=60),
        rec._replace(k=34, psi=math.nan),
    ]
    records = Trace([*result.records, *edge])
    for ref in (0.0, -0.0, 1e-320, result.records[-1].psi, math.inf):
        assert (cli._trace_csv(records, ref, compare_mode)
                == _reference_trace_csv(records, ref, compare_mode))


def test_compare_mode_is_byte_stable(tmp_path):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(
            ["run", "--config", cfg, "--out", str(out), "--compare"]
        ) == 0
    for name in ("logquad_cocain.csv", "logquad_bpg_wb.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = (out_a / "summary.txt").read_text()
    assert "timestamp" not in summary and "wall_time_s" not in summary
    _, rows = _read_rows(out_a / "logquad_cocain.csv")
    assert all(row[12] == "0" for row in rows)


def test_timestamp_present_without_compare(tmp_path):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "timestamp = " in (out / "summary.txt").read_text()


def test_iters_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "out"
    assert cli.main(
        ["run", "--config", cfg, "--out", str(out), "--iters", "7"]
    ) == 0
    assert "iterations = 7" in (out / "summary.txt").read_text()


def test_set_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "out"
    assert cli.main(
        ["run", "--config", cfg, "--out", str(out),
         "--set", "solver.max_iters=5"]
    ) == 0
    assert "iterations = 5" in (out / "summary.txt").read_text()


def test_seed_flag_controls_problem_instance(tmp_path):
    cfg = _write(tmp_path / "pr.ini", """\
[problem]
name = phase_retrieval
d = 4
m = 8

[run]
solvers = cocain

[solver]
max_iters = 10
stop_tol = 0
""")
    outs = [tmp_path / n for n in ("a", "b", "c")]
    for out, seed in zip(outs, ("3", "3", "4")):
        assert cli.main(
            ["run", "--config", cfg, "--out", str(out), "--compare",
             "--seed", seed]
        ) == 0
    name = "phase_retrieval_l1_cocain.csv"
    assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert (outs[0] / name).read_bytes() != (outs[2] / name).read_bytes()


def test_solver_specific_sections(tmp_path):
    cfg = _write(tmp_path / "exp.ini", """\
[problem]
name = logquad

[run]
solvers = bpg_fixed,ipiano
x0 = 2.0

[solver]
max_iters = 10
stop_tol = 0

[solver.bpg_fixed]
L = 4.0

[solver.ipiano]
beta = 0.0
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "logquad_bpg_fixed.csv")
    assert all(float(row[3]) == 0.25 for row in rows[1:-1])
    _, rows = _read_rows(out / "logquad_ipiano.csv")
    assert all(float(row[4]) == 0.0 for row in rows)


def _spy_configs(monkeypatch):
    """{solver name: the SolverConfig cli.main ran it with}, filled as the
    solvers run."""
    seen = {}
    for name, solver in list(cli.SOLVERS.items()):
        def spy(problem, config, x0, *, _name=name, _solver=solver, **kw):
            seen[_name] = config
            return _solver(problem, config, x0, **kw)
        monkeypatch.setitem(cli.SOLVERS, name, spy)
    return seen


def test_set_delta_rederives_epsilon(tmp_path, monkeypatch):
    # epsilon follows delta (0.01 * delta) unless a layer sets it
    seen = _spy_configs(monkeypatch)
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--set", "solver.delta=0.5"]) == 0
    assert seen["cocain"].epsilon == 0.005
    result = cocain_bpg(make_univariate("logquad"),
                        SolverConfig(delta=0.5, max_iters=40, stop_tol=0.0),
                        [2.0])
    _, rows = _read_rows(out / "logquad_cocain.csv")
    assert [float(row[4]) for row in rows] == [r.gamma for r in result.records]
    assert [float(row[1]) for row in rows] == [r.psi for r in result.records]


@pytest.mark.parametrize("sets,text", [
    (["solver.delta=0.5", "solver.epsilon=0.2"], RUN_CONFIG),
    ([], RUN_CONFIG.replace("stop_tol = 0", "stop_tol = 0\nepsilon = 0.2")
     + "\n[solver.cocain]\ndelta = 0.5\n"),
], ids=["same_section", "earlier_section"])
def test_explicit_epsilon_beside_delta_is_kept(tmp_path, monkeypatch, sets,
                                               text):
    seen = _spy_configs(monkeypatch)
    cfg = _write(tmp_path / "exp.ini", text)
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "o")]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    assert (seen["cocain"].delta, seen["cocain"].epsilon) == (0.5, 0.2)


def test_iters_flag_caps_solver_sections(tmp_path):
    # --iters is the last layer, after [solver.NAME]
    text = RUN_CONFIG + "\n[solver.cocain]\nmax_iters = 50\n"
    cfg = _write(tmp_path / "exp.ini", text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--iters", "3"]) == 0
    summary = (out / "summary.txt").read_text()
    assert summary.count("iterations = 3") == 2
    assert "iterations = 50" not in summary


def test_run_iters_option_exits_2(tmp_path, capsys):
    # [solver] max_iters is the one spelling of the iteration budget
    text = RUN_CONFIG.replace("x0 = 2.0", "x0 = 2.0\niters = 5")
    cfg = _write(tmp_path / "exp.ini", text)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: unknown run option: iters\n"


def test_cocain_out_env_overrides_flag(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    ignored, actual = tmp_path / "ignored", tmp_path / "actual"
    monkeypatch.setenv("COCAIN_OUT", str(actual))
    assert cli.main(["run", "--config", cfg, "--out", str(ignored)]) == 0
    assert (actual / "summary.txt").exists()
    assert not ignored.exists()


def test_backtrack_failure_exit_code(tmp_path, capsys):
    base = """\
[problem]
name = logquad

[run]
solvers = cocain
x0 = 13.0
{extra}
[solver]
L_bar_init = 1e-8
max_backtracks = 1
"""
    cfg = _write(tmp_path / "fail.ini", base.format(extra=""))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "backtracking failed" in capsys.readouterr().err
    assert "termination = backtrack_failure" in (out / "summary.txt").read_text()
    cfg2 = _write(
        tmp_path / "tolerated.ini",
        base.format(extra="fail_on_backtrack = false\n"),
    )
    assert cli.main(["run", "--config", cfg2, "--out", str(out)]) == 0


@pytest.mark.parametrize("command", [
    lambda tmp: ["run", "--config", _write(tmp / "exp.ini", RUN_CONFIG)],
    lambda tmp: ["sweep", "--n-starts", "2", "--iters", "2"],
    lambda tmp: ["spurious", "--starts", "2,2", "--iters", "2"],
    lambda tmp: ["denoise", "--height", "4", "--width", "4", "--iters", "2"],
])
def test_output_dir_that_cannot_be_made_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert cli.main(command(tmp_path) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


PR500_CONFIG = """\
[problem]
name = phase_retrieval
d = 500
m = 2500

[run]
solvers = cocain,bpg_wb

[solver]
max_iters = 20
stop_tol = 0
"""


def test_blas_thread_count_does_not_change_outputs(tmp_path):
    # d=500 is large enough for a multi-threaded OpenBLAS to split the
    # products and sum them in another order
    cfg = _write(tmp_path / "pr.ini", PR500_CONFIG)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for threads in ("1", "2"):
        pythonpath = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(pythonpath))
        out = tmp_path / f"out{threads}"
        subprocess.run(
            [sys.executable, "-m", "cocain.cli", "run", "--config", cfg,
             "--out", str(out), "--compare"],
            env=env, check=True, stdout=subprocess.DEVNULL)
        outputs.append({name: (out / name).read_bytes()
                        for name in sorted(os.listdir(out))})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


def test_pin_blas_threads_sets_one_thread():
    # the pin looks its symbol up by name and returns silently without it,
    # so a numpy that renamed the symbol would unpin the traces unseen
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not scipy-openblas")
    library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get_threads = library.scipy_openblas_get_num_threads64_
    set_threads = library.scipy_openblas_set_num_threads64_
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    before = get_threads()
    try:
        set_threads(2)
        cli._pin_blas_threads()
        assert get_threads() == 1
    finally:
        set_threads(before)


def test_stalled_prox_solve_exit_code(tmp_path, capsys):
    # far below smad_L the fixed step overflows the quartic prox's cubic
    # solve; the run ends as a solver failure, not a traceback
    cfg = _write(tmp_path / "stall.ini", """\
[problem]
name = phase_retrieval
d = 6
m = 30

[run]
solvers = bpg_fixed

[solver.bpg_fixed]
L = 0.7
""")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "solver failure: bpg_fixed: cubic solve stalled" in err
    assert "at iteration 62" in err


STALL_BUNDLE = """\
[problem]
name = phase_retrieval
d = 6
m = 30

[run]
solvers = {solvers}
{extra}"""


def _section(summary, name):
    body = summary.split(f"\n[{name}]\n", 1)[1].split("\n\n", 1)[0]
    return body.splitlines()


def test_failed_run_keeps_the_other_runs(tmp_path, capsys):
    # bpg_fixed's prox stalls at iteration 62; cocain's run is written as
    # if it ran alone, and bpg_fixed's trace ends at its last finite step
    cfg = _write(tmp_path / "both.ini", STALL_BUNDLE.format(
        solvers="cocain,bpg_fixed", extra="[solver.bpg_fixed]\nL = 0.7\n"))
    alone = _write(tmp_path / "alone.ini",
                   STALL_BUNDLE.format(solvers="cocain", extra=""))
    out, ref = tmp_path / "out", tmp_path / "ref"
    code = cli.main(["run", "--config", cfg, "--out", str(out), "--compare"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("solver failure: bpg_fixed: cubic solve stalled")
    assert err.endswith(" at iteration 62\n") and err.count("\n") == 1
    assert cli.main(["run", "--config", alone, "--out", str(ref),
                     "--compare"]) == 0
    csv = "phase_retrieval_l1_cocain.csv"
    assert (out / csv).read_bytes() == (ref / csv).read_bytes()
    summary = (out / "summary.txt").read_text()
    assert _section(summary, "cocain") == _section(
        (ref / "summary.txt").read_text(), "cocain")
    failed = _section(summary, "bpg_fixed")
    assert "termination = non_finite" in failed
    assert "iterations = 61" in failed
    assert ("reason = " + err.split(": ", 2)[2].rstrip("\n")) in failed
    _, rows = _read_rows(out / "phase_retrieval_l1_bpg_fixed.csv")
    assert len(rows) == 63
    assert all(math.isfinite(float(row[1])) for row in rows)


def test_overflow_leaves_one_stderr_line(tmp_path):
    # the stalled run's iterate overflows numpy's dot first; only the
    # solver failure line reaches stderr, from a fresh interpreter whose
    # warnings no test harness captures
    cfg = _write(tmp_path / "stall.ini", STALL_BUNDLE.format(
        solvers="bpg_fixed", extra="[solver.bpg_fixed]\nL = 0.7\n"))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    pythonpath = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "cocain.cli", "run", "--config", cfg,
         "--out", str(tmp_path / "out"), "--compare"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stderr == ("solver failure: bpg_fixed: cubic solve stalled: "
                           "s=inf, b=1.0, c=-1.0, t=0.0 at iteration 62\n")


def test_fail_on_backtrack_does_not_downgrade_non_finite(tmp_path, capsys):
    cfg = _write(tmp_path / "both.ini", STALL_BUNDLE.format(
        solvers="bpg_fixed",
        extra="fail_on_backtrack = false\n[solver.bpg_fixed]\nL = 0.7\n"))
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("solver failure: bpg_fixed: ")


@pytest.mark.parametrize(
    "mutation",
    [
        lambda c: c.replace("name = logquad", "name = rosenbrock"),
        lambda c: c.replace("solvers = cocain,bpg_wb", "solvers = cocain,newton"),
        lambda c: c.replace("solvers = cocain,bpg_wb", "solvers = cocain,cocain"),
        lambda c: c.replace("x0 = 2.0", "x0 = 2.0\nturbo = yes"),
        lambda c: c.replace("max_iters = 40", "max_iters = 40\ncolor = red"),
        lambda c: c.replace("x0 = 2.0", "x0 = 1.0,2.0,3.0"),
        lambda c: c.replace("max_iters = 40", "max_iters = -3"),
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, mutation):
    cfg = _write(tmp_path / "bad.ini", mutation(RUN_CONFIG))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,text,section", [
    (["run"], RUN_CONFIG + "\n[solvr]\nmax_iters = 3\n", "solvr"),
    (["run"], RUN_CONFIG + "\n[solver.cocian]\nmax_iters = 3\n",
     "solver.cocian"),
    (["run"], RUN_CONFIG + "\n[solver.ipiano]\nbeta = 0.7\n",
     "solver.ipiano"),
    (["run", "--set", "solvr.max_iters=1"], RUN_CONFIG, "solvr"),
    (["sweep", "--set", "solvr.max_iters=1"], None, "solvr"),
    (["sweep"], "[problem]\nname = logquad\n", "problem"),
], ids=["run_misspelt", "run_misspelt_solver", "run_solver_not_listed",
        "run_set", "sweep_set", "sweep_config"])
def test_unread_config_sections_exit_2(tmp_path, capsys, argv, text, section):
    # a section the subcommand does not read is an error, not a no-op
    if text is not None:
        argv = argv + ["--config", _write(tmp_path / "exp.ini", text)]
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {argv[0]} reads no config section [{section}]\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["delta", "max_iters", "stop_tol"])
def test_none_for_required_solver_option_exits_2(tmp_path, capsys, key):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    assert cli.main(
        ["run", "--config", cfg, "--out", str(tmp_path / "o"),
         "--set", f"solver.{key}=none"]
    ) == 2
    err = capsys.readouterr().err
    assert f"config error: bad value for {key}: 'none'" in err
    assert "optional" in err


def test_none_for_problem_option_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.ini", """\
[problem]
name = phase_retrieval
d = none

[run]
solvers = cocain
""")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: bad value for d: 'none' "
        "(none is accepted only where the value is optional)\n")


@pytest.mark.parametrize("section,key,text,reason", [
    ("run", "fail_on_backtrack", "maybe", "not a boolean"),
    ("problem", "d", "ten", "invalid literal for int() with base 10: 'ten'"),
], ids=["bool", "int"])
def test_bad_values_share_one_error_line(tmp_path, capsys, section, key, text,
                                         reason):
    cfg = _write(tmp_path / "exp.ini",
                 "[problem]\nname = phase_retrieval\n[run]\nsolvers = cocain\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--set", f"{section}.{key}={text}"]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad value for {key}: {text!r} ({reason})\n")


@pytest.mark.parametrize("text", ["1,,", ",1", "1,,2"])
def test_empty_x0_entry_exits_2(tmp_path, capsys, text):
    cfg = _write(tmp_path / "exp.ini",
                 RUN_CONFIG.replace("x0 = 2.0", f"x0 = {text}"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad value for x0: {text!r} (empty entry)\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, value):
    # every float key of the solver table and of each problem table,
    # through `run --set`, and denoise --lam
    out = tmp_path / "o"

    def wrong(cases):
        found = []
        for argv, key in cases:
            code = cli.main(argv + ["--out", str(out)])
            err = capsys.readouterr().err
            if code != 2 or err != (f"config error: bad value for {key}: "
                                    f"'{value}' (not a finite number)\n"):
                found.append((argv[-1], code, err))
        return found

    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    assert not wrong(
        (["run", "--config", cfg, "--set", f"solver.{f.name}={value}"], f.name)
        for f in dataclasses.fields(SolverConfig)
        if float in (f.type, *typing.get_args(f.type)))
    for name, (_, types) in cli.PROBLEM_BUILDERS.items():
        cfg = _write(tmp_path / f"{name}.ini",
                     f"[problem]\nname = {name}\n[run]\nsolvers = cocain\n")
        assert not wrong(
            (["run", "--config", cfg, "--set", f"problem.{key}={value}"], key)
            for key, (typ, _) in types.items() if typ is float)
    assert not wrong([(["denoise", f"--lam={value}"], "lam")])
    assert not out.exists()


@pytest.mark.parametrize("command", ["denoise", "run"])
def test_unreadable_input_exits_2(tmp_path, capsys, command):
    # a directory where the graymap should be
    argv = ["denoise", "--image", str(tmp_path)]
    if command == "run":
        argv = ["run", "--config", _write(tmp_path / "exp.ini", (
            f"[problem]\nname = denoise\nimage = {tmp_path}\n"
            "[run]\nsolvers = cocain\n"))]
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_readme_lists_every_problem_key():
    # the [problem] table in README.md, one row per (problem, key)
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = iter(readme.read_text().splitlines())
    for line in lines:
        if line.startswith("| problem | key |"):
            break
    next(lines)  # the | --- | row
    listed = {}
    for line in lines:
        if not line.startswith("|"):
            break
        problems, key = [cell.strip() for cell in line.split("|")[1:3]]
        for problem in problems.split(","):
            listed.setdefault(problem.strip(" `"), set()).add(key.strip("`"))
    assert listed == {name: set(types)
                      for name, (_, types) in cli.PROBLEM_BUILDERS.items()}


def test_none_for_optional_solver_option_runs(tmp_path):
    text = RUN_CONFIG.replace(
        "stop_tol = 0", "stop_tol = 0\nfreeze_after = none\nepsilon = none")
    cfg = _write(tmp_path / "exp.ini", text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "iterations = 40" in (out / "summary.txt").read_text()


@pytest.mark.parametrize("text", [
    RUN_CONFIG.replace("stop_tol = 0", "stop_tol = 0\nmax_iters = 9"),
    RUN_CONFIG.split("\n", 1)[1],
    RUN_CONFIG.replace("x0 = 2.0", "x0 = 2%"),
], ids=["duplicate_option", "missing_section_header", "interpolation"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    cfg = _write(tmp_path / "bad.ini", text)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: malformed config file" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert cli.main(["run", "--config", missing]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_set_syntax_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "exp.ini", RUN_CONFIG)
    assert cli.main(
        ["run", "--config", cfg, "--out", str(tmp_path / "o"),
         "--set", "maxiters40"]
    ) == 2
    assert "config error" in capsys.readouterr().err


def test_setup_barrier_exits_2(tmp_path, capsys):
    # spurious2d with the default initial majorant violates the
    # weak-convexity barrier; the CLI reports it as a config problem
    cfg = _write(tmp_path / "exp.ini", """\
[problem]
name = spurious2d

[run]
solvers = cocain
""")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_nobt_never_reads_L_bar_init(tmp_path):
    # cocain_nobt fixes its own constant, so the default L_bar_init, below
    # spurious2d's barrier, is no error and does not move the trace
    cfg = _write(tmp_path / "exp.ini", """\
[problem]
name = spurious2d

[run]
solvers = cocain_nobt

[solver]
max_iters = 20
""")
    traces = []
    for sets in ([], ["--set", "solver.L_bar_init=1e6"]):
        out = tmp_path / f"out{len(traces)}"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--compare", *sets]) == 0
        traces.append((out / "spurious2d_cocain_nobt.csv").read_bytes())
    assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_small(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([
        "sweep", "--kind", "abssincos", "--n-starts", "4",
        "--lo", "-2", "--hi", "2", "--solvers", "cocain,bpg_wb",
        "--iters", "30", "--out", str(out),
    ]) == 0
    header, rows = _read_rows(out / "sweep_abssincos.csv")
    assert header == "start,cocain_final_psi,bpg_wb_final_psi"
    assert len(rows) == 4
    assert float(rows[0][0]) == -2.0 and float(rows[-1][0]) == 2.0
    summary = (out / "sweep_summary.txt").read_text()
    assert capsys.readouterr().out == summary
    for key in (
        "kind = abssincos", "n_starts = 4", "cocain_average_final_psi = ",
        "cocain_global_min_count = ", "bpg_wb_global_min_count = ",
    ):
        assert key in summary, key


def test_sweep_set_delta_below_default_epsilon(tmp_path, monkeypatch):
    # the sweep default's epsilon, 0.01 * 0.995, follows a smaller delta
    seen = _spy_configs(monkeypatch)
    assert cli.main(["sweep", "--n-starts", "2", "--solvers", "cocain",
                     "--iters", "5", "--set", "solver.delta=0.005",
                     "--out", str(tmp_path / "o")]) == 0
    assert seen["cocain"] == dataclasses.replace(
        cli.SWEEP_CONFIG, delta=0.005, epsilon=None, max_iters=5)
    assert seen["cocain"].epsilon == 0.01 * 0.005


def test_sweep_backtrack_failure_exit_code(tmp_path, capsys):
    # the ladders of the starts at -15 and 15 run out at iteration 1 (the
    # start at 0 is stationary and ends by step_tol); the sweep still
    # writes its files, and counts the failed starts its averages hide
    out = tmp_path / "out"
    assert cli.main([
        "sweep", "--n-starts", "3", "--solvers", "cocain,bpg_wb",
        "--set", "solver.L_bar_init=1e-8", "--set", "solver.max_backtracks=1",
        "--out", str(out),
    ]) == 3
    assert capsys.readouterr().err == "backtracking failed in: cocain, bpg_wb\n"
    summary = (out / "sweep_summary.txt").read_text().splitlines()
    for name in ("cocain", "bpg_wb"):
        at = summary.index(f"{name}_global_min_count = 0")
        assert summary[at - 1] == f"{name}_average_final_psi = 9.8268747247607848"
        assert summary[at + 1] == f"{name}_failed_starts = 2"


@pytest.mark.parametrize("argv", [
    ["--lo", "-1e1"],
    ["--lo=-1e1"],
    ["--lo", "-1e1", "--hi", "-5"],
])
def test_sweep_takes_negative_bounds(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--n-starts", "2", "--solvers", "cocain",
                     "--iters", "3", *argv, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "sweep_abssincos.csv")
    hi = -5.0 if "--hi" in argv else 15.0
    assert [float(row[0]) for row in rows] == [-10.0, hi]


def test_sweep_needs_two_starts(tmp_path, capsys):
    assert cli.main([
        "sweep", "--n-starts", "1", "--out", str(tmp_path / "o"),
    ]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spurious command


def test_spurious_single_start(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["spurious", "--starts", "2,2", "--out", str(out)]) == 0
    header, rows = _read_rows(out / "spurious.csv")
    assert header == ("start_x,start_y,final_x,final_y,final_psi,"
                      "dist_to_minimizer")
    assert len(rows) == 1
    assert float(rows[0][0]) == 2.0
    # the run must leave the spurious target's immediate vicinity report
    assert math.isfinite(float(rows[0][4]))
    # and end at psi's minimizer (t*, t*), 7.1e-3 from g's centre (1, 1)
    assert float(rows[0][5]) < 1e-3
    minimizer = cli._build_spurious({})[0].meta["minimizer"]
    summary = (out / "spurious_summary.txt").read_text()
    assert "target = (1, 1)" in summary
    assert f"minimizer = ({cli._fmt(minimizer[0])}, " in summary
    assert capsys.readouterr().out == summary


def test_spurious_iters_flag_caps_each_run(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["spurious", "--starts", "2,2", "--iters", "3",
                     "--out", str(out), "--compare"]) == 0
    _, rows = _read_rows(out / "spurious.csv")
    problem, _ = cli._build_spurious({})
    config = dataclasses.replace(cli.SPURIOUS_CONFIG, max_iters=3)
    res = cocain_bpg(problem, config, np.array([2.0, 2.0]))
    assert res.iterations == 3
    assert rows[0][2:4] == [cli._fmt(res.x[0]), cli._fmt(res.x[1])]


@pytest.mark.parametrize("argv", [
    ["spurious", "--seed", "1"],
    ["spurious", "--set", "solver.max_iters=3"],
    ["denoise", "--set", "solver.max_iters=3"],
    ["sweep", "--seed", "1"],
])
def test_flags_without_effect_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["--starts", "-2,2"], ["--starts=-2,2"], ["--starts", "-2,2; -1,-1"],
])
def test_spurious_takes_negative_starts(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(["spurious", *argv, "--iters", "3",
                     "--out", str(out)]) == 0
    _, rows = _read_rows(out / "spurious.csv")
    assert [float(x) for x in rows[0][:2]] == [-2.0, 2.0]
    assert len(rows) == argv[-1].count(";") + 1


def test_spurious_rejects_bad_starts(tmp_path, capsys):
    assert cli.main(
        ["spurious", "--starts", "1,2,3", "--out", str(tmp_path / "o")]
    ) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["spurious", "--starts", "1,,2"],
     "bad value for starts: '1,,2' (empty entry)"),
    (["spurious", "--starts", "2,2; nan,1"],
     "bad value for starts: '2,2; nan,1' (not a finite number)"),
    (["sweep", "--lo", "nan"], "bad value for lo: 'nan' (not a finite number)"),
    (["sweep", "--hi", "inf"], "bad value for hi: 'inf' (not a finite number)"),
])
def test_study_numbers_go_through_the_shared_reader(tmp_path, capsys, argv,
                                                    message):
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# denoise command


def test_denoise_tiny(tmp_path):
    out = tmp_path / "out"
    assert cli.main([
        "denoise", "--height", "8", "--width", "8", "--magnitude", "0",
        "--iters", "5", "--solvers", "cocain,bpg_fixed", "--out", str(out),
    ]) == 0
    for name in (
        "noisy.pgm", "recon_cocain.pgm", "recon_bpg_fixed.pgm",
        "denoise_log_cocain.csv", "denoise_log_bpg_fixed.csv", "summary.txt",
    ):
        assert (out / name).exists(), name
    noisy = read_pgm(out / "noisy.pgm")
    assert noisy.shape == (8, 8)
    assert noisy.min() >= 0.0 and noisy.max() <= 1.0
    # magnitude 0 leaves the synthetic image untouched up to quantization
    np.testing.assert_allclose(
        noisy, synthetic_blocks(8, 8), atol=0.5 / 255 + 1e-12
    )


@pytest.mark.parametrize("flags", [["--height", "8"], ["--width", "8"],
                                   ["--height", "32", "--width", "32"]])
def test_denoise_rejects_grid_size_with_image(tmp_path, capsys, flags):
    # the grid comes from the file, so a size flag has nothing to act on
    image = tmp_path / "in.pgm"
    write_pgm(image, synthetic_blocks(6, 5))
    out = tmp_path / "o"
    assert cli.main(["denoise", "--image", str(image), *flags,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: height and width do not apply to an image input\n")
    assert not out.exists()


@pytest.mark.parametrize("data, field", [
    (b"P2\nx 2\n255\n0 1\n2 3\n", "width 'x'"),
    (b"P2\n2 2.0\n255\n0 1\n2 3\n", "height '2.0'"),
    (b"P2\n2 2\nff\n0 1\n2 3\n", "maxval 'ff'"),
    (b"P2\n2 2\n255\n0 1\n2 y\n", "pixel 'y'"),
], ids=["width", "height", "maxval", "pixel"])
def test_denoise_names_the_file_and_field_of_a_bad_token(tmp_path, capsys,
                                                          data, field):
    image = tmp_path / "bad.pgm"
    image.write_bytes(data)
    out = tmp_path / "o"
    assert cli.main(["denoise", "--image", str(image), "--iters", "2",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {image}: graymap {field} is not an integer\n")
    assert not out.exists()


def test_denoise_backtrack_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a majorant far below the curvature, with no room to escalate
    monkeypatch.setattr(cli, "DENOISE_CONFIG", dataclasses.replace(
        cli.DENOISE_CONFIG, L_bar_init=1e-8, max_backtracks=1))
    out = tmp_path / "out"
    assert cli.main([
        "denoise", "--height", "8", "--width", "8", "--data-term", "sql2",
        "--iters", "5", "--solvers", "bpg_wb", "--out", str(out),
    ]) == 3
    assert capsys.readouterr().err == "backtracking failed in: bpg_wb\n"
    assert "termination = backtrack_failure" in (out / "summary.txt").read_text()


# ---------------------------------------------------------------------------
# verify command


def test_verify_kernels_scope(capsys):
    assert cli.main(["verify", "--scope", "kernels"]) == 0
    out = capsys.readouterr().out
    assert "PASS kernels." in out
    assert "properties passed" in out
    assert "FAIL" not in out


VERIFY_SOLVERS_OUT = """\
PASS solvers.reduction_gamma_cap_zero: cocain(gamma_cap=0) trace == bpg_wb trace
PASS solvers.reduction_ipiano_beta_zero: ipiano(beta=0) trace == bpg_wb trace
PASS solvers.trace_determinism: re-run is bit-identical
PASS solvers.certificates_on_accepted_run: lyapunov worst margin 0.000e+00, \
prefix ok=True, conditions ok=True
PASS solvers.corrupted_psi_negative_control: bumped psi at k=33 caught at \
transition 32
PASS solvers.corrupted_tau_negative_control: doubled tau at k=33 caught at \
transition 33
PASS solvers.corrupted_y_negative_control: inflated stored y at k=33 caught \
at k=33
7/7 properties passed
"""


def test_verify_solvers_scope(capsys):
    # the reductions, the certificates and their corrupted-trace controls
    assert cli.main(["verify", "--scope", "solvers"]) == 0
    assert capsys.readouterr().out == VERIFY_SOLVERS_OUT


def test_verify_rejects_unknown_scope():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--scope", "everything"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# graymap io


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    image = rng.uniform(0.0, 1.0, (9, 7))
    for binary, maxval, tol in (
        (True, 255, 0.5 / 255), (False, 255, 0.5 / 255),
        (True, 65535, 0.5 / 65535),
    ):
        path = tmp_path / f"img_{binary}_{maxval}.pgm"
        write_pgm(path, image, maxval=maxval, binary=binary)
        np.testing.assert_allclose(
            read_pgm(path), image, atol=tol + 1e-12
        )


@pytest.mark.parametrize("header", [
    b"P2\n2 2# size\n255\n",
    b"P2\n#c\r2 2\n255\n",
    b"P2 # magic\r\n# two lines\r\n2\r\n2#x\r\n255\n",
    b"P2\n2 2\n255# a comment ends the header at its LF\n",
    b"P2\n2 2\n255# or at its CR\r",
], ids=["after_token", "cr_ends_comment", "crlf", "after_maxval_lf",
        "after_maxval_cr"])
@pytest.mark.parametrize("binary", [False, True], ids=["P2", "P5"])
def test_pgm_header_comments(tmp_path, header, binary):
    # a comment runs from '#' to the next CR or LF, may follow a token
    # directly, and right after maxval ends the header; P5 raster bytes
    # that read as '#', CR, LF and space are pixels
    levels = [35, 13, 10, 32]
    if binary:
        raster = bytes(levels)
        header = header.replace(b"P2", b"P5")
    else:
        raster = b"35 13 # a comment in the raster\r10 32\n"
    path = tmp_path / "commented.pgm"
    path.write_bytes(header + raster)
    np.testing.assert_array_equal(
        read_pgm(path), np.array(levels, dtype=float).reshape(2, 2) / 255.0)


def test_pgm_write_clips(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-0.5, 1.5]]))
    np.testing.assert_array_equal(read_pgm(path), np.array([[0.0, 1.0]]))


def test_pgm_maxval_contract(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2)), maxval=0)


def test_pgm_rejects_a_negative_pixel(tmp_path, capsys):
    # only a pixel above maxval was caught; -5 read as -5/255
    image = tmp_path / "negative.pgm"
    image.write_bytes(b"P2\n2 2\n255\n-5 0\n255 10\n")
    message = f"{image}: graymap pixel -5 is negative"
    with pytest.raises(ValueError) as exc:
        read_pgm(image)
    assert str(exc.value) == message
    out = tmp_path / "o"
    assert cli.main(["denoise", "--image", str(image), "--iters", "2",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path, umask):
    # mkstemp stages a file owner-only; the written file must not stay so
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "staged", b"x")
        atomic_write(tmp_path / "staged", b"y")  # a replace, not a create
        (tmp_path / "plain").write_bytes(b"x")
    finally:
        os.umask(old)
    assert _mode(tmp_path / "staged") == _mode(tmp_path / "plain") \
        == 0o666 & ~umask


def test_outputs_follow_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        assert cli.main(["spurious", "--starts", "2,2", "--compare",
                         "--out", str(tmp_path / "o")]) == 0
    finally:
        os.umask(old)
    files = sorted((tmp_path / "o").iterdir())
    assert files and [_mode(f) for f in files] == [0o640] * len(files)


def test_synthetic_blocks_deterministic():
    a, b = synthetic_blocks(16, 16), synthetic_blocks(16, 16)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (16, 16)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert len(np.unique(a)) > 1
