"""The benchmark's workloads: shipped cocain studies and the inputs they build.

Each workload is a list of CLI invocations run in process through
`cocain.cli.main(argv)` with `--compare` and a temporary `--out`.  The
workload seed reaches the program only as `--seed` on the invocations whose
inputs are randomized.  Sizes are part of each workload's definition.

This module imports nothing from numpy or cocain at import time, so the
fresh-process set-up probe can load it before it starts its clock.
"""

from dataclasses import dataclass
from typing import Optional

# Solvers whose traces carry the Lyapunov certificate (descent and prefix
# bound); the others (ipiano, bpg_fixed) are run but not audited.
AUDITED_SOLVERS = ("cocain", "cfi", "cocain_nobt", "bpg_wb")

PHASE_RETRIEVAL_INI = """\
[problem]
{problem}

[run]
solvers = {solvers}

[solver]
max_iters = 1000
stop_tol = 0

[solver.cocain]
store_iterates = true
"""

CONTRAST_INI = """\
[problem]
name = abssincos

[run]
solvers = cocain,bpg_wb,cocain_nobt
"""

DESK_PR_SOLVERS = "cocain,cfi,bpg_wb,bpg_fixed,cocain_nobt"


@dataclass(frozen=True)
class Invocation:
    """One `cocain` command line of a workload.

    `runs` is the number of solver runs the command makes; the benchmark
    checks it against the runs it observes, so a refactor that hides a run
    from the benchmark fails loudly instead of shrinking the workload.
    `problem` holds the `[problem]` options of the inputs the command
    builds, for the set-up probe.  `ini` is written to a config file passed
    as `--config`.  `seeded` invocations get `--seed`; the others have
    deterministic inputs.
    """

    label: str
    args: tuple
    runs: int
    problem: dict
    ini: Optional[str] = None
    seeded: bool = True
    phase_retrieval: bool = False

    def argv(self, out_dir, config_path, seed, iters=None):
        argv = list(self.args)
        if self.ini is not None:
            argv += ["--config", config_path]
        argv += ["--out", out_dir, "--compare"]
        if self.seeded:
            argv += ["--seed", str(seed)]
        if iters is not None:
            argv += ["--iters", str(iters)]
        return argv


def _pr_run(label, d, m, reg, solvers):
    problem = {"name": "phase_retrieval", "d": str(d), "m": str(m), "reg": reg}
    ini = PHASE_RETRIEVAL_INI.format(
        problem="\n".join(f"{k} = {v}" for k, v in problem.items()),
        solvers=solvers)
    return Invocation(label=label, args=("run",), runs=len(solvers.split(",")),
                      problem=problem, ini=ini, phase_retrieval=True)


WORKLOADS = {
    "denoise-256": (
        Invocation("denoise", ("denoise", "--height", "256", "--width", "256"),
                   runs=3, problem={"name": "denoise", "height": "256",
                                    "width": "256"}),
    ),
    "phase-retrieval-500": (
        _pr_run("phase_retrieval", 500, 2500, "l1", "cocain,cfi,bpg_wb"),
    ),
    "desk-studies": (
        Invocation("sweep", ("sweep",), runs=300, problem={"name": "abssincos"},
                   seeded=False),
        Invocation("contrast", ("run",), runs=3, problem={"name": "abssincos"},
                   ini=CONTRAST_INI),
        Invocation("spurious", ("spurious",), runs=4,
                   problem={"name": "spurious2d"}, seeded=False),
        _pr_run("pr_l1", 10, 50, "l1", DESK_PR_SOLVERS),
        _pr_run("pr_sql2", 10, 50, "sql2", DESK_PR_SOLVERS),
        Invocation("denoise", ("denoise",), runs=3,
                   problem={"name": "denoise"}),
    ),
}


# Timings reported in plain CPU seconds rather than calibrated ones (see
# calibration.py), per workload.  Their time is in numpy passes over
# arrays of 512 KiB (denoise-256) to 10 MB (phase-retrieval-500), which the
# host's load slows far less than the calibration chunk, so scaling them
# would add noise.  study_s carries iters_per_s with it.
PLAIN_CPU = {
    "denoise-256": ("study_s",),
    "phase-retrieval-500": ("study_s", "certify_s"),
}


def build_inputs(cli, name, seed):
    """Build the workload's problems with the CLI's own problem builders.

    This is the work every CLI call repeats before its first iteration:
    `generate_phase_retrieval`, `synthetic_blocks`, `add_outlier_noise` and
    the `make_*` factories.  Returns the problems so nothing is optimized
    away.
    """
    return [cli._build_problem({**inv.problem, "seed": str(seed)})
            for inv in WORKLOADS[name]]
