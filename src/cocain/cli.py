"""Benchmark harness: configuration, deterministic runs, CSV traces.

Subcommands:

  run       execute a (problem, solvers) bundle described by a config file
  sweep     univariate multi-start comparison (average final value, basin counts)
  spurious  two-dimensional escape study from the four corner starts
  denoise   robust image denoising bundle with graymap outputs
  verify    property suites (gradients, prox oracles, constants, certificates)

Every run writes one CSV per (problem, solver) pair with the fixed header

  k,psi,suboptimality,tau,gamma,L_bar,L_lower,dh_prev_curr,dh_curr_y,
  step_norm,lower_trials,upper_trials,wall_time_ns

plus a plain-text key=value summary.  Floats are serialized with 17
significant digits, so parsing the CSV back recovers the exact trace.
Config + seed determine every output byte; wall-clock fields are zeroed and
the timestamp line omitted under --compare, making outputs byte-stable.
`main` runs numpy's OpenBLAS on one thread, because a multi-threaded
product sums in an order that depends on the thread count.
The COCAIN_OUT environment variable overrides --out.

Exit codes: 0 success, 2 configuration or output error, 3 solver failure
(a run ended in backtrack_failure or non_finite; every run's output is
written first, and fail_on_backtrack = false downgrades backtrack_failure
only), 4 verification failure.
"""

import argparse
import configparser
import ctypes
import dataclasses
import math
import os
import sys
import typing
from datetime import datetime, timezone

import numpy as np

from . import verify as verify_mod
from .pgm import atomic_write, read_pgm, synthetic_blocks, write_pgm
from .problems import (
    UNIVARIATE_KINDS,
    add_outlier_noise,
    generate_phase_retrieval,
    make_phase_retrieval,
    make_robust_denoising,
    make_spurious2d,
    make_univariate,
)
from .solvers import (
    SolverConfig,
    TERM_BACKTRACK_FAILURE,
    TERM_NON_FINITE,
    bpg_fixed,
    bpg_wb,
    cocain_bpg,
    cocain_bpg_cfi,
    cocain_bpg_no_backtracking,
    ipiano,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

CSV_HEADER = (
    "k,psi,suboptimality,tau,gamma,L_bar,L_lower,dh_prev_curr,dh_curr_y,"
    "step_norm,lower_trials,upper_trials,wall_time_ns"
)

SOLVERS = {
    "cocain": cocain_bpg,
    "cfi": cocain_bpg_cfi,
    "cocain_nobt": cocain_bpg_no_backtracking,
    "bpg_wb": bpg_wb,
    "bpg_fixed": bpg_fixed,
    "ipiano": ipiano,
}

# Experiment defaults.  Each bundle reproduces one published comparison at
# desk scale; the constants were tuned once against the reported numbers.
# `sweep`, `spurious` and `denoise` start from theirs.  `run` starts from
# SolverConfig() plus its config file, so the tests (the acceptance gate
# among them) are the only readers of CONTRAST_CONFIG, which equals
# SolverConfig(), and PHASE_RETRIEVAL_CONFIG, SolverConfig(stop_tol=0.0).
SWEEP_CONFIG = SolverConfig(
    delta=0.995, nu_upper=1.5, nu_lower=2.0, L_bar_init=0.204,
    gamma_cap=0.88, max_iters=1000,
)
CONTRAST_CONFIG = SolverConfig(max_iters=1000)
SPURIOUS_CONFIG = SolverConfig(max_iters=1000, L_bar_init=101.0)
PHASE_RETRIEVAL_CONFIG = SolverConfig(max_iters=1000, stop_tol=0.0)
DENOISE_CONFIG = SolverConfig(max_iters=500, stop_tol=0.0, L_bar_init=150.0)


class ConfigError(Exception):
    pass


class OutputError(Exception):
    """The output directory cannot be created or written."""


# ---------------------------------------------------------------------------
# config plumbing


def _coerce(text, typ, optional=False):
    """Parse a config string as `typ`; `none` is None where `optional`.
    A float must be finite."""
    text = text.strip()
    if text.lower() == "none":
        if optional:
            return None
        raise ValueError("none is accepted only where the value is optional")
    if typ is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise ValueError("not a boolean")
        return states[text.lower()]
    value = typ(text)
    if typ is float and not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _options(section, types, what):
    """The {key: value} of a section's {key: string} entries, each parsed
    by `_coerce` as types[key] = (type, optional)."""
    values = {}
    for key, text in section.items():
        if key not in types:
            raise ConfigError(f"unknown {what} option: {key}")
        try:
            values[key] = _coerce(text, *types[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})")
    return values


# (type, optional) of each SolverConfig field; Optional[T] is (T, True)
_SOLVER_OPTIONS = {
    f.name: ((typing.get_args(f.type) or (f.type,))[0],
             bool(typing.get_args(f.type)))
    for f in dataclasses.fields(SolverConfig)
}
_RUN_OPTIONS = {"solvers": (str, False), "x0": (str, False),
                "fail_on_backtrack": (bool, False)}


def _resolve_config(args, base, *sections):
    """The SolverConfig of one run: the study default `base` with the
    solver `sections` ([solver], then [solver.NAME]) merged in order, then
    --iters.  A merge that sets delta but not epsilon re-derives epsilon
    from delta."""
    fields = {}
    for section in sections:
        if section.get("L", "").strip() == "auto":
            section = {**section, "L": "none"}  # bpg_fixed uses problem.smad_L
        fields.update(_options(section, _SOLVER_OPTIONS, "solver"))
    if args.iters is not None:
        fields["max_iters"] = args.iters
    if "delta" in fields:
        fields.setdefault("epsilon", None)
    try:
        return dataclasses.replace(base, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # option names are case-sensitive (L vs l)
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file: {path}")
        return {sect: dict(parser.items(sect)) for sect in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}")


def _apply_sets(config, assignments):
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        if "." not in key:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        section, name = key.rsplit(".", 1)
        config.setdefault(section, {})[name.strip()] = value.strip()
    return config


def _read_config(args):
    """The sections of --config (none where it is not given), with every
    --set applied."""
    config = _load_config(args.config) if args.config else {}
    return _apply_sets(config, args.set or [])


def _check_sections(config, read, command):
    """A config error naming the first section of `config` that `command`
    does not read."""
    for name in config:
        if name not in read:
            raise ConfigError(f"{command} reads no config section [{name}]")


# ---------------------------------------------------------------------------
# problem registry: each builder takes the typed values of the keys its
# PROBLEM_BUILDERS entry declares, and holds the defaults of the others


def _build_univariate(kind, default_x0):
    def build(opts):
        return make_univariate(kind), np.array([default_x0])

    return build


def _build_spurious(opts):
    problem = make_spurious2d(opts.get("lam", 0.5), opts.get("rho", 100.0),
                              (opts.get("bx", 1.0), opts.get("by", 1.0)))
    return problem, np.array([2.0, 2.0])


def _build_phase_retrieval(opts):
    d = opts.get("d", 10)
    data = generate_phase_retrieval(d, opts.get("m", 50),
                                    seed=opts.get("seed", 0),
                                    noise_std=opts.get("noise_std", 0.3))
    problem = make_phase_retrieval(data, reg=opts.get("reg", "l1"),
                                   lam=opts.get("lam", 0.1))
    return problem, np.full(d, 2.0)


def _build_denoise(opts):
    image_path = opts.get("image")
    if image_path and ("height" in opts or "width" in opts):
        raise ConfigError("height and width do not apply to an image input")
    clean = (read_pgm(image_path) if image_path else
             synthetic_blocks(opts.get("height", 32), opts.get("width", 32)))
    noisy = add_outlier_noise(clean, magnitude=opts.get("magnitude", 1e5),
                              fraction=opts.get("fraction", 0.05),
                              seed=opts.get("seed", 0),
                              background_std=opts.get("background_std", 0.0))
    problem = make_robust_denoising(noisy, lam=opts.get("lam", 10.0),
                                    rho=opts.get("rho", 1.0),
                                    data_term=opts.get("data_term", "log"))
    return problem, np.zeros(problem.dim)


_FLOAT, _INT, _STR = (float, False), (int, False), (str, False)
_ANY_SEED = {"seed": (str, True)}  # deterministic problems ignore it

PROBLEM_BUILDERS = {
    "logquad": (_build_univariate("logquad", 1.0), _ANY_SEED),
    "sigmoid": (_build_univariate("sigmoid", 5.0), _ANY_SEED),
    "abssincos": (_build_univariate("abssincos", 13.0), _ANY_SEED),
    "spurious2d": (_build_spurious, {**_ANY_SEED, "lam": _FLOAT, "rho": _FLOAT,
                                     "bx": _FLOAT, "by": _FLOAT}),
    "phase_retrieval": (_build_phase_retrieval, {
        "d": _INT, "m": _INT, "seed": _INT, "noise_std": _FLOAT, "reg": _STR,
        "lam": _FLOAT}),
    "denoise": (_build_denoise, {
        "image": _STR, "height": _INT, "width": _INT, "magnitude": _FLOAT,
        "fraction": _FLOAT, "seed": _INT, "background_std": _FLOAT,
        "lam": _FLOAT, "rho": _FLOAT, "data_term": _STR}),
}


def _build_problem(opts):
    opts = dict(opts)
    name = opts.pop("name", None)
    if name is None:
        raise ConfigError("[problem] section needs a name")
    if name not in PROBLEM_BUILDERS:
        raise ConfigError(f"unknown problem: {name}")
    build, types = PROBLEM_BUILDERS[name]
    return build(_options(opts, types, "problem"))


def _x0_entry(tok):
    if not tok.strip():
        raise ValueError("empty entry")
    return _coerce(tok, float)


def _parse_x0(text, dim):
    """`zeros`, one number for every coordinate, or `dim` comma-separated
    numbers; each number as `_coerce` reads a float."""
    if text.strip() == "zeros":
        return np.zeros(dim)
    try:
        parts = [_x0_entry(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad value for x0: {text!r} ({exc})")
    if len(parts) == 1:
        return np.full(dim, parts[0])
    if len(parts) != dim:
        raise ConfigError(f"x0 has {len(parts)} entries, problem dimension is {dim}")
    return np.array(parts)


# ---------------------------------------------------------------------------
# output plumbing


def _atomic_write_text(path, text):
    atomic_write(path, text.encode())


def _fmt(x):
    return format(float(x), ".17g")


# one CSV_HEADER row: "%.17g" writes the bytes of _fmt
_CSV_ROW = "%d," + "%.17g," * 9 + "%d,%d,%d"


def _trace_csv(records, ref, compare_mode):
    """The CSV text of a `Trace`, formatted from its unpacked rows."""
    lines = [CSV_HEADER]
    for (k, psi, tau, gamma, L_bar, L_lower, dh_prev_curr, dh_curr_y,
         step_norm, lower_trials, upper_trials,
         wall_time_ns) in records.rows():
        lines.append(_CSV_ROW % (
            k, psi, max(psi - ref, 0.0), tau, gamma, L_bar, L_lower,
            dh_prev_curr, dh_curr_y, step_norm, lower_trials, upper_trials,
            0 if compare_mode else wall_time_ns))
    return "\n".join(lines) + "\n"


def _total(trace, name):
    # builtin sum, in record order, of an integer field
    return int(sum(trace.column(name).tolist()))


def _bundle_files(problem, results, compare_mode, header_pairs):
    """One trace CSV per run plus summary.txt, as {file name: text}."""
    # builtin min, not np.min, which would return any NaN psi
    best = {name: min(res.records.column("psi").tolist())
            for name, res in results.items()}
    ref = min(best.values())
    lines = ["# cocain summary"]
    lines += [f"{key} = {value}" for key, value in header_pairs]
    lines += [f"problem = {problem.name}", f"dim = {problem.dim}",
              f"reference_psi = {_fmt(ref)}"]
    if not compare_mode:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"timestamp = {stamp}")
    order = sorted(results, key=lambda name: results[name].final_psi)
    lines.append("ordering = " + " <= ".join(order))
    files = {}
    for name, res in results.items():
        csv_name = f"{problem.name}_{name}.csv"
        files[csv_name] = _trace_csv(res.records, ref, compare_mode)
        lines += [
            "", f"[{name}]",
            f"final_psi = {_fmt(res.final_psi)}",
            f"best_psi = {_fmt(best[name])}",
            f"final_suboptimality = {_fmt(max(res.final_psi - ref, 0.0))}",
            f"iterations = {res.iterations}",
            f"termination = {res.termination}",
            *([f"reason = {res.reason}"] if res.reason else []),
            f"lower_trials_total = {_total(res.records, 'lower_trials')}",
            f"upper_trials_total = {_total(res.records, 'upper_trials')}",
        ]
        if not compare_mode:
            wall_ns = _total(res.records, "wall_time_ns")
            lines.append(f"wall_time_s = {wall_ns * 1e-9:.3f}")
        lines.append(f"trace = {csv_name}")
    files["summary.txt"] = "\n".join(lines) + "\n"
    return files


def _write_bundle(args, files):
    """Write `files` ({name: text, or an image array for a graymap}) into
    the output directory (COCAIN_OUT, else --out), then print the last of
    them, the summary.  An OSError while writing becomes an OutputError."""
    out_dir = os.environ.get("COCAIN_OUT") or args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in files.items():
            path = os.path.join(out_dir, name)
            if isinstance(content, str):
                _atomic_write_text(path, content)
            else:
                write_pgm(path, content)
    except OSError as exc:
        raise OutputError(str(exc)) from exc
    sys.stdout.write(list(files.values())[-1])


def _solver_names(text):
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    for name in names:
        if name not in SOLVERS:
            raise ConfigError(f"unknown solver: {name}")
    return names


def _failed_starts(name, results):
    """The `NAME_failed_starts = N` summary line of a study's runs that
    ended in backtrack_failure or non_finite, as a list; empty for none."""
    failed = sum(r.termination in (TERM_BACKTRACK_FAILURE, TERM_NON_FINITE)
                 for r in results)
    return [f"{name}_failed_starts = {failed}"] if failed else []


def _status(results, fail_on_backtrack=True):
    """EXIT_SOLVER, naming the runs on stderr, when one ended non_finite or
    (unless fail_on_backtrack is false) in backtrack_failure; else EXIT_OK."""
    lines = [f"solver failure: {r.solver}: {r.reason}" for r in results
             if r.termination == TERM_NON_FINITE]
    failed = dict.fromkeys(r.solver for r in results
                           if r.termination == TERM_BACKTRACK_FAILURE)
    if failed and fail_on_backtrack:
        lines.append(f"backtracking failed in: {', '.join(failed)}")
    sys.stderr.writelines(line + "\n" for line in lines)
    return EXIT_SOLVER if lines else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args):
    config = _read_config(args)
    if args.seed is not None:
        config.setdefault("problem", {})["seed"] = str(args.seed)

    run_opts = _options(config.get("run", {}), _RUN_OPTIONS, "run")
    solver_list = _solver_names(run_opts.get("solvers", "cocain"))
    if len(set(solver_list)) != len(solver_list):
        raise ConfigError("duplicate solver in run list")
    _check_sections(config, {"problem", "run", "solver",
                             *(f"solver.{name}" for name in solver_list)},
                    "run")
    problem, x0 = _build_problem(config.get("problem", {}))
    if "x0" in run_opts:
        x0 = _parse_x0(run_opts["x0"], problem.dim)
    fail_on_backtrack = run_opts.get("fail_on_backtrack", True)

    configs = {name: _resolve_config(args, SolverConfig(),
                                     config.get("solver", {}),
                                     config.get(f"solver.{name}", {}))
               for name in solver_list}
    results = {name: SOLVERS[name](problem, cfg, x0)
               for name, cfg in configs.items()}
    header = [("command", "run"), ("config", os.path.basename(args.config))]
    _write_bundle(args, _bundle_files(problem, results, args.compare, header))
    return _status(results.values(), fail_on_backtrack)


def cmd_sweep(args):
    problem, _ = _build_problem({"name": args.kind})
    if args.n_starts < 2:
        raise ConfigError("sweep needs at least 2 starts")
    solvers = _solver_names(args.solvers)
    config = _read_config(args)
    _check_sections(config, {"solver"}, "sweep")
    config = _resolve_config(args, SWEEP_CONFIG, config.get("solver", {}))
    span = _options({"lo": args.lo, "hi": args.hi},
                    dict.fromkeys(("lo", "hi"), (float, False)), "sweep")

    starts = np.linspace(span["lo"], span["hi"], args.n_starts)
    runs = {name: [SOLVERS[name](problem, config, np.array([s]))
                   for s in starts]
            for name in solvers}
    finals = {name: np.array([res.final_psi for res in runs[name]])
              for name in solvers}

    lines = ["start," + ",".join(f"{name}_final_psi" for name in solvers)]
    for i in range(args.n_starts):
        lines.append(",".join([_fmt(starts[i])] +
                              [_fmt(finals[name][i]) for name in solvers]))

    global_psi = problem.meta.get("global_psi")
    report = ["# cocain sweep summary",
              f"kind = {args.kind}",
              f"n_starts = {args.n_starts}",
              f"interval = [{_fmt(span['lo'])}, {_fmt(span['hi'])}]"]
    for name in solvers:
        avg = float(finals[name].mean())
        report.append(f"{name}_average_final_psi = {_fmt(avg)}")
        if global_psi is not None:
            count = int(np.sum(np.abs(finals[name] - global_psi) <= 1e-3))
            report.append(f"{name}_global_min_count = {count}")
        report += _failed_starts(name, runs[name])
    _write_bundle(args, {f"sweep_{args.kind}.csv": "\n".join(lines) + "\n",
                         "sweep_summary.txt": "\n".join(report) + "\n"})
    return _status([res for name in solvers for res in runs[name]])


def cmd_spurious(args):
    starts = []
    for token in args.starts.split(";"):
        token = token.strip()
        if not token:
            continue
        try:
            parts = [_x0_entry(tok) for tok in token.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad value for starts: {args.starts!r} ({exc})")
        if len(parts) != 2:
            raise ConfigError(f"spurious starts are 2-D points, got {token!r}")
        starts.append(np.array(parts))
    if not starts:
        raise ConfigError("no starts given")

    config = _resolve_config(args, SPURIOUS_CONFIG)
    problem, _ = _build_problem({"name": "spurious2d"})
    target = problem.meta["target"]
    minimizer = problem.meta["minimizer"]
    rows = ["start_x,start_y,final_x,final_y,final_psi,dist_to_minimizer"]
    report = ["# cocain spurious summary",
              f"target = ({_fmt(target[0])}, {_fmt(target[1])})",
              f"minimizer = ({_fmt(minimizer[0])}, {_fmt(minimizer[1])})"]
    results = [cocain_bpg(problem, config, x0) for x0 in starts]
    for x0, res in zip(starts, results):
        dist = float(np.linalg.norm(res.x - minimizer))
        rows.append(",".join([_fmt(x0[0]), _fmt(x0[1]), _fmt(res.x[0]),
                              _fmt(res.x[1]), _fmt(res.final_psi), _fmt(dist)]))
        report.append(
            f"from ({_fmt(x0[0])}, {_fmt(x0[1])}): final ({_fmt(res.x[0])}, "
            f"{_fmt(res.x[1])}) psi {_fmt(res.final_psi)} dist {_fmt(dist)}"
        )
    report += _failed_starts("cocain", results)
    _write_bundle(args, {"spurious.csv": "\n".join(rows) + "\n",
                         "spurious_summary.txt": "\n".join(report) + "\n"})
    return _status(results)


def cmd_denoise(args):
    seed = 0 if args.seed is None else args.seed
    # the flags are named after the denoise keys; background_std has none
    _, keys = PROBLEM_BUILDERS["denoise"]
    opts = {key: str(getattr(args, key)) for key in keys
            if getattr(args, key, None) is not None}
    problem, x0 = _build_problem({**opts, "name": "denoise"})
    solvers = _solver_names(args.solvers)
    config = _resolve_config(args, DENOISE_CONFIG)
    results = {name: SOLVERS[name](problem, config, x0) for name in solvers}

    # graymaps clip the 1e5 outliers into visible range
    shape = problem.meta["shape"]
    files = {"noisy.pgm": problem.meta["observed"].reshape(shape)}
    files.update((f"recon_{name}.pgm", res.x.reshape(shape))
                 for name, res in results.items())
    header = [("command", "denoise"),
              ("lam", _fmt(args.lam)), ("rho", _fmt(args.rho)),
              ("magnitude", _fmt(args.magnitude)), ("seed", seed)]
    files.update(_bundle_files(problem, results, args.compare, header))
    _write_bundle(args, files)
    return _status(results.values())


def cmd_verify(args):
    results = verify_mod.run_scope(args.scope)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{mark} {r.scope}.{r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub, seed, settable):
    """--out, --compare and --iters; --seed and --set only where the
    subcommand has randomized inputs or config entries to take them."""
    sub.add_argument("--out", default="cocain_out",
                     help="output directory (COCAIN_OUT overrides)")
    sub.add_argument("--compare", action="store_true",
                     help="byte-stable outputs: zero wall times, no timestamp")
    sub.add_argument("--iters", type=int, default=None,
                     help="override the iteration budget")
    if seed:
        sub.add_argument("--seed", type=int, default=None,
                         help="seed for randomized inputs")
    if settable:
        sub.add_argument("--set", action="append",
                         metavar="SECTION.KEY=VALUE",
                         help="override a config entry (repeatable)")


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="cocain",
        description="Inertial Bregman proximal gradient benchmark harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run a configured (problem, solvers) bundle")
    p_run.add_argument("--config", required=True, help="experiment config file")
    _add_common(p_run, seed=True, settable=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = subs.add_parser("sweep", help="univariate multi-start comparison")
    p_sweep.add_argument("--kind", default="abssincos",
                         choices=tuple(UNIVARIATE_KINDS))
    p_sweep.add_argument("--n-starts", type=int, default=100)
    p_sweep.add_argument("--lo", default="-15")
    p_sweep.add_argument("--hi", default="15")
    p_sweep.add_argument("--solvers", default="cocain,ipiano,bpg_wb")
    p_sweep.add_argument("--config", default=None,
                         help="optional config file with a [solver] section")
    _add_common(p_sweep, seed=False, settable=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_spur = subs.add_parser("spurious", help="2-D escape study")
    p_spur.add_argument("--starts", default="2,2; -2,2; 2,-2; -2,-2",
                        help="semicolon-separated x,y starts")
    _add_common(p_spur, seed=False, settable=False)
    p_spur.set_defaults(func=cmd_spurious)

    p_den = subs.add_parser("denoise", help="robust denoising bundle")
    p_den.add_argument("--image", default=None,
                       help="input graymap path (default: the block image)")
    p_den.add_argument("--height", type=int, default=None,
                       help="block image height (default 32; not with --image)")
    p_den.add_argument("--width", type=int, default=None,
                       help="block image width (default 32; not with --image)")
    p_den.add_argument("--lam", type=float, default=10.0)
    p_den.add_argument("--rho", type=float, default=1.0)
    p_den.add_argument("--magnitude", type=float, default=1e5)
    p_den.add_argument("--fraction", type=float, default=0.05)
    p_den.add_argument("--data-term", default="log",
                       choices=("log", "l1", "sql2"))
    p_den.add_argument("--solvers", default="cocain,bpg_wb,bpg_fixed")
    _add_common(p_den, seed=True, settable=False)
    p_den.set_defaults(func=cmd_denoise)

    p_ver = subs.add_parser("verify", help="run the property suites")
    p_ver.add_argument("--scope", default="all",
                       choices=(*verify_mod.SCOPES, "all"))
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _pin_blas_threads():
    """Run numpy's OpenBLAS on one thread, so that traces do not depend on
    the thread count.  A numpy without scipy-openblas64 is left as is."""
    try:
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = library.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


def main(argv=None):
    parser = _make_parser()
    # argparse takes a lone value that starts with '-' (`--lo -1e1`,
    # `--starts -2,2`) for a flag, so these flags are joined to theirs
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--starts", "--lo", "--hi"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = parser.parse_args(argv)
    _pin_blas_threads()
    # an overflowing iterate ends its run as non_finite, which _status
    # reports; numpy's overflow warning would only repeat it
    with np.errstate(over="ignore"):
        try:
            return args.func(args)
        except (ConfigError, OSError, ValueError) as exc:
            # setup contracts (dimension mismatches, the initial-majorant
            # barrier) surface as ValueError from the library, and an
            # unreadable input as OSError (output errors are OutputError)
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OutputError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
