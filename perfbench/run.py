"""Benchmark of the shipped cocain studies, end to end and per layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --seed N --check-counts
  python3 perfbench/run.py --workload NAME --seed N --record-reference

Each workload (see workloads.py) runs shipped studies through the real
entry point, `cocain.cli.main(argv)`, in process with `--compare` and a
temporary `--out`, then audits every certified trace with
`cocain.diagnostics`.  The package is imported from `src/` of the checkout
this file sits in; without it the benchmark exits with code 2.

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
fresh processes, then repetitions of the study and its audit until
--seconds have passed, each timing scaled by calibration chunks timed in
the same stretches (calibration.py).  --trace 1 alternates three untraced
and three traced studies (spans around every public call into each cocain
module, recorded from outside the package), checks that all of them wrote
byte-identical outputs and that every per-layer count repeats exactly, and
reports the per-layer split.  --check-counts is the same with two pairs.
--record-reference stores the run's final objective values and output
digest in reference.json, the record later runs are checked against.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The full record
(samples, environment, noise counters) is written to .perfbench_out/.  The
exit code is 0 only when every run passed its checks.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads: the machine is shared
# and multi-threaded products vary run to run far more than they gain.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COCAIN_OUT", None)  # it would override every --out

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

import numpy as np

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 8        # fresh processes timed for setup_s, before and after
AUDIT_MIN_S = 1.0       # audit passes repeat until this much time per rep
CALIBRATE_EVERY_S = 0.02  # CPU seconds of measured work per calibration chunk
TRACE_PAIRS = 3         # untraced/traced study pairs of a --trace 1 run
WARMUP_ITERS = 3        # iteration cap of the warm-up invocations
PSI_RTOL = 1e-9         # final-objective tolerance against the reference

END_TO_END_UNITS = {
    "setup_s": "s", "study_s": "s", "iters_per_s": "1/s", "certify_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


# ---------------------------------------------------------------------------
# environment and noise


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "commit": _git_commit(),
    }


def noise_counters():
    """(CPU steal ticks of the machine, involuntary context switches of
    this process); steal is None where /proc/stat is unreadable."""
    steal = None
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        if fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    except (OSError, ValueError, IndexError):
        pass
    return steal, resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw


def noise_since(before):
    after = noise_counters()
    steal = None if None in (before[0], after[0]) else after[0] - before[0]
    return {"steal_ticks": steal, "nivcsw": after[1] - before[1]}


# ---------------------------------------------------------------------------
# statistics


def summarize(samples):
    """Median, quartiles, and the highest percentile with at least ten
    samples beyond it (None below eleven samples)."""
    s = sorted(samples)
    n = len(s)
    q1, q3 = (statistics.quantiles(s, n=4)[::2] if n >= 2 else (s[0], s[0]))
    tail = None
    if n >= 11:
        tail = {"percentile": math.floor(100 * (n - 10) / n), "value": s[n - 11]}
    return {"median": statistics.median(s), "q1": q1, "q3": q3, "n": n,
            "tail": tail}


# ---------------------------------------------------------------------------
# running a study


class Calibration:
    """Calibration chunks (see calibration.py) timed in the same stretches
    as a study: before and after every cli.main call, and inside solver
    runs after the first iteration that ends CALIBRATE_EVERY_S CPU seconds
    after the last chunk.  The time of the chunks inside a call is kept, so
    the study's timing can leave it out."""

    def __init__(self):
        self.samples = []
        self.inside_cpu = self.inside_wall = 0.0
        self._due = time.process_time() + CALIBRATE_EVERY_S

    def sample(self):
        self.samples.append(calibration.sample())

    def on_iteration(self):
        cpu_start = time.process_time()
        if cpu_start < self._due:
            return
        start = time.perf_counter()
        self.sample()
        self._due = time.process_time()
        self.inside_cpu += self._due - cpu_start
        self.inside_wall += time.perf_counter() - start
        self._due += CALIBRATE_EVERY_S

    def scale(self):
        """Nominal over measured chunk time: multiplies a CPU time taken
        in the same stretches into seconds at the nominal host speed."""
        return calibration.CHUNK_S / statistics.median(self.samples)


class Bench:
    """One workload at one seed, with its solver runs captured for audit."""

    def __init__(self, workload, seed):
        import cocain
        from cocain import cli, diagnostics

        import tracing

        if not os.path.abspath(cocain.__file__).startswith(SRC + os.sep):
            raise BenchError(f"cocain was imported from {cocain.__file__}")
        self.cli, self.diagnostics, self.tracing = cli, diagnostics, tracing
        self.name = workload
        self.invocations = workloads.WORKLOADS[workload]
        self.plain = workloads.PLAIN_CPU.get(workload, ())
        self.seed = seed
        self.log = tracing.RunLog()
        self.capture = tracing.Patcher()
        tracing.capture_runs(self.capture, self.log)
        os.makedirs(OUT, exist_ok=True)

    def close(self):
        self.capture.restore()

    def study(self, tracer=None, iters=None, calib=None):
        """Run every invocation once; returns the wall and CPU time of the
        cli.main calls, their exit codes, the digest and size of the
        --compare outputs and the observed runs.  With a `Calibration`,
        its chunks are interleaved and left out of the times."""
        self.log.runs = []
        self.log.on_iteration = calib and calib.on_iteration
        workdir = tempfile.mkdtemp(prefix="study-", dir=OUT)
        try:
            elapsed, cpu, codes = 0.0, 0.0, []
            for index, inv in enumerate(self.invocations):
                config = os.path.join(workdir, f"{inv.label}.ini")
                if inv.ini is not None:
                    with open(config, "w") as fh:
                        fh.write(inv.ini)
                argv = inv.argv(os.path.join(workdir, "out", inv.label),
                                config, self.seed, iters)
                self.log.study_id = index
                if tracer is not None:
                    tracer.set_study(index)
                sink = io.StringIO()
                if calib is not None:
                    calib.sample()
                start, cpu_start = time.perf_counter(), time.process_time()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        code = self.cli.main(argv)
                    except Exception as exc:  # a crash is a failed invocation
                        code = f"{type(exc).__name__}: {exc}"
                elapsed += time.perf_counter() - start
                cpu += time.process_time() - cpu_start
                codes.append(code)
                if calib is not None:
                    calib.sample()
            if calib is not None:
                elapsed -= calib.inside_wall
                cpu -= calib.inside_cpu
            digest, size = digest_tree(os.path.join(workdir, "out"))
        finally:
            self.log.on_iteration = None
            shutil.rmtree(workdir, ignore_errors=True)
        return {"seconds": elapsed, "cpu_seconds": cpu, "codes": codes,
                "digest": digest, "bytes": size, "runs": self.log.runs}

    def audit(self, runs, tracer=None):
        """Re-verify the certificates of every audited run.

        Returns one list of failed check names per run (None for runs of
        solvers outside the audit) and the number of records checked.
        """
        diag = self.diagnostics
        verdicts, checked = [], 0
        for study_id, problem, result in runs:
            if result.solver not in workloads.AUDITED_SOLVERS:
                verdicts.append(None)
                continue
            if tracer is not None:
                tracer.set_study(study_id)
            params = diag.LyapunovParams(result.config.delta,
                                         result.config.epsilon,
                                         problem.psi_lower_bound)
            reports = [diag.check_lyapunov_descent(result.records, params),
                       diag.check_prefix_bound(result.records, params)]
            if result.records[0].x is not None:
                reports.append(diag.check_acceptance_conditions(
                    result.records, problem, params))
            checked += sum(r.n_checked for r in reports)
            verdicts.append([r.name for r in reports if not r.passed])
        return verdicts, checked

    def failures(self, study, verdicts, reference):
        """Failure messages, one per failed operation (solver run + audit)."""
        from cocain.solvers import TERM_BACKTRACK_FAILURE

        failed = []
        by_study = {}
        for (index, _, result), verdict in zip(study["runs"], verdicts):
            by_study.setdefault(index, []).append((result, verdict))
        for index, inv in enumerate(self.invocations):
            code = study["codes"][index]
            observed = by_study.get(index, [])
            if code != 0:
                failed += [f"{inv.label}: exit {code}"] * inv.runs
                continue
            if len(observed) != inv.runs:
                failed += [f"{inv.label}: {len(observed)} runs observed, "
                           f"{inv.runs} expected"] * max(1, inv.runs - len(observed))
            for result, verdict in observed:
                tag = f"{inv.label}/{result.solver}"
                if result.termination == TERM_BACKTRACK_FAILURE:
                    failed.append(f"{tag}: backtracking failed")
                elif verdict:
                    failed.append(f"{tag}: certificate {','.join(verdict)} "
                                  "does not re-verify")
        if reference is not None and not failed:
            finals = [result.final_psi for _, _, result in study["runs"]]
            expected = reference["final_psi"]
            if len(finals) != len(expected):
                failed.append(f"{len(finals)} runs, reference has {len(expected)}")
            for i, (got, ref) in enumerate(zip(finals, expected)):
                if abs(got - ref) > PSI_RTOL * max(1.0, abs(ref)):
                    failed.append(f"run {i}: final psi {got!r} is off the "
                                  f"reference {ref!r}")
        return failed

    def warm_up(self):
        """Short runs of the same invocations, so imports and first-call
        costs are paid before timing."""
        study = self.study(iters=WARMUP_ITERS)
        self.audit(study["runs"])

    def setup_seconds(self, cpu, wall, scaled):
        """Append the CPU and wall seconds of SETUP_PROBES fresh processes
        that import the cocain CLI and build the workload's inputs, and the
        CPU seconds scaled by the calibration chunks each probe times
        after its set-up."""
        probe = os.path.join(HERE, "setup_probe.py")
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, probe, ROOT, self.name, str(self.seed)],
                cwd=ROOT, capture_output=True, text=True, check=True,
                timeout=120,
            )
            fields = [float(f) for f in done.stdout.split()[-3:]]
            cpu.append(fields[0])
            wall.append(fields[1])
            scale = (1.0 if "setup_s" in self.plain
                     else calibration.CHUNK_S / fields[2])
            scaled.append(fields[0] * scale)


def digest_tree(top):
    sha = hashlib.sha256()
    size = 0
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            size += len(data)
            sha.update(os.path.relpath(path, top).encode() + b"\0")
            sha.update(len(data).to_bytes(8, "little") + data)
    return sha.hexdigest(), size


def load_reference(workload, seed):
    try:
        with open(REFERENCE) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        return None
    return record.get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# modes


def measure_end_to_end(bench, seconds, reference):
    """Time set-up, study and audit.

    The metrics are CPU seconds of this single-threaded process, scaled by
    calibration chunks timed in the same stretches (see calibration.py):
    per set-up probe, per study, and per repetition's audit passes; those
    named in `workloads.PLAIN_CPU` are left unscaled.  The unscaled CPU
    seconds and the wall seconds are kept beside them.  Set-up
    probes run before and after the study loop, so that they sample the
    machine over the whole run rather than one moment of it.  Peak memory is
    read after the first repetition: warm-up, one study and its audit."""
    setup_cpu, setup_wall, setup_scaled = [], [], []
    bench.setup_seconds(setup_cpu, setup_wall, setup_scaled)
    bench.warm_up()
    study_cpu, study_wall, study_scaled = [], [], []
    certify_cpu, certify_wall, certify_scaled = [], [], []
    reps, failed, digests, peak_rss_mb = [], [], set(), None
    iterations = attempted = 0
    loop_start = time.perf_counter()
    while True:
        study = verdicts = None  # the previous repetition's runs leave memory
        before = noise_counters()
        calib = None if "study_s" in bench.plain else Calibration()
        study = bench.study(calib=calib)
        study_scale = calib.scale() if calib else 1.0
        passes, audit_calib = [], Calibration()
        calibrate_audit = "certify_s" not in bench.plain
        audit_start = time.perf_counter()
        while not passes or time.perf_counter() - audit_start < AUDIT_MIN_S:
            start, cpu_start = time.perf_counter(), time.process_time()
            verdicts, _ = bench.audit(study["runs"])
            passes.append(time.process_time() - cpu_start)
            certify_wall.append(time.perf_counter() - start)
            if calibrate_audit:
                for _ in range(max(1, int(passes[-1] / CALIBRATE_EVERY_S))):
                    audit_calib.sample()
        certify_cpu += passes
        certify_scale = audit_calib.scale() if calibrate_audit else 1.0
        certify_scaled.append(statistics.median(passes) * certify_scale)
        study_cpu.append(study["cpu_seconds"])
        study_wall.append(study["seconds"])
        study_scaled.append(study["cpu_seconds"] * study_scale)
        digests.add(study["digest"])
        iterations = sum(r.iterations for _, _, r in study["runs"])
        attempted += sum(inv.runs for inv in bench.invocations)
        failed += bench.failures(study, verdicts, reference)
        reps.append({"study_cpu_s": study["cpu_seconds"],
                     "study_wall_s": study["seconds"],
                     "audit_passes": len(passes),
                     "host_slowdown": 1 / study_scale if calib else None,
                     **noise_since(before)})
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - loop_start >= seconds:
            break
    bench.setup_seconds(setup_cpu, setup_wall, setup_scaled)
    if len(digests) != 1:
        failed.append("outputs differ between repetitions")
    samples = {
        "setup_s": setup_scaled, "study_s": study_scaled,
        "iters_per_s": [iterations / s for s in study_scaled],
        "certify_s": certify_scaled,
        "peak_rss_mb": [peak_rss_mb],
    }
    metrics = {name: summarize(values) for name, values in samples.items()}
    metrics["iters_per_s"]["median"] = iterations / metrics["study_s"]["median"]
    unscaled = {
        "setup_s (cpu)": summarize(setup_cpu),
        "study_s (cpu)": summarize(study_cpu),
        "certify_s (cpu)": summarize(certify_cpu),
        "setup_s (wall)": summarize(setup_wall),
        "study_s (wall)": summarize(study_wall),
        "certify_s (wall)": summarize(certify_wall),
    }
    return {
        "metrics": metrics, "unscaled": unscaled, "attempted": attempted,
        "failed": failed, "digest": digests.pop(), "iterations": iterations,
        "reps": reps,
    }


def traced_study(bench):
    """One traced study plus its audit; returns (study, audit verdicts,
    tracer, records checked).  The tracer is removed before returning."""
    tracer = bench.tracing.Tracer()
    patcher = bench.tracing.Patcher()
    tracer.install(patcher)
    try:
        study = tracer.span("bench.study", bench.study, tracer=tracer)
        verdicts, checked = tracer.span("bench.audit", bench.audit,
                                        study["runs"], tracer=tracer)
    finally:
        patcher.restore()
    return study, verdicts, tracer, checked


SOLVE_CALLS = ("problems.g_value", "problems.g_grad", "prox.f_prox_step",
               "prox.f_value", "kernels.bregman", "kernels.grad")
AUDIT_CALLS = ("problems.g_value", "problems.g_grad", "kernels.bregman")
SELF_TIME_LAYERS = ("problems", "prox", "kernels", "solvers", "diagnostics")


def per_layer(bench, study, tracer, checked):
    """{metric: (value, unit)} from the traced study's spans and runs."""
    t = bench.tracing
    spans = tracer.arrays()
    info = t.analyse(spans)
    runs = study["runs"]
    iterations = sum(r.iterations for _, _, r in runs)
    pr_studies = [i for i, inv in enumerate(bench.invocations)
                  if inv.phase_retrieval]
    pr_iterations = sum(r.iterations for i, _, r in runs if i in pr_studies)

    def per_iter(count, base=iterations):
        return count / base if base else 0.0

    def accept_ratio(trials):
        # iterations that ran the search / trials the search made
        searched = sum(1 for n in trials if n > 0)
        return searched / sum(trials) if searched else 0.0

    records = [rec for _, _, r in runs for rec in r.records[1:-1]]
    matvecs = (t.calls(info, spans, "problems.g_value", t.SOLVE, pr_studies)
               + 2 * t.calls(info, spans, "problems.g_grad", t.SOLVE, pr_studies))
    values = {f"{name}.calls_per_iter":
              (per_iter(t.calls(info, spans, name, t.SOLVE)), "calls/iter")
              for name in SOLVE_CALLS}
    values.update({f"{name}.audit_calls_per_iter":
                   (per_iter(t.calls(info, spans, name, t.AUDIT)), "calls/iter")
                   for name in AUDIT_CALLS})
    values.update({f"{layer}.self_s": (t.layer_self_seconds(info, layer), "s")
                   for layer in SELF_TIME_LAYERS})
    values.update({
        "problems.matvecs_per_iter": (per_iter(matvecs, pr_iterations),
                                      "matvecs/iter"),
        "solvers.lower_accept_ratio": (
            accept_ratio([rec.lower_trials for rec in records]), "1"),
        "solvers.upper_accept_ratio": (
            accept_ratio([rec.upper_trials for rec in records]), "1"),
        "solvers.runs": (len(runs), "count"),
        "solvers.iterations": (iterations, "count"),
        "diagnostics.records_checked": (checked, "count"),
        "diagnostics.oracle_calls": (
            t.oracle_entries(info, ("problems", "prox", "kernels"), t.AUDIT),
            "count"),
        "cli.output_s": (t.outermost_seconds(info, spans, t.OUTPUT_SPANS), "s"),
        "cli.bytes_written": (study["bytes"], "B"),
        "pgm.write_s": (t.outermost_seconds(info, spans, ("pgm.write_pgm",)),
                        "s"),
        "trace.spans": (len(spans["name"]), "count"),
    })
    return values, spans


def count_metrics(values):
    """The machine-independent part of the per-layer split."""
    return {k: v for k, (v, unit) in values.items()
            if unit in ("calls/iter", "matvecs/iter", "count", "B", "1")}


def measure_per_layer(bench, reference, pairs):
    """Alternate untraced and traced studies, `pairs` of each.  Each layer
    metric is the median over the traced studies; trace.overhead_s is the
    median traced study CPU time minus the median untraced one."""
    bench.warm_up()
    before = noise_counters()
    failed, layers, plain_cpu, traced_cpu, digests = [], [], [], [], set()
    for _ in range(pairs):
        plain = bench.study()
        verdicts, _ = bench.audit(plain["runs"])
        failed += bench.failures(plain, verdicts, reference)
        plain_cpu.append(plain["cpu_seconds"])
        digests.add(plain["digest"])
        plain = verdicts = None
        traced, verdicts, tracer, checked = traced_study(bench)
        failed += bench.failures(traced, verdicts, reference)
        traced_cpu.append(traced["cpu_seconds"])
        if traced["digest"] not in digests:
            failed.append("traced and untraced --compare outputs differ")
        values, spans = per_layer(bench, traced, tracer, checked)
        layers.append(values)
        traced = verdicts = tracer = None
    if len(digests) != 1:
        failed.append("outputs differ between repetitions")
    counts = [count_metrics(v) for v in layers]
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        failed.append("per-layer counts differ between traced runs")
    attempted = sum(inv.runs for inv in bench.invocations) * 2 * pairs
    values = {name: (statistics.median(v[name][0] for v in layers), unit)
              for name, (_, unit) in layers[0].items()}
    values["trace.overhead_s"] = (
        statistics.median(traced_cpu) - statistics.median(plain_cpu), "s")
    values["fail_ratio"] = (len(failed) / attempted, "1")
    with open(os.path.join(OUT, f"spans-{bench.name}.npz"), "wb") as fh:
        np.savez(fh, **spans)
    return {"values": values, "layers": layers, "counts_repeat": counts_repeat,
            "plain_cpu_s": plain_cpu, "traced_cpu_s": traced_cpu,
            "attempted": attempted, "failed": failed,
            "digest": digests.pop(), "noise": noise_since(before)}


# ---------------------------------------------------------------------------
# reporting


def print_table(rows):
    width = max(len(r[0]) for r in rows)
    for row in rows:
        print(f"  {row[0]:<{width}}  " + "  ".join(str(c) for c in row[1:]))


def report_digest(digest, reference):
    if reference is None:
        return f"digest sha256:{digest} (no record for this seed)"
    if digest == reference["digest"]:
        return f"digest sha256:{digest} matches the recorded digest"
    return (f"digest sha256:{digest} DIFFERS from the recorded "
            f"{reference['digest']} (reported, not counted as a failure)")


def run_end_to_end(bench, seconds, env, reference):
    result = measure_end_to_end(bench, seconds, reference)
    failed = result["failed"]
    fail_ratio = len(failed) / result["attempted"]
    rows = [("metric", "median", "unit", "n", "q1..q3", "tail")]
    for name, m in result["metrics"].items():
        tail = (f"p{m['tail']['percentile']}={m['tail']['value']:.6g}"
                if m["tail"] else "-")
        rows.append((name, f"{m['median']:.6g}", END_TO_END_UNITS[name],
                     m["n"], f"{m['q1']:.6g}..{m['q3']:.6g}", tail))
    for name, m in result["unscaled"].items():
        rows.append((name, f"{m['median']:.6g}", "s", m["n"],
                     f"{m['q1']:.6g}..{m['q3']:.6g}", "-"))
    rows.append(("fail_ratio", f"{fail_ratio:.6g}", "1", result["attempted"],
                 f"{len(failed)} failed", "-"))
    print_table(rows)
    print(f"iterations per study: {result['iterations']}")
    print(report_digest(result["digest"], reference))
    for i, rep in enumerate(result["reps"]):
        slowdown = rep["host_slowdown"]
        print(f"rep {i}: study cpu={rep['study_cpu_s']:.6g} "
              f"wall={rep['study_wall_s']:.6g} host_slowdown="
              f"{'-' if slowdown is None else f'{slowdown:.4g}'} audit_passes="
              f"{rep['audit_passes']} steal_ticks={rep['steal_ticks']} "
              f"nivcsw={rep['nivcsw']}")
    for message in failed:
        print(f"FAILED {message}")
    metrics = {name: {"value": m["median"], "unit": END_TO_END_UNITS[name]}
               for name, m in result["metrics"].items()}
    write_record(bench.name, 0,
                 {**result, "env": env, "fail_ratio": fail_ratio})
    return not failed, result["attempted"], len(failed), metrics


def run_per_layer(bench, env, reference, pairs):
    result = measure_per_layer(bench, reference, pairs)
    failed = result["failed"]
    values = result["values"]
    rows = [("metric", "value", "unit")]
    rows += [(name, f"{v:.6g}", unit) for name, (v, unit) in values.items()]
    print_table(rows)
    print(report_digest(result["digest"], reference))
    print(f"study cpu seconds: untraced {result['plain_cpu_s']} "
          f"traced {result['traced_cpu_s']}")
    print(f"noise: steal_ticks={result['noise']['steal_ticks']} "
          f"nivcsw={result['noise']['nivcsw']}")
    print(f"per-layer counts over {pairs} traced runs: "
          + ("identical" if result["counts_repeat"] else "DIFFER"))
    for message in failed:
        print(f"FAILED {message}")
    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in values.items()}
    write_record(bench.name, 1, {**result, "env": env})
    return not failed, result["attempted"], len(failed), metrics


def record_reference(bench):
    study = bench.study()
    verdicts, _ = bench.audit(study["runs"])
    failed = bench.failures(study, verdicts, None)
    if failed:
        raise BenchError("not recording a failing run: " + "; ".join(failed))
    try:
        with open(REFERENCE) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    record.setdefault(bench.name, {})[str(bench.seed)] = {
        "digest": study["digest"],
        "final_psi": [r.final_psi for _, _, r in study["runs"]],
    }
    with open(REFERENCE, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {bench.name} seed {bench.seed}: {study['digest']}")


def write_record(workload, trace, record):
    path = os.path.join(OUT, f"result-{workload}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check-counts", action="store_true",
                      help="--trace 1 with two pairs: per-layer counts "
                      "must repeat")
    mode.add_argument("--record-reference", action="store_true",
                      help="store final objectives and digest for this seed")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cocain", "__init__.py")):
        raise BenchError(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    bench = Bench(args.workload, args.seed)
    try:
        if args.record_reference:
            record_reference(bench)
            return 0
        env = environment(args.seed)
        reference = load_reference(args.workload, args.seed)
        print(f"workload {args.workload} seed {args.seed} "
              + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
        print("timings in plain CPU seconds: "
              + (", ".join(bench.plain) or "none") + "; the others calibrated")
        if args.check_counts:
            outcome = run_per_layer(bench, env, reference, pairs=2)
        elif args.trace:
            outcome = run_per_layer(bench, env, reference, TRACE_PAIRS)
        else:
            outcome = run_end_to_end(bench, args.seconds, env, reference)
    finally:
        bench.close()
    correct, attempted, failed, metrics = outcome
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
