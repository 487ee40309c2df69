"""The names the benchmark in `perfbench/` wraps or calls still exist.

The benchmark replaces package functions by name from outside (see
`perfbench/tracing.py`) and drives the CLI with fixed command lines (see
`perfbench/workloads.py`).  A refactor that renames one of those functions
or drops a flag the command lines pass breaks the benchmark, not the
package's own tests; this module reads the benchmark's tables, without
editing them, and fails first.
"""

import dataclasses
import importlib
import importlib.util
import os

import pytest

from cocain import cli, diagnostics, kernels, solvers
from cocain.problems import make_univariate

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("layer,name", [
    (layer, name) for layer, names in tracing.TRACED_FUNCTIONS.items()
    for name in names
])
def test_traced_functions_exist(layer, name):
    module = importlib.import_module(f"cocain.{layer}")
    assert callable(getattr(module, name, None)), f"cocain.{layer}.{name}"


def test_modules_solvers_and_factories_exist():
    for name in tracing.MODULES:
        importlib.import_module(name)
    for name in tracing.SOLVERS:
        assert callable(getattr(solvers, name, None)), name
    problems = importlib.import_module("cocain.problems")
    for name in tracing.FACTORIES:
        assert callable(getattr(problems, name, None)), name


@pytest.mark.parametrize("kernel", [kernels.EuclideanKernel,
                                    kernels.QuarticKernel])
def test_kernel_methods_exist(kernel):
    for name in tracing.KERNEL_METHODS:
        assert callable(getattr(kernel, name, None)), f"{kernel.__name__}.{name}"


def test_audit_calls_exist():
    # perfbench/run.py audits with these, positionally
    params = diagnostics.LyapunovParams(0.99, 0.0099, 0.0)
    assert params.delta == 0.99 and params.epsilon == 0.0099
    for name in ("check_lyapunov_descent", "check_prefix_bound",
                 "check_acceptance_conditions"):
        assert callable(getattr(diagnostics, name)), name
    report_fields = {f.name for f in dataclasses.fields(diagnostics.CheckReport)}
    assert {"name", "passed", "n_checked"} <= report_fields
    assert isinstance(solvers.TERM_BACKTRACK_FAILURE, str)
    assert set(workloads.AUDITED_SOLVERS) <= set(cli.SOLVERS)
    assert callable(cli.main)


def test_audited_solvers_are_those_promising_lyapunov_descent():
    # the benchmark keeps its own copy of this column of the promise table
    promised = {name for name, checks in diagnostics.PROMISES.items()
                if "lyapunov_descent" in checks}
    assert set(workloads.AUDITED_SOLVERS) == promised


@pytest.mark.parametrize("store", [False, True])
def test_run_attributes_the_benchmark_reads(store):
    # perfbench/run.py reads these from every captured run and its records;
    # a change of the record or result type fails here first
    problem = make_univariate("logquad")
    config = solvers.SolverConfig(max_iters=4, stop_tol=0.0,
                                  store_iterates=store)
    result = solvers.cocain_bpg(problem, config, [2.0])
    assert result.solver in workloads.AUDITED_SOLVERS
    assert result.iterations == 4 == len(result.records[1:-1])
    assert result.termination == solvers.TERM_MAX_ITERS
    assert result.final_psi == result.records[-1].psi
    assert (result.config.delta, result.config.epsilon) == (0.99, 0.0099)
    assert (result.records[0].x is not None) is store
    for rec in result.records[1:-1]:
        assert isinstance(rec.lower_trials, int) and rec.lower_trials >= 1
        assert isinstance(rec.upper_trials, int) and rec.upper_trials >= 1
    params = diagnostics.LyapunovParams(result.config.delta,
                                        result.config.epsilon,
                                        problem.psi_lower_bound)
    assert diagnostics.check_lyapunov_descent(result.records, params).passed


@pytest.mark.parametrize("iters", [None, 3])
def test_workload_command_lines_parse(iters):
    # the warm-up passes --iters to every command line, the timed runs not
    parser = cli._make_parser()
    for name, invocations in workloads.WORKLOADS.items():
        for inv in invocations:
            argv = inv.argv("out", "exp.ini", 0, iters=iters)
            args = parser.parse_args(argv)
            assert args.compare, f"{name}/{inv.label}"


def test_desk_inputs_build_through_the_cli():
    built = workloads.build_inputs(cli, "desk-studies", 0)
    assert len(built) == len(workloads.WORKLOADS["desk-studies"])
    for name, invocations in workloads.WORKLOADS.items():
        for inv in invocations:
            assert inv.problem["name"] in cli.PROBLEM_BUILDERS, inv.label
