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
