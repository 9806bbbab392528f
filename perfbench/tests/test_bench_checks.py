"""Output checks: corrupted outputs are reported as failures and never raise."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from perfbench import checks, runner, workloads


@pytest.fixture(scope="module")
def system():
    w = workloads.Transient(0)
    w.setup()
    return w.system


def test_clean_system_passes(system):
    assert checks.check_system(system, 0, "level 0") == []


def test_wrong_dof_count_fails(system):
    assert checks.check_system(system, 1, "level 1") == ["level 1: 84 DoFs, expected 231"]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda s: replace(s, K=s.K + sp.csr_matrix(([1.0], ([0], [1])), shape=s.K.shape)),
         "K is not exactly symmetric"),
        (lambda s: replace(s, G_e=-s.G_e), "Ge is not SPD"),
        (lambda s: replace(s, X=np.full_like(s.X, np.nan)), "X has non-finite entries"),
    ],
)
def test_corrupted_system_is_reported(system, corrupt, message):
    problems = checks.check_system(corrupt(system), 0, "level 0")
    assert f"level 0: {message}" in problems


def test_malformed_output_is_a_problem_not_an_exception(system):
    problems = checks.check_system(replace(system, K=None), 0, "level 0")
    assert len(problems) == 1 and problems[0].startswith("check_system:")
    assert checks.compare_reference({"a": [1.0]}, {"a": [1.0, 2.0]}) != []
    assert checks.check_trace(None, "Ge", None, "x") != []


def test_traces():
    assert checks.check_trace([0.0, np.nan], "Ge", None, "t") == ["t: non-finite values"]
    assert checks.check_trace([0.0, 1.0, np.inf], "G", 2, "t") == []  # beyond the marker
    assert checks.check_trace([np.nan, 1.0, np.inf], "G", 2, "t") != []
    assert checks.check_trace([0.0, 1.0], "Ge", 1, "t") != []


def test_reference_tolerance():
    assert checks.compare_reference({"q": [1.0 + 5e-10, 2.0]}, {"q": [1.0, 2.0]}) == []
    assert checks.compare_reference({"q": [1.0 + 5e-9, 2.0]}, {"q": [1.0, 2.0]}) != []
    assert checks.compare_reference({}, {"q": [1.0]}) == ["reference q: missing from the outputs"]


def test_repeatability():
    rep = checks.Repeatability()
    assert rep.check("k", checks.fingerprint(np.arange(3.0))) == []
    assert rep.check("k", checks.fingerprint(np.arange(3.0))) == []
    assert rep.check("k", checks.fingerprint(np.arange(3.0) + [0.0, 0.0, 1e-12])) != []


class _CorruptingLadder(workloads.AssembleLadder):
    """A one-rung ladder whose operation returns an asymmetric K."""

    RUNGS = ((0, "legendre"),)
    setup_repeats = 1

    def run_op(self):
        timings, systems = super().run_op()
        s = systems[(0, "legendre")]
        systems[(0, "legendre")] = replace(s, K=sp.triu(s.K).tocsr())
        return timings, systems


class _RaisingLadder(workloads.AssembleLadder):
    RUNGS = ((0, "legendre"),)
    setup_repeats = 1

    def run_op(self):
        raise FloatingPointError("solver blew up")


def test_corrupted_operation_counts_as_failure():
    result = runner.run_workload(_CorruptingLadder(1), seconds=0.0, trace=False)
    assert (result.attempted, result.failed) == (1, 1)
    assert any("K is not exactly symmetric" in p for p in result.problems)


def test_raising_operation_counts_as_failure():
    result = runner.run_workload(_RaisingLadder(1), seconds=0.0, trace=False)
    assert (result.attempted, result.failed) == (1, 1)
    assert "FloatingPointError" in result.problems[0]
