"""Public-API surface checks: exports resolve, errors form a hierarchy."""

import importlib

import pytest

import repro
import repro.debugger
import repro.demos
import repro.metrics
import repro.queueing
import repro.sim
import repro.txn
from repro import errors


@pytest.mark.parametrize("module", [
    repro, repro.sim, repro.demos, repro.queueing, repro.txn,
    repro.debugger, repro.metrics,
])
def test_all_exports_resolve(module):
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.{name} missing"


def test_error_hierarchy():
    roots = [
        errors.SimulationError, errors.NetworkError, errors.KernelError,
        errors.RecorderError, errors.RecoveryError, errors.StorageError,
        errors.TransactionError, errors.QueueingModelError,
    ]
    for exc in roots:
        assert issubclass(exc, errors.ReproError)
    assert issubclass(errors.LinkError, errors.KernelError)
    assert issubclass(errors.ProcessError, errors.KernelError)
    # Library errors are catchable without swallowing TypeError etc.
    assert not issubclass(errors.ReproError, (TypeError, ValueError))


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_top_level_convenience_names():
    # The names the README/tutorial lean on.
    for name in ("System", "SystemConfig", "Program", "GeneratorProgram",
                 "Recv", "ProcessId", "kernel_pid", "Link"):
        assert hasattr(repro, name)
