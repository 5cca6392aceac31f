"""The benchmark under bench/ drives the program through public names and
wraps others from outside; a renamed name would silently drop metrics or
fail every run. One zero-latency unit of each workload must pass the
benchmark's own checks."""

import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import tracing  # noqa: E402


def test_every_traced_name_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.TARGETS
               if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("workload", sorted(run.workloads.GENERATORS))
def test_one_unit_passes_the_benchmark_checks(workload):
    setup = run.Setup(workload, 1, 1)
    measured = run.measure(workload, setup, 1, 0, n_units=1, scale=0.0, clients=1)
    failed, messages = run.check(workload, setup, measured, run.reports(measured.outputs), "itself")
    assert measured.log.episodes and not failed, messages


def test_optimize_unit_equals_a_serial_run(monkeypatch):
    setup = run.Setup("optimize_replay", 1, 1)
    with monkeypatch.context() as patch:
        patch.setattr(run.optimize, "OptimizationConfig",
                      functools.partial(run.optimize.OptimizationConfig, parallel=1))
        serial = run.measure("optimize_replay", setup, 1, 0, n_units=1, scale=0.0, clients=1)
    measured = run.measure("optimize_replay", setup, 1, 0, n_units=1, scale=0.0, clients=1)
    failed, messages = run.check("optimize_replay", setup, measured, run.reports(serial.outputs),
                                 "a serial run's")
    assert measured.log.episodes and not failed, messages
