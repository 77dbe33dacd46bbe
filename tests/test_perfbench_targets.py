"""The traced benchmark pass wraps mpflow functions by name; a renamed or
deleted target, or a kernel called with arguments its work function does not
take, would crash every traced pass."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(f"mpflow.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_pass_calls_each_kernel_with_its_own_arguments():
    # A target's work function takes the target's exact arguments, so a kernel
    # called with one more would raise TypeError in every traced pass. In a
    # child process: install patches the package for the whole process.
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import tracer
t = tracer.Tracer()
tracer.install(t)
from mpflow.coupling import MPNet, net_apply_batch, upper_layer
from mpflow.dynamics import PairDataset
from mpflow.shifts import fixed_shift
from mpflow.training import TrainConfig, rollout, train
from mpflow.verify import fd_jacobian_det, sample_points
teacher = MPNet(2, (upper_layer(2, 2, fixed_shift("scaled_sigmoid", [1.5, -0.2, 0.7], 1, 1)),))
x = sample_points((np.full(2, -1.0), np.full(2, 1.0)), 16, 42)
ds = PairDataset(x, net_apply_batch(teacher, x))
net, _ = train(ds, TrainConfig(n_layers=2, width=8, epochs=3, log_stride=1))
rollout(net, x[0], 3)
fd_jacobian_det(lambda rows: net_apply_batch(net, rows), x[0])
names = {t.names[i] for i in t.name_id}
want = {"training.train", "training.rollout", "verify.fd_jacobian_det",
        "mlp.forward_cached", "shifts.FixedShift.apply_batch"}
assert want <= names, sorted(want - names)
"""
    proc = subprocess.run([sys.executable, "-c", script, str(TRACER.parent), str(TRACER.parents[1] / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
