"""Self-test of the benchmark harness: python3 perfbench/selftest.py

Checks the self-time arithmetic on nested spans, the ratios counted from the
span tree, the artifact selection behind the output checksum, the chain
workload's field, and that BENCHMARK.json names exactly the metrics the
harness reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # outer [0, 20] > mid [1, 11] > leaf [2, 5]; then leaf [12, 13] directly under outer.
        t = tracer.Tracer(clock=fake_clock([0, 1, 2, 5, 11, 12, 13, 20]))
        leaf = t.wrap("leaf", lambda: None)
        mid = t.wrap("mid", lambda: leaf())
        outer = t.wrap("outer", lambda: (mid(), leaf()))
        outer()
        name_id, parent, dur = t.arrays()
        self_s = tracer.self_times(parent, dur)
        by_span = [(t.names[n], p, s) for n, p, s in zip(name_id, parent, self_s)]
        self.assertEqual(by_span, [("outer", -1, 20 - 10 - 1), ("mid", 0, 10 - 3),
                                   ("leaf", 1, 3), ("leaf", 0, 1)])
        self.assertAlmostEqual(float(self_s.sum()), 20.0)

    def test_span_closes_when_the_call_raises(self):
        t = tracer.Tracer(clock=fake_clock([0, 1, 4, 9]))

        def boom():
            raise RuntimeError("x")

        inner = t.wrap("inner", boom)
        outer = t.wrap("outer", lambda: inner())
        with self.assertRaises(RuntimeError):
            outer()
        _, parent, dur = t.arrays()
        self.assertEqual(dur.tolist(), [9.0, 3.0])
        self.assertEqual(tracer.self_times(parent, dur).tolist(), [6.0, 3.0])

    def test_under_finds_any_strict_ancestor(self):
        # 0:a > 1:b > 2:c, 3:c directly under a, 4:c at the root
        name_id = np.array([0, 1, 2, 2, 2])
        parent = np.array([-1, 0, 1, 0, -1])
        self.assertEqual(tracer.under(name_id, parent, [0]).tolist(),
                         [False, True, True, True, False])
        self.assertEqual(tracer.under(name_id, parent, [1]).tolist(),
                         [False, False, True, False, False])

    def test_summarize_counts_ratios_from_the_tree(self):
        t = tracer.Tracer(clock=lambda: 0.0)
        field_eval = t.wrap("dynamics.field_eval", lambda: None)
        pair_eval = t.wrap("pair_decomposition.pair_eval",
                           lambda: [field_eval() for _ in range(3)])
        pair_eval()
        pair_eval()
        field_eval()  # outside any pair_eval: not counted
        out = tracer.summarize(t)
        self.assertEqual(out["dynamics.field_eval.calls"], (7, "count"))
        self.assertEqual(out["pair_decomposition.field_evals_per_pair_eval"], (3.0, "ratio"))
        self.assertEqual(out["serialize.build_pairs_per_load"], (0.0, "ratio"))
        self.assertEqual(set(out), set(run.per_layer_units()) - set(run.STAGE_METRICS)
                         - {"trace_overhead_s", "error_rate"})

    def test_install_wraps_each_binding_of_a_function(self):
        # In a child process: install patches the package for the whole process.
        script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import mpflow.pair_decomposition as pd
original = pd.build_pairs
import tracer
t = tracer.Tracer()
tracer.install(t)
import mpflow.cli, mpflow.compiler, mpflow.dynamics, mpflow.training
assert mpflow.cli.train is mpflow.training.train
assert mpflow.compiler.build_pairs is pd.build_pairs
assert pd.build_pairs.__wrapped__ is original
pd.field_eval(mpflow.dynamics.make_field("harmonic2d"), 0.0, [1.0, 0.0])
assert [t.names[i] for i in t.name_id] == ["dynamics.field_eval"]
"""
        proc = subprocess.run([sys.executable, "-c", script, str(HERE), str(HERE.parent / "src")],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class ChecksumTest(unittest.TestCase):
    def test_selection_takes_the_pure_artifacts_only(self):
        workload = workloads.build("train-lorentz", 1)
        files = ["manifest.json", "trajectory.csv", "loss_curve.csv", *workloads.CHECKSUM_ARTIFACTS]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for stage in workload.stages:
                (root / stage.out).mkdir()
                for name in files:
                    (root / stage.out / name).write_text(f"{stage.out}/{name}")
            picked = workloads.checksum_paths(root, workload)
            self.assertEqual([p.name for p in picked].count("manifest.json"), 0)
            self.assertEqual(len(picked), len(workload.stages) * len(workloads.CHECKSUM_ARTIFACTS))
            self.assertTrue(all(p.name in workloads.CHECKSUM_ARTIFACTS for p in picked))
            before = worker.checksum(picked, root)
            (root / "data" / "manifest.json").write_text("paths differ")
            self.assertEqual(worker.checksum(picked, root), before)
            (root / "model" / "model.json").write_text("other bits")
            self.assertNotEqual(worker.checksum(picked, root), before)

    def test_missing_artifacts_are_skipped(self):
        workload = workloads.build("decompose-chain", 1)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "deco").mkdir()
            (root / "deco" / "decomposition.json").write_text("{}")
            (root / "deco" / "manifest.json").write_text("{}")
            picked = workloads.checksum_paths(root, workload)
            self.assertEqual([p.relative_to(root).as_posix() for p in picked],
                             ["deco/decomposition.json"])


class ChainWorkloadTest(unittest.TestCase):
    def test_chain_field_is_divergence_free(self):
        from mpflow.cli import _field_from_config
        from mpflow.dynamics import divergence_fd

        field = _field_from_config(workloads.chain_field(workloads.chain_coefficients(7)))
        rng = np.random.default_rng(0)
        for y in rng.uniform(-1.0, 1.0, size=(20, workloads.CHAIN_DIM)):
            self.assertLess(abs(divergence_fd(field, 0.0, y)), 1e-8)

    def test_coefficients_follow_the_seed(self):
        a = workloads.chain_coefficients(1)
        self.assertEqual(a, workloads.chain_coefficients(1))
        self.assertNotEqual(a, workloads.chain_coefficients(2))
        self.assertTrue(all(0.5 <= v <= 1.5 for v in a + workloads.chain_coefficients(2)))

    def test_separability_pattern_holds_on_two_seeds(self):
        from mpflow.cli import _box_from_config, _field_from_config
        from mpflow.pair_decomposition import decompose

        for seed in (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1):
            stage = workloads.build("decompose-chain", seed).stages[0]
            deco = decompose(_field_from_config(stage.config["field"]),
                             _box_from_config(stage.config["box"]),
                             quad_nodes=32, tol=workloads.CHAIN_TOL, n_residual=2)
            self.assertEqual([p.separable for p in deco.pairs], ["no", "no", "no"], seed)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
