"""One benchmark pass: a fresh process runs every stage of one workload.

Started by run.py, which sets the BLAS thread cap in the environment and
passes its monotonic clock reading just before the start as --t0, so that
setup_s covers interpreter start, `import mpflow` and writing the configs.
With --trace 1 the pass records spans (tracer.py) and reports per-layer
metrics. The report goes to --report as JSON; the CLI's own output goes to
this process's stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def checksum(paths, root):
    """sha256 over (relative path, bytes) of each artifact, in the given order."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    """Python and numpy versions, and the BLAS library numpy was built against."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def run_pass(workload, seed, workdir, trace, t0):
    from mpflow import cli

    workdir.mkdir(parents=True)
    os.chdir(workdir)
    argvs = []
    for stage in workload.stages:
        cfg = Path(f"{stage.command}.json")
        cfg.write_text(json.dumps(stage.config))
        argvs.append(workloads.stage_argv(stage, cfg, seed))

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first = time.monotonic()
    setup_s = first - t0
    stage_s, codes = {}, []
    for stage, argv in zip(workload.stages, argvs):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash in a stage is a failed invocation, not a harness error
            traceback.print_exc()
            code = None
        stage_s[stage.command] = time.perf_counter() - started
        codes.append(code)
        if code != 0:
            break
    wall_s = time.monotonic() - first

    failures = []
    for stage, code in zip(workload.stages, codes):
        out = workdir / stage.out
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
        problems = []
        if code != 0 or manifest.get("status") != "ok":
            problems.append(f"exit code {code}, status {manifest.get('status')}")
        else:
            problems.extend(stage.check(out, manifest))
        if problems:
            failures.append({"stage": stage.command, "problems": problems})

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "stage_s": stage_s,
        "attempted": len(codes),
        "failed": len(failures),
        "failures": failures,
        "checksum": checksum(workloads.checksum_paths(workdir, workload), workdir),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    metrics_path = workdir / "model" / "metrics.json"
    if metrics_path.exists():
        report["final_loss"] = json.loads(metrics_path.read_text())["final_loss"]
    if tracer is not None:
        report["per_layer"] = tracing.summarize(tracer, workload.mlp_layers * workload.epochs)
        tracing.save_spans(tracer, workdir.parent / f"{workdir.name}-spans.npz", workdir.name)
    return report


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()
    report_path = Path(args.report).resolve()
    workload = workloads.build(args.workload, args.seed)
    report = run_pass(workload, args.seed, Path(args.workdir).resolve(), args.trace, args.t0)
    report_path.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
