"""mpflow benchmark: CLI pipelines end to end, and per module when traced.

    python3 perfbench/run.py --workload train-lorentz --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout (the package is imported from src/).
Each pass of a workload runs in a fresh worker process (worker.py) with the
BLAS threads capped at nproc; passes repeat until --seconds is used up, and
every timing is the median over the untraced passes. With --trace 1 the
second pass is traced and the per-layer metrics come from it. The last line
of stdout is one JSON object with keys correct, attempted, failed, metrics;
the line before it records the environment, the output checksum and each
pass. Scratch files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # every run must end within 180 s

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# Stage metrics, measured in the untraced passes of a traced run; 0 on a
# workload whose pipeline lacks the stage.
STAGE_METRICS = {
    "gen_data_s": ("s", "gen-data"),
    "train_epochs_per_s": ("epochs/s", "train"),
    "compile_s": ("s", "compile"),
    "verify_s": ("s", "verify"),
    "decompose_s": ("s", "decompose"),
}


def per_layer_units():
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: unit for name, (unit, _) in tracer.RATIOS.items()})
    units.update({name: unit for name, (unit, _) in STAGE_METRICS.items()})
    units["trace_overhead_s"] = "s"
    units["error_rate"] = "ratio"
    return units


def run_pass(name, seed, traced, run_dir, index, env, timeout):
    """One worker process; returns its report, or a failure record if it crashed."""
    workdir = run_dir / f"pass{index}"
    report_path = run_dir / f"pass{index}.json"
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
            "--trace", str(int(traced)), "--t0", repr(t0), "--workdir", str(workdir),
            "--report", str(report_path)]
    try:
        proc = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not report_path.exists():
        return {"crashed": f"worker exit {code}", "attempted": 1, "failed": 1,
                "failures": [{"stage": "worker", "problems": [f"exit {code}"]}],
                "traced": traced, "pass_s": time.monotonic() - t0}
    report = json.loads(report_path.read_text())
    report["traced"] = traced
    report["pass_s"] = time.monotonic() - t0
    return report


def run_workload(name, seed, seconds, trace):
    """Run passes for `seconds` and return (result line, detail record)."""
    workload = workloads.build(name, seed)
    run_dir = OUT / f"{name}-seed{seed}-trace{trace}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    cap = str(len(os.sched_getaffinity(0)))  # nproc
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap,
               PYTHONHASHSEED="0")
    load_start = os.getloadavg()[0]

    started = time.monotonic()
    reports, estimate = [], 0.0
    while True:
        elapsed = time.monotonic() - started
        index = len(reports)
        traced = bool(trace) and index == 1
        must_run = index == 0 or (trace and index == 1)
        if not must_run and elapsed + estimate > seconds:
            break
        report = run_pass(name, seed, traced, run_dir, index, env,
                          max(1.0, DEADLINE_S - elapsed))
        reports.append(report)
        if "crashed" in report:
            break
        if not traced:
            estimate = report["pass_s"]

    untraced = [r for r in reports if not r["traced"] and "crashed" not in r]
    traced_reports = [r for r in reports if r["traced"] and "crashed" not in r]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    sums = sorted({r["checksum"] for r in reports if "checksum" in r})
    stable = len(sums) == 1
    previous = _record_checksum(name, seed, sums[0] if stable else None)
    complete = bool(untraced) and (not trace or bool(traced_reports))

    metrics = {}
    if complete and not trace:
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": statistics.median(r[metric] for r in untraced),
                               "unit": unit}
    elif complete:
        values = dict(traced_reports[0]["per_layer"])
        for metric, (unit, stage) in STAGE_METRICS.items():
            times = [r["stage_s"][stage] for r in untraced if stage in r["stage_s"]]
            value = statistics.median(times) if times else 0.0
            if metric == "train_epochs_per_s" and value:
                value = workload.epochs / value
            values[metric] = [value, unit]
        values["trace_overhead_s"] = [
            traced_reports[0]["wall_s"] - statistics.median(r["wall_s"] for r in untraced), "s"]
        values["error_rate"] = [failed / attempted, "ratio"]
        metrics = {m: {"value": v[0], "unit": v[1]} for m, v in values.items()}

    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(reports),
        "checksum": sums[0] if stable else sums,
        "checksum_stable": stable,
        "checksum_matches_earlier_run": previous,
        "final_loss": next((r["final_loss"] for r in reports if "final_loss" in r), None),
        "error_rate": failed / attempted,
        "failures": [f for r in reports for f in r["failures"]],
        "environment": dict(next((r["environment"] for r in untraced), {}), nproc=int(cap),
                            blas_threads_cap=int(cap),
                            loadavg_1m_start=load_start, loadavg_1m_end=os.getloadavg()[0]),
        "per_pass": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "stage_s",
                                            "peak_rss_mb", "pass_s", "crashed")}
                     for r in reports],
    }
    result = {
        "correct": failed == 0 and stable and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def _record_checksum(name, seed, digest):
    """Compare with the checksum an earlier run in this checkout recorded.

    Returns True or False, or None when there is nothing to compare. A
    mismatch is reported, not gated: a change may move bits on purpose.
    """
    if digest is None:
        return None
    path = OUT / "checksums.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{name} seed {seed}"
    previous = known.get(key)
    if previous is not None and previous != digest:
        print(f"perfbench: {key} output checksum {digest} differs from an earlier run's "
              f"{previous}", file=sys.stderr)
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None if previous is None else previous == digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mpflow" / "cli.py").is_file():
        print(f"perfbench: no mpflow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload != "all":
        result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            result, detail = run_workload(name, args.seed, args.seconds, trace)
            print(json.dumps({"detail": detail}))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                print(f"{name:16s} {metric:56s} {entry['value']:.6g} {entry['unit']}")
                total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
