"""Benchmark of the emonoise protocol: one fresh process per CLI stage.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it runs ``src/emonoise`` from
that checkout. The seed fixes the synthetic corpus; the program's own master
seed is a workload constant. Within ``--seconds`` it repeats cycles of
``prepare`` (several times, for set-up time), ``train`` and ``evaluate``,
each a fresh interpreter fed only the generated files and an INI, one stage
at a time (a closed loop with one client). Each cycle's ``model.dbn`` and
``report.csv`` are checked and hashed; every cycle, and every earlier run of
the same sources, workload and seed in this checkout, must produce the same
bytes.

With ``--trace 0`` the stages run untraced and the end-to-end metrics are
reported; with ``--trace 1`` they run under ``tracing.py`` and the per-layer
metrics are reported. Metric names and units come from BENCHMARK.json. The
last stdout line is the result object; the line before it holds the samples
behind each figure, the machine record and the output hashes.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from metrics import count_failures, layer_metrics, summarize  # noqa: E402
from workloads import WORKLOADS, config_text, generate  # noqa: E402

SETUP_REPEATS = 5  # prepare runs per cycle; setup_s is their median
RUN_DEADLINE_S = 170.0  # a stage still running then is killed and counts as failed
N_CEPS = 13  # the MFCC width every workload feeds the model
TOP_SPANS = {"prepare": "pipeline.prepare", "train": "pipeline.train_model",
             "evaluate": "pipeline.evaluate_experiment"}


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def dgemm_gflops(n: int = 1000, repeats: int = 7) -> float:
    """Median float64 GEMM rate on this machine, the roof for the dbn GFLOP/s figures."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def machine_record() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "dgemm_gflops": dgemm_gflops(),
    }


def code_fingerprint() -> str:
    """Digest of the program and benchmark sources: the outputs depend on both."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class StageRunner:
    """Starts one stage process at a time and records its wall time and peak RSS."""

    def __init__(self, ini: Path, log: Path, spans_dir: Path | None, deadline: float):
        self.ini = ini
        self.deadline = deadline
        self.log = log
        self.spans_dir = spans_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.invocations: list[dict] = []

    def run(self, stage: str) -> dict:
        record = {"stage": stage, "exit_code": None, "check_errors": []}
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "emonoise.cli"]
        else:
            record["spans"] = str(self.spans_dir / f"{len(self.invocations)}.json")
            cmd = [sys.executable, str(HERE / "tracing.py"), record["spans"]]
        cmd += [stage, "--config", str(self.ini)]
        with open(self.log, "ab") as log:
            record["start_ns"] = time.time_ns()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
            record["wall_s"] = time.perf_counter() - t0
        record["exit_code"] = proc.returncode
        record["rss_mb"] = usage.ru_maxrss / 1024.0
        self.invocations.append(record)
        return record


def check_outputs(work: Path, n_conditions: int) -> dict:
    """Validate model.dbn and report.csv; errors are charged to train and evaluate."""
    from emonoise.dbn import forward, load_model
    from emonoise.pipeline import accuracy_delta, read_report

    out = {"train_errors": [], "evaluate_errors": [], "accuracy": None}
    model_file, report_file = work / "model.dbn", work / "report.csv"
    try:
        model = load_model(model_file)
        probs = forward(model, np.random.default_rng(0).standard_normal((64, N_CEPS)))
        if probs.shape[0] != 64 or not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            out["train_errors"].append("forward rows do not sum to 1")
        out["model_sha256"] = sha256(model_file)
    except (OSError, ValueError) as exc:
        out["train_errors"].append(f"model.dbn: {exc}")

    try:
        rows = read_report(report_file)
        out["report_sha256"] = sha256(report_file)
    except (OSError, ValueError) as exc:
        out["evaluate_errors"].append(f"report.csv: {exc}")
        return out
    errors = out["evaluate_errors"]
    if len(rows) != n_conditions:
        errors.append(f"report.csv has {len(rows)} rows, want {n_conditions}")
    if not rows or rows[0]["condition"] != "clean":
        errors.append("report.csv does not start with the clean row")
        return out
    clean = float(rows[0]["utterance_accuracy"])
    if clean <= 0.0 or float(rows[0]["delta_percent"]) != 0.0:
        errors.append("clean row has zero accuracy or a nonzero delta")
        return out
    for row in rows:
        acc, seg = float(row["utterance_accuracy"]), float(row["segment_accuracy"])
        if not (0.0 <= acc <= 1.0 and 0.0 <= seg <= 1.0):
            errors.append(f"{row['condition']} {row['snr_db']}: accuracy out of [0, 1]")
        if row["clean_utterance_accuracy"] != rows[0]["utterance_accuracy"]:
            errors.append(f"{row['condition']} {row['snr_db']}: clean accuracy differs from the clean row")
        if row is rows[0]:
            continue
        # each accuracy is printed to 6 decimals (error <= 5e-7); allow what that rounding
        # can move the delta 100 * (c - x) / c, plus the delta's own rounding
        tolerance = 100.0 * 5e-7 * (1.0 / clean + acc / clean**2) + 5e-7 + 1e-9
        if abs(accuracy_delta(clean, acc) - float(row["delta_percent"])) > tolerance:
            errors.append(f"{row['condition']} {row['snr_db']}: delta_percent does not match accuracy_delta")
    if clean <= 1.0 / 7.0:
        out["train_errors"].append(f"clean accuracy {clean} is at chance (1/7): the model did not learn")
    noisy = [float(r["utterance_accuracy"]) for r in rows[1:]]
    out["accuracy"] = {
        "clean_accuracy": clean,
        "noisy_accuracy": statistics.fmean(noisy) if noisy else clean,
        "segment_accuracy": statistics.fmean(float(r["segment_accuracy"]) for r in rows),
    }
    return out


def run_cycle(runner: StageRunner, work: Path, n_conditions: int) -> dict | None:
    """prepare x SETUP_REPEATS, train, evaluate; None if a stage exited non-zero."""
    shutil.rmtree(work, ignore_errors=True)
    first = len(runner.invocations)
    for stage in ["prepare"] * SETUP_REPEATS + ["train", "evaluate"]:
        if runner.run(stage)["exit_code"] != 0:
            return None
    stages = runner.invocations[first:]
    train, evaluate = stages[-2], stages[-1]
    checks = check_outputs(work, n_conditions)
    train["check_errors"] += checks["train_errors"]
    evaluate["check_errors"] += checks["evaluate_errors"]
    report_ns = (work / "report.csv").stat().st_mtime_ns if (work / "report.csv").exists() else 0
    return {
        "stages": stages,
        "checks": checks,
        "setup_s": [s["wall_s"] for s in stages[:SETUP_REPEATS]],
        "train_s": train["wall_s"],
        "evaluate_s": evaluate["wall_s"],
        "run_s": (report_ns - stages[SETUP_REPEATS - 1]["start_ns"]) / 1e9,
        "peak_rss_mb": max(s["rss_mb"] for s in stages),
    }


def load_spans(stages) -> tuple[list[dict], set[str]]:
    spans, absent = [], set()
    for pid, stage in enumerate(stages):
        with open(stage["spans"]) as fh:
            blob = json.load(fh)
        absent.update(blob["absent"])
        for span in blob["spans"]:
            span["pid"] = pid
            spans.append(span)
    return spans, absent


def check_hashes(cycles, record_key: str) -> None:
    """Every cycle, and every earlier run recorded under record_key, must agree."""
    record_file = WORK / "hashes.json"
    known = json.loads(record_file.read_text()) if record_file.exists() else {}
    reference = known.get(record_key)
    for cycle in cycles:
        got = {k: cycle["checks"].get(k) for k in ("model_sha256", "report_sha256")}
        if reference is None and None not in got.values():
            reference = got
        for key, stage in (("model_sha256", -2), ("report_sha256", -1)):
            if reference is not None and got[key] != reference[key]:
                cycle["stages"][stage]["check_errors"].append(
                    f"{key} {got[key]} differs from {reference[key]} of an earlier cycle or run")
    if reference is not None and record_key not in known:
        known[record_key] = reference
        tmp = record_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, record_file)


def end_to_end(cycles) -> dict[str, list[float]]:
    first = cycles[0]["checks"]["accuracy"] or {}
    samples = {
        "setup_s": [t for c in cycles for t in c["setup_s"]],
        "train_s": [c["train_s"] for c in cycles],
        "evaluate_s": [c["evaluate_s"] for c in cycles],
        "run_s": [c["run_s"] for c in cycles],
        "peak_rss_mb": [c["peak_rss_mb"] for c in cycles],
    }
    for name, value in first.items():
        samples[name] = [value]
    return samples


def per_layer(cycles, dgemm: float) -> tuple[dict[str, list[float]], list[str]]:
    samples: dict[str, list[float]] = {}
    absent: set[str] = set()
    for cycle in cycles:
        spans, missing = load_spans(cycle["stages"])
        absent |= missing
        walls = {}
        for stage in cycle["stages"]:
            walls.setdefault(TOP_SPANS[stage["stage"]], []).append(stage["wall_s"])
        figures = layer_metrics(spans, walls, dgemm)
        figures["trace.run_s"] = cycle["run_s"]
        for name, value in figures.items():
            samples.setdefault(name, []).append(value)
    return samples, sorted(absent)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emonoise" / "cli.py").is_file():
        print(f"error: no emonoise sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        deadline = t0 + RUN_DEADLINE_S
        clean_dir, noise_dir = generate(workload, args.seed, run_dir / "corpus")
        work = run_dir / "work"
        ini = run_dir / "workload.ini"
        ini.write_text(config_text(workload, clean_dir, noise_dir, work))
        spans_dir = None
        if args.trace:
            spans_dir = run_dir / "spans"
            spans_dir.mkdir()
        runner = StageRunner(ini, run_dir / "stages.log", spans_dir, deadline)
        machine = machine_record()
        # untimed: the first interpreter in a fresh checkout compiles the sources
        runner.run("prepare")
        bench_setup_s = time.perf_counter() - t0

        cycles = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            cycle = run_cycle(runner, work, workload.n_conditions)
            if cycle is None:
                break
            cycles.append(cycle)
            now = time.perf_counter()
            if now - start + (now - began) > args.seconds:
                break
        if cycles:
            check_hashes(cycles, f"{workload.name}:{args.seed}:{code_fingerprint()}")
        if not args.trace or not cycles:
            samples, absent = (end_to_end(cycles) if cycles else {}), []
        else:
            samples, absent = per_layer(cycles, machine["dgemm_gflops"])
        attempted, failed = count_failures(runner.invocations)
        failures = [f"{inv['stage']}: exit {inv['exit_code']}" if inv["exit_code"] else
                    f"{inv['stage']}: {'; '.join(inv['check_errors'])}"
                    for inv in runner.invocations if inv["exit_code"] or inv["check_errors"]]
        if failures:
            log_tail = (run_dir / "stages.log").read_text(errors="replace")[-3000:]
            print("\n".join(failures) + "\n--- stage log tail ---\n" + log_tail, file=sys.stderr)
        hashes = {k: cycles[0]["checks"].get(k) for k in ("model_sha256", "report_sha256")} \
            if cycles else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing, extra = set(units) - set(samples), set(samples) - set(units)
    if missing or extra:
        print(f"error: metrics {sorted(missing)} missing, {sorted(extra)} undeclared",
              file=sys.stderr)
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "cycles": len(cycles), "benchmark_setup_s": bench_setup_s,
        "machine": machine, "hashes": hashes, "absent": absent,
        "samples": {name: summarize(values) for name, values in samples.items()},
    }
    result = {
        "correct": failed == 0 and bool(cycles) and not (missing or extra),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, unit in units.items() if name in samples},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
