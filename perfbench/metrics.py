"""Turning stage timings and trace spans into the benchmark's metrics."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# Percentiles tried for a timing's tail, highest first. The tail reported is
# the highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """ceil(pct/100 * n), rounded first so 99.9% of 10000 is 9990, not 9991."""
    return math.ceil(round(pct * n / 100.0, 9))


def nearest_rank(values, pct: float) -> float:
    """The sample at rank ceil(pct/100 * n) of the sorted values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, _rank(pct, len(ordered))) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples beyond it."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_BEYOND:
            return pct
    return None


def summarize(values) -> dict:
    """Median, tail percentile and value (median when none qualifies), and count."""
    values = list(values)
    pct = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "tail_pct": pct if pct is not None else 50.0,
        "tail": nearest_rank(values, pct if pct is not None else 50.0),
        "n": len(values),
    }


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children) -> float:
    """Span duration minus the part of it covered by its children's intervals."""
    covered = 0.0
    reach = span["start"]
    for start, end in sorted((c["start"], c["end"]) for c in children):
        start, end = max(start, reach), min(end, span["end"])
        if end > start:
            covered += end - start
            reach = end
    return duration(span) - covered


def count_failures(invocations) -> tuple[int, int]:
    """(attempted, failed) over stage invocations; a failed check fails its stage."""
    attempted = len(invocations)
    failed = sum(1 for inv in invocations if inv["exit_code"] != 0 or inv["check_errors"])
    return attempted, failed


def _by_name(spans):
    grouped = defaultdict(list)
    for span in spans:
        grouped[span["name"]].append(span)
    return grouped


def _total(spans) -> float:
    return sum(duration(s) for s in spans)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, stage_walls: dict, dgemm_gflops: float) -> dict:
    """Per-layer figures for one traced cycle.

    ``spans`` are every span the cycle's stage processes recorded, ``stage_walls``
    maps each stage's top-level span name to the stage processes' wall times.
    A name with no spans (absent, or not called on this workload) reads 0.
    """
    by = _by_name(spans)
    children = defaultdict(list)
    for group in by.values():
        for span in group:
            if span["parent"] is not None:
                children[(span["pid"], span["parent"])].append(span)

    def self_total(name):
        return sum(self_time(s, children[(s["pid"], s["id"])]) for s in by[name])

    def ms(name, pct):
        return 1e3 * nearest_rank([duration(s) for s in by[name]], pct) if by[name] else 0.0

    def tail_ms(name):
        pct = tail_percentile(len(by[name]))
        return ms(name, pct if pct is not None else 50.0)

    m = {}
    for name in ("pipeline.train_model", "pipeline.evaluate_experiment"):
        m[f"{name}.s"] = _total(by[name])
        m[f"{name}.self_s"] = self_total(name)
    m["pipeline.evaluate.calls"] = len(by["pipeline.evaluate"])
    m["pipeline.evaluate.p50_s"] = ms("pipeline.evaluate", 50.0) / 1e3
    m["pipeline.evaluate.tail_s"] = tail_ms("pipeline.evaluate") / 1e3
    noise = by["pipeline.load_noise"]
    m["pipeline.load_noise.calls"] = len(noise)
    m["pipeline.load_noise.s"] = _total(noise)
    m["pipeline.load_noise.useful_ratio"] = _ratio(len({s.get("category") for s in noise}), len(noise))

    resample = by["audio.resample"]
    out_samples = sum(s.get("out_samples", 0) for s in resample)
    m["audio.resample.calls"] = len(resample)
    m["audio.resample.s"] = _total(resample)
    m["audio.resample.out_samples"] = out_samples
    m["audio.resample.ns_per_out_sample"] = _ratio(_total(resample), out_samples, 1e9)
    for name in ("audio.read_wav", "audio.mix_at_snr"):
        m[f"{name}.calls"] = len(by[name])
        m[f"{name}.s"] = _total(by[name])

    mfcc = by["dsp.mfcc"]
    frames = sum(s.get("frames", 0) for s in mfcc)
    m["dsp.mfcc.calls"] = len(mfcc)
    m["dsp.mfcc.s"] = _total(mfcc)
    m["dsp.mfcc.frames"] = frames
    m["dsp.mfcc.us_per_frame"] = _ratio(_total(mfcc), frames, 1e6)
    m["dsp.mfcc.p50_ms"] = ms("dsp.mfcc", 50.0)
    m["dsp.mfcc.p99_ms"] = ms("dsp.mfcc", 99.0)
    m["dsp.mfcc.tail_ms"] = tail_ms("dsp.mfcc")
    m["dsp.segment_features.s"] = _total(by["dsp.segment_features"])
    m["dsp.segment_features.segments"] = sum(s.get("segments", 0) for s in by["dsp.segment_features"])

    m["dbn.pretrain_dbn.s"] = _total(by["dbn.pretrain_dbn"])
    rbm_spans = sorted(by["dbn.train_rbm"], key=lambda s: s["start"])
    for layer in range(3):
        span = rbm_spans[layer] if layer < len(rbm_spans) else None
        seconds = duration(span) if span else 0.0
        gflop = 0.0
        if span and "n" in span:
            # CD-k per epoch: 2 GEMMs for p0, 2k for the chain, 2 for the statistics
            flop_per_epoch = 2 * (2 * span["cd_steps"] + 3) * span["n"] * span["v"] * span["h"]
            gflop = flop_per_epoch * span["epochs"] / 1e9
        m[f"dbn.train_rbm.L{layer}.s"] = seconds
        m[f"dbn.train_rbm.L{layer}.gflop"] = gflop
        m[f"dbn.train_rbm.L{layer}.gflops"] = _ratio(gflop, seconds)
    m["dbn.cd_update.calls"] = len(by["dbn.cd_update"])
    m["dbn.cd_update.p50_ms"] = ms("dbn.cd_update", 50.0)
    m["dbn.cd_update.tail_ms"] = tail_ms("dbn.cd_update")
    tune = by["dbn.fine_tune"]
    tune_s = _total(tune)
    # forward, backward to activations and to weights: 3 GEMMs of 2*N*V*H each
    tune_gflop = sum(6 * s["n"] * s["sum_vh"] * s["epochs"] for s in tune if "n" in s) / 1e9
    m["dbn.fine_tune.s"] = tune_s
    m["dbn.fine_tune.gflop"] = tune_gflop
    m["dbn.fine_tune.gflops"] = _ratio(tune_gflop, tune_s)
    fwd = by["dbn.forward"]
    rows = sum(s.get("rows", 0) for s in fwd)
    m["dbn.forward.calls"] = len(fwd)
    m["dbn.forward.rows"] = rows
    m["dbn.forward.us_per_row"] = _ratio(_total(fwd), rows, 1e6)
    m["dbn.save_model.s"] = _total(by["dbn.save_model"])
    m["dbn.load_model.s"] = _total(by["dbn.load_model"])

    overheads = []
    for top, walls in stage_walls.items():
        tops = sorted(by[top], key=lambda s: s["start"])
        overheads += [wall - duration(span) for wall, span in zip(walls, tops)]
    m["cli.stage_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    m["machine.dgemm_gflops"] = dgemm_gflops
    return m
