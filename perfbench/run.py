#!/usr/bin/env python3
"""The repository benchmark: four workloads on two clocks.

Run from the repository root::

    python3 perfbench/run.py --workload session-storm --seed 0 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
from untraced repetitions; ``--trace 1`` runs untraced and layer-traced
repetitions side by side and reports the per-layer metrics. Both print
a human-readable report and end with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Wall figures are scaled to a reference host speed, measured by a
calibration walk timed during every repetition, because neighbours on a
shared host slow the simulator down for minutes at a time.

The process exits 1 when any output is wrong or any modelled number
fails to repeat, and 2 when the package source is missing. See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Chrome traces of traced runs land here (ignored by git).
OUT = HERE / "out"

#: Cold processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 2
PROBE_TIMEOUT_S = 120
#: Entries of the calibration walk's table: about 10 MiB of int objects.
CALIBRATION_ENTRIES = 300_000
#: Entries one calibration sample visits, in a fixed random order, so the
#: walk waits on caches and memory as the simulator does.
CALIBRATION_VISITS = 25_000
#: The calibration walk's wall time on the uncontended host the benchmark
#: was defined on (a shared 2-vCPU Intel Xeon virtual machine). Rates are
#: scaled to a host that walks this fast.
CALIBRATION_REF_S = 0.006
#: Wall seconds between two calibration samples within a repetition.
CALIBRATION_PERIOD_S = 0.2

WORKLOADS = ("steady-sharing", "session-storm", "elastic-churn",
             "train-lenet")

#: The end-to-end metrics of the workload definitions, by workload.
#: Those not on every workload are printed in the report and carried
#: in the traced run's metrics (see README.md, "Metric names").
REPORT_METRICS = (
    ("setup_s", "s", WORKLOADS),
    ("sim_instr_per_s", "instr/s", ("steady-sharing", "train-lenet")),
    ("sessions_per_s", "sessions/s", ("session-storm", "elastic-churn")),
    ("peak_rss_mb", "MiB", WORKLOADS),
    ("modelled_host_mcycles", "Mcycles", WORKLOADS),
    ("latency_p50_mcycles", "Mcycles", ("session-storm",)),
    ("latency_tail_mcycles", "Mcycles", ("session-storm",)),
    ("goodput_per_mcycle", "1/Mcycle", ("session-storm",)),
    ("overhead_vs_native", "ratio", ("train-lenet",)),
    ("failed_share", "ratio", WORKLOADS),
)

UNIT_OF_WORK = {
    "steady-sharing": "tenant iterations",
    "session-storm": "sessions",
    "elastic-churn": "arrivals",
    "train-lenet": "training batches",
}

#: Paper Fig. 8 bitwise band (total overhead over native, training).
PAPER_BITWISE_BAND = (1.059, 1.12)
#: lenet training, bitwise over native, as EXPERIMENTS.md records it.
EXPERIMENTS_LENET = 1.079


def _load_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}; run from a "
              "full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print(f"error: {path} not found", file=sys.stderr)
        sys.exit(2)
    return json.loads(path.read_text())


def _quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0.0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


# -- set-up time -----------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, set up, print the monotonic clock."""
    from cases import CASES

    case = CASES[workload]
    (case.probe or case.setup)(seed)
    print(time.monotonic_ns())


def measure_setup(workload: str, seed: int):
    """Seconds from spawning a cold process to its first timed
    operation (interpreter start, imports, device/server, attach,
    deploy or model build), once per probe. Returns the seconds scaled
    to the reference host by the calibration walk timed just before and
    after each probe, and the unscaled seconds."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = calibration_s()
        spawned = time.monotonic_ns()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{child.stderr}")
        ready = int(child.stdout.split()[-1])
        slowdown = (before + calibration_s()) / (2 * CALIBRATION_REF_S)
        raw.append((ready - spawned) / 1e9)
        scaled.append(raw[-1] / slowdown)
    return scaled, raw


# -- repetitions -----------------------------------------------------------------

def one_rep(case, seed: int, tracer=None):
    """Set up and run once."""
    # Start every repetition from a collected heap, so one repetition's
    # garbage is not collected on the next one's clock.
    gc.collect()
    if tracer is None:
        return case.run(case.setup(seed))
    with tracer:
        return case.run(case.setup(seed))


@functools.cache
def _calibration_table() -> tuple[list[int], list[int]]:
    rng = random.Random(0)
    values = [rng.randrange(1 << 40) for _ in range(CALIBRATION_ENTRIES)]
    return values, rng.sample(range(CALIBRATION_ENTRIES), CALIBRATION_VISITS)


def calibration_s() -> float:
    """Wall time of a fixed walk over a table the benchmark builds once.
    Neighbours on a shared host slow the simulator down by up to 2x for
    seconds at a time, mostly through caches and memory; the walk slows
    down with it. No change to the repository can move the walk."""
    values, order = _calibration_table()
    start = time.perf_counter()
    total = 0
    for index in order:
        total += values[index]
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep the run, its calibration walks and its set-up probes on one
    CPU: neighbours slow each virtual CPU differently, so a walk timed
    on another CPU says little about this one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrated_rep(case, seed: int):
    """One untraced repetition with the calibration walk timed at its
    start, every CALIBRATION_PERIOD_S from a timer signal, and at its
    end. Returns (outcome, units of work per second scaled to the
    reference host, mean host slowdown against the reference)."""
    samples = [calibration_s()]
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: samples.append(calibration_s()))
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                     CALIBRATION_PERIOD_S)
    try:
        outcome = one_rep(case, seed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(calibration_s())
    slowdown = statistics.fmean(samples) / CALIBRATION_REF_S
    return outcome, outcome.attempted / outcome.wall_s * slowdown, slowdown


def repeat_until(deadline: float, body, min_reps: int = MIN_REPS) -> int:
    """Call ``body()`` at least ``min_reps`` times, then while a typical
    repetition still fits before ``deadline``."""
    durations: list[float] = []
    while True:
        started = time.perf_counter()
        body()
        durations.append(time.perf_counter() - started)
        typical = statistics.median(durations)
        if (len(durations) >= min_reps
                and time.perf_counter() + typical > deadline):
            return len(durations)


def modelled_mismatches(reference, outcome, label: str) -> list[str]:
    if outcome.modelled == reference.modelled:
        return []
    return [f"modelled numbers differ in the {label} repetition: "
            f"{outcome.modelled} != {reference.modelled}"]


# -- reports ---------------------------------------------------------------------

def fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:,.0f}"


def report_end_to_end(workload, seed, reps, setup, raw_setup, units,
                      raw_units, slowdowns, rss, instructions, reference,
                      attempted, failed):
    modelled = reference.modelled
    median_units = statistics.median(units)
    values = {
        "setup_s": statistics.median(setup),
        "sim_instr_per_s": median_units * instructions
        / reference.attempted,
        "sessions_per_s": median_units,
        "units_per_s": median_units,
        "peak_rss_mb": rss,
        "failed_share": failed / attempted,
        **modelled,
    }
    print(f"workload {workload}  seed {seed}  {reps} timed repetitions  "
          f"(unit of work: {UNIT_OF_WORK[workload]})")
    print(f"  units_per_s            {fmt(median_units)} 1/s  (median; "
          f"quartile spread {_quartile_spread(units):.3f}; unscaled "
          f"{fmt(statistics.median(raw_units))} 1/s at a median host "
          f"slowdown of {statistics.median(slowdowns):.3f})")
    for name, unit, applies in REPORT_METRICS:
        if workload not in applies:
            print(f"  {name:<22} n/a")
            continue
        line = f"  {name:<22} {fmt(values[name])} {unit}"
        if name == "setup_s":
            line += (f"  (median of {len(setup)} cold processes; unscaled "
                     f"{fmt(statistics.median(raw_setup))} s)")
        elif name == "latency_tail_mcycles":
            line += (f"  (p{modelled['latency_tail_percentile']:.2f} of "
                     f"{modelled['latency_samples']:.0f} sessions)")
        elif name == "overhead_vs_native":
            low, high = PAPER_BITWISE_BAND
            line += (f"  (paper Fig. 8 bitwise band {low}-{high}x; "
                     f"EXPERIMENTS.md {EXPERIMENTS_LENET}x; the model is "
                     "checked against the paper's published ratios only, "
                     "not against hardware)")
        elif name == "failed_share":
            line += f"  ({failed} of {attempted})"
        print(line)
    if workload == "session-storm":
        print("  generator lateness      0 by construction: arrival "
              "instants are virtual and precomputed")
    return values


def report_layers(workload, seed, case, layers, trace_path, overheads,
                  spans_kept, top):
    print(f"workload {workload}  seed {seed}  traced: per-layer wall time "
          f"(mean over {len(overheads)} traced repetitions)")
    ranked = sorted(
        (name for name in layers if name.endswith(".self_ms")),
        key=lambda name: -layers[name],
    )
    for name in ranked:
        layer = name.split(".")[0]
        extras = "  ".join(
            f"{key.split('.', 1)[1]}={fmt(value)}"
            for key, value in sorted(layers.items())
            if key.startswith(layer + ".") and key != name
        )
        print(f"  {layer:<13} self {layers[name]:10.2f} ms  {extras}")
    top_names = [layer for layer, _ in top]
    shares = ", ".join(f"{layer} {share:.0%}" for layer, share in top)
    outside = [layer for layer in top_names if layer not in case.loads]
    verdict = ("match" if not outside else
               f"MISMATCH: {', '.join(outside)} not among the layers this "
               "workload is meant to load")
    print(f"  top self time: {shares}; expected among "
          f"{sorted(case.loads)}: {verdict}")
    print(f"  trace_overhead {fmt(statistics.median(overheads))} "
          f"(traced wall / untraced wall, median)")
    print(f"  spans: {spans_kept} written to {trace_path}")


# -- the two kinds of run --------------------------------------------------------

def run_untraced(workload: str, seed: int, seconds: float):
    from cases import CASES
    from layertrace import LaunchCounter

    case = CASES[workload]
    setup, raw_setup = measure_setup(workload, seed)
    # Untimed warm-up: fills lazy state and counts instructions.
    with LaunchCounter() as counter:
        reference = one_rep(case, seed)
    errors = list(reference.errors)
    outcomes, units, slowdowns = [], [], []

    def body():
        outcome, rate, slowdown = calibrated_rep(case, seed)
        outcomes.append(outcome)
        units.append(rate)
        slowdowns.append(slowdown)
        errors.extend(outcome.errors)
        errors.extend(modelled_mismatches(reference, outcome, "timed"))

    reps = repeat_until(time.perf_counter() + seconds, body)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_units = [o.attempted / o.wall_s for o in outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    values = report_end_to_end(workload, seed, reps, setup, raw_setup, units,
                               raw_units,
                               slowdowns, rss, counter.instructions,
                               reference, attempted, failed)
    return errors, attempted, failed, values


def run_traced(workload: str, seed: int, seconds: float):
    from cases import CASES
    from layertrace import LayerTracer

    case = CASES[workload]
    # Untimed warm-up; its modelled numbers are the reference.
    reference = one_rep(case, seed)
    errors = list(reference.errors)
    mismatches: list[str] = []
    overheads, per_rep, untraced_units, outcomes = [], [], [], []
    tracers: list = []

    def body():
        plain, rate, _ = calibrated_rep(case, seed)
        tracer = LayerTracer()
        traced = one_rep(case, seed, tracer)
        for outcome, label in ((plain, "untraced"), (traced, "traced")):
            errors.extend(outcome.errors)
            mismatches.extend(modelled_mismatches(reference, outcome, label))
        outcomes.extend((plain, traced))
        overheads.append(traced.wall_s / plain.wall_s)
        untraced_units.append(rate)
        per_rep.append(tracer.metrics())
        if not tracers:  # the first tracer's spans are written out
            tracers.append(tracer)

    repeat_until(time.perf_counter() + seconds, body, min_reps=1)
    errors += mismatches
    layers = {key: statistics.fmean(m[key] for m in per_rep)
              for key in per_rep[0]}
    tracer = tracers[0]
    trace_path = tracer.write_chrome_trace(
        OUT / f"trace-{workload}.json",
        {"workload": workload, "seed": seed},
    )
    report_layers(workload, seed, case, layers, trace_path.relative_to(ROOT),
                  overheads, len(tracer.spans), tracer.top_layers())

    modelled = reference.modelled
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    layers["trace_overhead"] = statistics.median(overheads)
    layers["sim_instr_per_s"] = (statistics.median(untraced_units)
                                 * layers["executor.instructions"]
                                 / reference.attempted)
    layers["failed_share"] = failed / attempted
    for name in ("latency_p50_mcycles", "latency_tail_mcycles",
                 "goodput_per_mcycle", "overhead_vs_native"):
        layers[name] = modelled.get(name, 0.0)
    print("  modelled numbers identical traced and untraced: "
          f"{'NO' if mismatches else 'yes'}")
    return errors, attempted, failed, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        worst = 0
        for workload in WORKLOADS:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT,
            )
            worst = max(worst, child.returncode)
        return worst

    _load_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = _load_spec()
    pin_to_one_cpu()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    runner = run_traced if args.trace else run_untraced
    errors, attempted, failed, values = runner(args.workload, args.seed,
                                               args.seconds)
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
