"""Run one cfraj benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ref-decay --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout; it imports cfraj from ``src``. Each
workload runs in its own process, with no worker pools and numpy's thread
pools capped at nproc. Set-up is timed in fresh interpreters. The
workload's fixed work then repeats in rounds while another round fits in
``--seconds`` (at least one round); every output is checked. Set-up and
round times are scaled to a reference host speed by calibration kernels
timed alongside them (see hostspeed.py); their wall times are reported too.

With ``--trace 0`` the last line of stdout is the end-to-end result named in
BENCHMARK.json. With ``--trace 1`` rounds alternate untraced and traced,
probes time the public functions other calls run internally, the result
holds the per-layer metrics, and the spans are written to ``.perfbench/``.
The line before the result records the versions, nproc and
CFRAJ_DIGIT_BUDGET. Exit status: 0 when every exact or certified check
passed, 1 when one failed, 2 when the checkout lacks the cfraj sources.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checker import Tally
from hostspeed import SpeedSampler
from spans import NULL, PROBE, Tracer, layer_stats

HERE = Path(__file__).resolve().parent
SRC = Path("src").resolve()
TRACE_DIR = Path(".perfbench")
WORKLOADS = {
    "ref-decay": "ref_decay",
    "cascade-mc": "cascade_mc",
    "lemma-sweep": "lemma_sweep",
    "words-sweep": "words_sweep",
}
SETUP_MIN_REPEATS = 9
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 4.0
SAMPLE_INTERVAL_S = 0.1
SETUP_TIMEOUT_S = 120
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass
class Round:
    traced: bool
    seconds: float  # at the reference host speed; wall time when traced
    wall_s: float
    kernel_s: float | None
    tally: Tally


def prepare_environment() -> dict:
    """Fix the process environment for the run and describe it."""
    inherited_budget = os.environ.pop("CFRAJ_DIGIT_BUDGET", None)
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": NPROC,
        "CFRAJ_DIGIT_BUDGET": os.environ.get("CFRAJ_DIGIT_BUDGET"),
        "CFRAJ_DIGIT_BUDGET_inherited": inherited_budget,
    }


def time_setup(module: str, seed: int) -> dict:
    """One set-up in a fresh interpreter: imports plus measures."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py"), module, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def time_setups(module: str, seed: int) -> list[dict]:
    """Fresh-interpreter set-ups until enough were timed."""
    setups: list[dict] = []
    started = time.perf_counter()
    while len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_MIN_REPEATS
            or time.perf_counter() - started < SETUP_MIN_SECONDS):
        setups.append(time_setup(module, seed))
    return setups


def run_round(workload, state, tracer, traced: bool) -> Round:
    """One round of the fixed work: spans when traced, else host-speed
    samples."""
    tally = Tally()
    gc.collect()
    if traced:
        t0 = time.perf_counter()
        with tracer.span("perfbench.round"):
            workload.run(state, tracer, tally)
        wall = time.perf_counter() - t0
        return Round(True, wall, wall, None, tally)
    with SpeedSampler(SAMPLE_INTERVAL_S) as speed:
        workload.run(state, NULL, tally)
    return Round(False, speed.scaled(speed.wall_s), speed.wall_s,
                 speed.kernel_s, tally)


def run_rounds(workload, state, seconds: float, trace: bool,
               run_id: str) -> tuple[list[Round], Tracer]:
    tracer = Tracer(run_id)
    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        tracer.run_id = f"{run_id}/round{len(rounds)}"
        rounds.append(run_round(workload, state, tracer, traced))
        typical = statistics.median(r.wall_s for r in rounds)
        elapsed = time.perf_counter() - started
        if len(rounds) >= (2 if trace else 1) and elapsed + typical > seconds:
            return rounds, tracer


def setup_layers(setups: list[dict]) -> dict:
    """Medians over the fresh-interpreter set-ups."""
    per_run = [layer_stats(s["spans"], 1) for s in setups]
    names = {k for stats in per_run for k in stats}
    out = {k: statistics.median(stats.get(k, 0.0) for stats in per_run)
           for k in names}
    out["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    out["host.wall_setup_s"] = statistics.median(
        s["wall_setup_s"] for s in setups)
    out["host.page_touch_ms"] = 1e3 * statistics.median(
        s["page_touch_s"] for s in setups)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cfraj" / "__init__.py").is_file():
        print(f"perfbench: no cfraj sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    environment = prepare_environment()
    module = WORKLOADS[args.workload]
    trace = bool(args.trace)

    setups = time_setups(module, args.seed)
    workload = importlib.import_module(module)
    setup_tally = Tally()
    state = workload.setup(args.seed, NULL, setup_tally)
    run_id = f"{args.workload}/seed{args.seed}/pid{os.getpid()}"
    rounds, tracer = run_rounds(workload, state, args.seconds, trace, run_id)

    # every round repeats the same seeded work
    same_work = Tally()
    same_work.check(all(r.tally.counts == rounds[0].tally.counts
                        for r in rounds), "rounds disagree on work counts")
    tallies = [setup_tally, same_work] + [r.tally for r in rounds]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    counts = rounds[0].tally.counts
    untraced = [r for r in rounds if not r.traced]

    if trace:
        tracer.run_id = f"{run_id}/{PROBE}"
        probe_tally = Tally()
        if hasattr(workload, "probe"):
            workload.probe(state, tracer, probe_tally)
        traced = [r.seconds for r in rounds if r.traced]
        values = setup_layers(setups)
        values.update(layer_stats(tracer.spans, len(traced)))
        values.update(counts)
        values.update(probe_tally.counts)
        values["trace.run_s"] = statistics.median(traced)
        values["trace.untraced_run_s"] = statistics.median(
            r.wall_s for r in untraced)
        values["host.kernel_ms"] = 1e3 * statistics.median(
            r.kernel_s for r in untraced)
        values["trace.overhead_s"] = (values["trace.run_s"]
                                      - values["trace.untraced_run_s"])
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "run_s": statistics.median(r.seconds for r in untraced),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_frac": (attempted - failed) / attempted,
            # a workload without cylinder decay rows has none uncertified
            "certified_frac": (counts["certified_result_rows"]
                               / counts["result_rows"]
                               if counts["result_rows"] else 1.0),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}

    messages = [m for t in tallies for m in t.messages]
    for message in messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "trace": trace,
              "round_s": [r.seconds for r in rounds],
              "round_wall_s": [r.wall_s for r in rounds],
              "round_kernel_s": [r.kernel_s for r in rounds],
              "round_traced": [r.traced for r in rounds],
              "setup_s": [s["setup_s"] for s in setups],
              "setup_wall_s": [s["wall_setup_s"] for s in setups],
              "setup_page_touch_s": [s["page_touch_s"] for s in setups],
              "environment": environment, "failures": messages}
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({**report, "setup_spans": [s["spans"] for s in setups],
                       "spans": tracer.spans, "layers": values}, fh)
        report["trace_file"] = str(path)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
