"""Tests of the benchmark's own checker and span summary.

    python3 -m pytest perfbench -q

Run from the root of the repository.
"""

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cascade_mc  # noqa: E402
import hostspeed  # noqa: E402
import ref_decay  # noqa: E402
from cfraj.cascade import classify, sample_path  # noqa: E402
from cfraj.fourier import decay_scan  # noqa: E402
from checker import Tally  # noqa: E402
from spans import NULL, Tracer, layer_stats, self_times  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, None, "r/round1", 1],
        ["b", 1.0, 4.0, 0, "r/round1", 1],
        ["c", 2.0, 3.0, 1, "r/round1", 1],
        ["d", 5.0, 6.0, 0, "r/round1", 1],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_probe_spans_report_once_and_apart_from_direct_calls():
    spans = [
        ["f.g", 0.0, 2.0, None, "r/round1", 10],
        ["f.g", 2.0, 6.0, None, "r/round3", 10],
        ["f.g", 6.0, 7.0, None, "r/probe", 5],
        ["f.h", 7.0, 9.0, None, "r/probe", 1],
    ]
    stats = layer_stats(spans, rounds=2)
    assert stats["f.g.busy_s"] == 3.0
    assert stats["f.g.calls"] == 10
    assert stats["f.g.probe_s"] == 1.0
    assert stats["f.h.busy_s"] == 2.0
    assert "f.h.probe_s" not in stats


def test_monte_carlo_misses_are_not_failures():
    tally = Tally()
    tally.mc_check(False)
    tally.check(True, "exact")
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.counts["fourier.mc_bound_misses"] == 1


def test_perturbed_decay_row_is_a_failure():
    state = ref_decay.setup(0, NULL, Tally())
    table = decay_scan(state.nu, state.xis, "cylinder",
                       state.oracle["scan"]["depth"])
    clean = Tally()
    ref_decay.check_oracle_rows(clean, table, state.oracle)
    assert clean.attempted == len(table.rows) + 2 and clean.failed == 0

    rows = list(table.rows)
    full = rows[3].full
    rows[3] = dataclasses.replace(
        rows[3], full=dataclasses.replace(full, value=full.value * 1.001))
    perturbed = Tally()
    ref_decay.check_oracle_rows(
        perturbed, dataclasses.replace(table, rows=tuple(rows)), state.oracle)
    # the row and the slope fitted through it both leave the oracle
    assert perturbed.failed == 2
    assert "xi = 2^7" in perturbed.messages[0]


def test_wrong_cylinder_mass_is_a_failure():
    state = cascade_mc.setup(0, NULL, Tally())
    lm = state.a10
    path = sample_path(lm, cascade_mc.PATH_DEPTH, 5)
    walked = classify(lm, path)
    clean = Tally()
    cascade_mc.check_path(clean, lm, path, walked)
    assert (clean.attempted, clean.failed) == (1, 0)

    wrong = Tally()
    cascade_mc.check_path(wrong, lm, path,
                          dataclasses.replace(walked, mass=walked.mass * 2))
    assert wrong.failed == 1


def test_same_seed_gives_identical_counts():
    state = cascade_mc.setup(7, NULL, Tally())
    results = []
    for k in range(2):
        tracer = Tracer(f"t/round{k}")
        tally = Tally()
        cascade_mc.run(state, tracer, tally)
        results.append((dict(tally.counts), layer_stats(tracer.spans, 1)))
    (counts_a, layers_a), (counts_b, layers_b) = results
    for name in ("fourier.samples", "fourier.rows", "fourier.certified_rows"):
        assert counts_a[name] == counts_b[name] > 0
    assert layers_a["cascade.sample_path.calls"] == \
        layers_b["cascade.sample_path.calls"] == cascade_mc.PATHS


def test_speed_sampler_leaves_its_kernel_out_of_the_work_time():
    started = time.perf_counter()
    with hostspeed.SpeedSampler(0.01) as speed:
        while time.perf_counter() - started < 0.3:
            sum(range(1000))
    total = time.perf_counter() - started
    in_flight = len(speed.samples) - 2 * hostspeed.BURST
    assert in_flight >= 5 and speed.spent > 0
    # the bursts before and after the block are outside it
    assert 0 < speed.wall_s < total - speed.spent
    scale = hostspeed.REFERENCE_KERNEL_S / speed.kernel_s
    assert speed.scaled(2.0) == pytest.approx(2.0 * scale)


def test_incomplete_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip()
