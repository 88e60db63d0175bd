"""Leaf passes on every core: same bits at any worker count and leaf size."""

import sys
import threading
import time
from fractions import Fraction

import pytest

from cfraj import blocks, fourier, pool
from cfraj.blocks import build_nu, frostman_scan
from cfraj.fourier import decay_scan

from test_fourier import NU_PIN_XIS, nu_two_digit


@pytest.fixture
def workers(request, monkeypatch):
    """request.param threads take items, on a fresh pool that is shut
    down afterwards; threads switch often, to shake out ordering."""
    monkeypatch.setattr(pool, "_WORKERS", request.param)
    monkeypatch.setattr(pool, "_executor", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)
        if pool._executor is not None:
            pool._executor.shutdown(wait=True)


def outputs() -> list:
    """Bytes of every result a leaf pass feeds: scan rows (float,
    squared, exact, negative and zero), cylinder atoms, Frostman scans
    of a p = 2 measure (every level ascending) and of a p = 1 measure
    (every other level reversed)."""
    nu, depth = nu_two_digit(), 12
    rows = decay_scan(nu, NU_PIN_XIS, "cylinder", depth).rows
    out = [(r.full.value.real.hex(), r.full.value.imag.hex(),
            r.full.err_bound.hex()) for r in rows]
    atoms = fourier._atoms(nu, depth)
    out += [atoms.float_mids(0, len(atoms)).tobytes(), atoms.mass_width.hex(),
            atoms.mid_steps]
    scan = frostman_scan(build_nu(3, 2, None, Fraction(3, 10),
                                  sigma_anchor=(5, 1)),
                         6, [2.0**-k for k in range(2, 14)])
    out += [[w.hex() for w in scan.omega], scan.fitted_exponent.hex()]
    scan = frostman_scan(nu, depth, [2.0**-k for k in range(2, 30, 2)])
    out += [[w.hex() for w in scan.omega], scan.fitted_exponent.hex()]
    return out


@pytest.fixture(scope="module")
def sequential():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "_WORKERS", 1)
        return outputs()


@pytest.mark.parametrize("workers", [1, 2, 5], indirect=True)
@pytest.mark.parametrize("leaf", [7, 64, 1000])
def test_results_do_not_depend_on_the_worker_count(monkeypatch, sequential,
                                                   workers, leaf):
    monkeypatch.setattr(fourier, "_LEAF", leaf)
    monkeypatch.setattr(blocks, "_STREAM_CHUNK", leaf)
    assert outputs() == sequential


@pytest.mark.parametrize("workers", [2, 5], indirect=True)
def test_first_error_in_item_order_surfaces(workers):
    five_raised = threading.Event()
    started = []

    def fn(k):
        started.append(k)
        if k == 2:
            # leaf 5 raises first; leaf 2's error must still win
            assert five_raised.wait(timeout=10)
            raise ValueError("leaf 2")
        if k == 5:
            five_raised.set()
            raise ValueError("leaf 5")
        time.sleep(0.005)
        return k * k

    with pytest.raises(ValueError, match="leaf 2"):
        pool.ordered_map(fn, range(100))
    assert five_raised.is_set()
    # no item starts after one has raised
    assert len(started) < 100
    assert pool.ordered_map(lambda k: k + 1, range(40)) == list(range(1, 41))
