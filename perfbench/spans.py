"""In-memory spans around the benchmark's calls into cfraj, and their summary.

A span is one call, or one batch of calls, from the benchmark into a public
function of one cfraj module. Spans are named ``<module>.<function>`` and
kept as ``[name, start, end, parent, run_id, calls]`` lists; nothing is
written until the run ends. No span is placed inside ``src/``.
"""

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

PROBE = "probe"


class Tracer:
    """Records nested spans; ``run_id`` tags every span opened after it is set."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1):
        parent = self._open[-1] if self._open else None
        rec = [name, perf_counter(), None, parent, self.run_id, calls]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()


class NullTracer:
    """Stands in for a Tracer in untraced rounds; records nothing."""

    _null = nullcontext()

    def span(self, name: str, calls: int = 1):
        return self._null


NULL = NullTracer()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def layer_stats(spans: list[list], rounds: int) -> dict[str, float]:
    """``<span>.busy_s`` (self time), ``.calls``, ``.ms_p50``, ``.ms_p90``.

    Spans from traced rounds are averaged per round. Probe spans (run id
    ending in ``/probe``) ran once, outside the rounds, to time a public
    function that another public call runs internally: for a layer the
    rounds never call directly they give ``busy_s`` and ``calls``; for a
    layer the rounds also call they give ``probe_s``.
    """
    own = self_times(spans)
    per_name: dict[tuple[str, bool], list] = {}
    for rec, t in zip(spans, own):
        probe = rec[4].endswith("/" + PROBE)
        per_name.setdefault((rec[0], probe), []).append((t, rec[2] - rec[1], rec[5]))
    direct = {name for name, probe in per_name if not probe}
    out = {}
    for (name, probe), recs in per_name.items():
        busy = sum(t for t, _, _ in recs)
        calls = sum(n for _, _, n in recs)
        if probe and name in direct:
            out[f"{name}.probe_s"] = busy
            continue
        scale = 1 if probe else rounds
        out[f"{name}.busy_s"] = busy / scale
        out[f"{name}.calls"] = calls / scale
        ms = [1e3 * d / n for _, d, n in recs]
        out[f"{name}.ms_p50"] = statistics.median(ms)
        out[f"{name}.ms_p90"] = _p90(ms)
    return out
