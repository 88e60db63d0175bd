"""Check and work counters for one round of a workload.

Exact or certified checks (oracle matches, exact cascade masses, word
identities, lemma sweeps, conjugate symmetry) count as attempted and, when
they fail or raise, as failed. Monte Carlo statistical checks, whose bounds
an unlucky seed may miss, only count as ``fourier.mc_bound_misses``.
"""

from collections import Counter

MAX_MESSAGES = 20


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.counts: Counter = Counter()

    def check(self, ok: bool, what: str) -> None:
        self.check_many(1, 0 if ok else 1, what)

    def check_many(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{what} ({failed} of {attempted})")

    def mc_check(self, ok: bool) -> None:
        self.counts["fourier.mc_bound_misses"] += 0 if ok else 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


def record_scan(tally: Tally, table, points: int, *, result: bool) -> None:
    """Count a decay table's rows and phase evaluations.

    ``points`` is the number of cylinders (or samples) the scan evaluates at
    each frequency. Cylinder rows are certified when ``err_bound < |value|``;
    those of a ``result`` scan make up ``certified_frac``. Monte Carlo rows are
    left out of it, since their sampling stream may change.
    """
    rows = len(table.rows)
    tally.count("fourier.rows", rows)
    tally.count("fourier.phase_evals", points * rows)
    if table.method == "montecarlo":
        tally.count("fourier.samples", points)
        return
    certified = sum(r.full.err_bound < abs(r.full.value) for r in table.rows)
    tally.count("fourier.certified_rows", certified)
    if result:
        tally.count("result_rows", rows)
        tally.count("certified_result_rows", certified)
