"""Time one workload's set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_time.py <workload module> <seed>

Set-up is the import of the workload module, which imports the cfraj
modules it uses, and the building of its measures and inputs. Its times
are scaled to the reference host speed by ``page_touch`` timed before and
after it (see hostspeed.py); the wall time and the kernel time are printed
too. run.py starts this script several times, with ``src`` on PYTHONPATH,
and reports the medians.
"""

import importlib
import json
import sys
from time import perf_counter

from checker import Tally
from hostspeed import REFERENCE_PAGE_TOUCH_S, page_touch
from spans import Tracer


def main(argv: list[str]) -> None:
    name, seed = argv[1], int(argv[2])
    tracer = Tracer("setup")
    before = page_touch()
    started = perf_counter()
    workload = importlib.import_module(name)
    imported = perf_counter()
    workload.setup(seed, tracer, Tally())
    done = perf_counter()
    touch = (before + page_touch()) / 2
    scale = REFERENCE_PAGE_TOUCH_S / touch
    print(json.dumps({"import_s": scale * (imported - started),
                      "setup_s": scale * (done - started),
                      "wall_setup_s": done - started,
                      "page_touch_s": touch,
                      "spans": tracer.spans}))


if __name__ == "__main__":
    main(sys.argv)
