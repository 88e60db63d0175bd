#!/usr/bin/env python3
"""Time the README's CLI examples, each in a fresh interpreter.

    python3 tools/readme_cli_times.py [--runs N]

The examples are the `cfraj ...` lines of the README's sh blocks, as the
tier-1 README test extracts them (tests/test_cli.py). Each runs N times
through the `cfraj` entry point, `cfraj.cli.main`, with this checkout's
`src` on PYTHONPATH and a new temporary directory as its working
directory. Prints JSON: per example, its argv, exit codes, and the median
wall time and median peak RSS of its runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
ENTRY = "import sys; from cfraj.cli import main; sys.exit(main(sys.argv[1:]))"
# A child's peak RSS counts its parent's at the fork, so this process
# loads neither cfraj nor the tests: a child lists the examples.
LIST = "import json; from test_cli import readme_commands; " \
       "print(json.dumps(readme_commands()))"


def run_timed(cmd: list[str], env: dict, cwd: str,
              stdout=subprocess.DEVNULL) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one fresh run of
    cmd, its stdout going to stdout. The peak is that of the largest
    process among the child and the descendants it waited for."""
    started = perf_counter()
    child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout,
                             stderr=subprocess.DEVNULL)
    # wait4 reaps the child and returns its own rusage
    _, status, usage = os.wait4(child.pid, 0)
    wall = perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux
    return child.returncode, wall, usage.ru_maxrss / 1024


def summary(runs: list[tuple[int, float, float]]) -> dict:
    """Exit codes, median wall time and median peak RSS of runs."""
    return {
        "exit_codes": sorted({code for code, _, _ in runs}),
        "wall_s": statistics.median(wall for _, wall, _ in runs),
        "peak_rss_mb": statistics.median(rss for _, _, rss in runs),
    }


def source_env() -> dict:
    """This environment with this checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def run_once(argv: list[str], env: dict) -> tuple[int, float, float]:
    """One fresh run of an example, in a new temporary directory."""
    with tempfile.TemporaryDirectory() as cwd:
        return run_timed([sys.executable, "-c", ENTRY, *argv], env, cwd)


def example_times(env: dict, runs: int) -> list[dict]:
    """Each README example's argv with the summary of that many fresh
    runs of it."""
    listed = subprocess.run(
        [sys.executable, "-c", LIST], cwd=ROOT / "tests", env=env,
        capture_output=True, text=True, check=True)
    return [{"argv": argv, **summary([run_once(argv, env)
                                      for _ in range(runs)])}
            for argv in json.loads(listed.stdout)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs of each example (default 5)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(json.dumps({"python": sys.version.split()[0], "runs": args.runs,
                      "examples": example_times(source_env(), args.runs)},
                     indent=1))


if __name__ == "__main__":
    main()
