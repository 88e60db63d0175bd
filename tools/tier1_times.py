#!/usr/bin/env python3
"""Time tier-1, each acceptance test and each README CLI example afresh.

    python3 tools/tier1_times.py [--runs N]

Tier-1 is the ROADMAP's verify command, `python -m pytest -q
--continue-on-collection-errors`, with `--durations=10`, run from the root
of this checkout with its `src` on PYTHONPATH and pytest's cache plugin
off, so that no run writes to the checkout. Each test of
tests/test_acceptance.py then runs alone, by its node id, the same way,
and each README CLI example as readme_cli_times runs it. Every command
runs N times, each in a new interpreter. Prints JSON: per command, its
argv, exit codes, and the median wall time and median peak RSS of its
runs (see readme_cli_times.run_timed); and as `slowest`, the ten slowest
tier-1 test phases of the first tier-1 run, as pytest's durations table
lists them.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile

from readme_cli_times import (ROOT, example_times, run_timed, source_env,
                              summary)

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1 = PYTEST + ["--continue-on-collection-errors", "--durations=10"]
ACCEPTANCE = "tests/test_acceptance.py"
# a row of pytest's durations table: "3.92s call     tests/x.py::test_y"
DURATION = re.compile(r"(\d+\.\d+)s (setup|call|teardown) +(\S.*)$")


def acceptance_ids(env: dict) -> list[str]:
    """Node ids of the acceptance tests, collected in a child."""
    listed = subprocess.run(PYTEST + ["--collect-only", ACCEPTANCE],
                            cwd=ROOT, env=env, capture_output=True,
                            text=True, check=True)
    return [line for line in listed.stdout.splitlines()
            if line.startswith(ACCEPTANCE + "::")]


def slowest(log: str) -> list[dict]:
    """The rows of the durations table in a pytest log, slowest first."""
    return [{"test": m[3], "when": m[2], "s": float(m[1])}
            for m in map(DURATION.match, log.splitlines()) if m]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs of each command (default 3)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = source_env()
    with tempfile.TemporaryFile("w+") as log:
        tier1 = [run_timed(TIER1, env, ROOT, stdout=log)]
        log.seek(0)
        durations = slowest(log.read())
    tier1 += [run_timed(TIER1, env, ROOT) for _ in range(args.runs - 1)]
    acceptance = []
    for test in acceptance_ids(env):
        cmd = PYTEST + [test]
        runs = [run_timed(cmd, env, ROOT) for _ in range(args.runs)]
        acceptance.append({"argv": cmd[1:], **summary(runs)})
    print(json.dumps({"python": sys.version.split()[0], "runs": args.runs,
                      "tier1": {"argv": TIER1[1:], **summary(tier1)},
                      "slowest": durations, "acceptance": acceptance,
                      "examples": example_times(env, args.runs)}, indent=1))


if __name__ == "__main__":
    main()
