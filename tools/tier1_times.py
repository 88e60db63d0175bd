#!/usr/bin/env python3
"""Time tier-1, each acceptance test and each README CLI example afresh.

    python3 tools/tier1_times.py [--runs N]

Tier-1 is the ROADMAP's verify command, `python -m pytest -q
--continue-on-collection-errors`, run from the root of this checkout with
its `src` on PYTHONPATH and pytest's cache plugin off, so that no run
writes to the checkout. Each test of tests/test_acceptance.py then runs
alone, by its node id, the same way, and each README CLI example as
readme_cli_times runs it. Every command runs N times, each in a new
interpreter. Prints JSON: per command, its argv, exit codes, and the
median wall time and median peak RSS of its runs (see
readme_cli_times.run_timed).
"""

import argparse
import json
import subprocess
import sys

from readme_cli_times import (ROOT, example_times, run_timed, source_env,
                              summary)

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1 = PYTEST + ["--continue-on-collection-errors"]
ACCEPTANCE = "tests/test_acceptance.py"


def acceptance_ids(env: dict) -> list[str]:
    """Node ids of the acceptance tests, collected in a child."""
    listed = subprocess.run(PYTEST + ["--collect-only", ACCEPTANCE],
                            cwd=ROOT, env=env, capture_output=True,
                            text=True, check=True)
    return [line for line in listed.stdout.splitlines()
            if line.startswith(ACCEPTANCE + "::")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs of each command (default 3)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = source_env()
    commands = [TIER1] + [PYTEST + [test] for test in acceptance_ids(env)]
    results = []
    for cmd in commands:
        runs = [run_timed(cmd, env, ROOT) for _ in range(args.runs)]
        results.append({"argv": cmd[1:], **summary(runs)})
    print(json.dumps({"python": sys.version.split()[0], "runs": args.runs,
                      "tier1": results[0], "acceptance": results[1:],
                      "examples": example_times(env, args.runs)}, indent=1))


if __name__ == "__main__":
    main()
