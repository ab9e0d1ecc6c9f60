#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-dense --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune, runs the benchmark's self-tests,
then the workload.  The last line of standard output is the JSON result;
build or self-test failures exit non-zero without printing one.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SCRATCH = os.path.join(ROOT, ".perfbench_scratch")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("run.py: run me from the root of an abivm checkout\n")
        return 2
    # The shared dune cache lives outside the checkout; build without it.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
         "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 1
    selftest = subprocess.run([EXE, "selftest"], cwd=ROOT, stdout=sys.stderr)
    if selftest.returncode != 0:
        sys.stderr.write("run.py: benchmark self-tests failed\n")
        return 1
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
