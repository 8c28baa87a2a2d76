#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload adhoc_paper --seed 1 --seconds 25 --trace 0

Workloads: adhoc_paper, serve_mixed, stream_append.  The program is built
with dune into .bench_build/ (the shared dune cache is disabled, so nothing
is written outside the checkout); scratch files go to .bench_build/run/.
Standard output is that of perfbench/main.ml: metric lines, then one JSON
object as the last line.  The exit code is non-zero when the build fails,
an output check fails or the run overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("adhoc_paper", "serve_mixed", "stream_append")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout, stdout=None):
    """Run cmd to completion; on timeout or interruption kill it and wait."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (cmd[0], timeout), file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    # The program's own SI_* switches (layout, workers, transfer, cache
    # size, telemetry) would change what is measured; runs use defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SI_")}
    env["DUNE_CACHE"] = "disabled"
    rc = run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
              "./perfbench/main.exe"], env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1

    scratch = os.path.join(BUILD_DIR, "run")
    os.makedirs(scratch, exist_ok=True)
    sys.stdout.flush()
    return run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--dir", scratch], env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
