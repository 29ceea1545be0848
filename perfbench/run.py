#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload dial --seed 1 --seconds 20 --trace 0

The Go program under perfbench/ is built from the checkout's source into
the build directory (CARGO_TARGET_DIR if set, else .bench_build), with
the Go build cache and every temporary file kept there too, then run
from the checkout root. Its standard output is passed through; the last
line is the result object. Exits non-zero, without a result, when the
build or the run fails or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        fail("no go.mod at the checkout root: run from the root of a full checkout")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    for d in ("gocache", "tmp", "gopath", "config", "cache", "run"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           timeout=BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"go build: {e}")
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        fail("go build failed")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-workdir", os.path.join(build, "run")]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark: {e}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(res) != RESULT_KEYS or not res["correct"] or res["attempted"] < 1:
        fail("malformed or incorrect result")


if __name__ == "__main__":
    main()
