#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chain-store --seed 1 --seconds 20 --trace 0

It builds perfbench's benchserver and benchgen with the Go toolchain into
.bench_build/perfbench (build cache included, so nothing is written
outside the checkout), then runs benchgen, which prints every metric with
its unit and, as its last line, one JSON result. The exit status is
benchgen's; a failed build exits 1 without a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("chain-store", "chain-detect", "track-query")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build", "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bins = {}
    for name in ("benchserver", "benchgen"):
        bins[name] = os.path.join(build, "bin", name)
        res = subprocess.run(
            ["go", "build", "-o", bins[name], "./cmd/" + name],
            cwd=src, env=env, stdout=sys.stderr)
        if res.returncode != 0:
            print("perfbench: building %s failed" % name, file=sys.stderr)
            return 1
    sys.stdout.flush()
    res = subprocess.run(
        [bins["benchgen"], "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", str(args.seconds), "-trace", str(args.trace),
         "-server", bins["benchserver"], "-out", os.path.join(build, "out")],
        env=env)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
