#!/usr/bin/env python3
"""Build and run the stmdiag benchmark.

Usage, from the root of a checkout:

    python3 stmbench/run.py --workload seq-lbr --seed 1 --seconds 12 --trace 0

Builds the stmbench program (this directory's Go module) plus the cmd/fleetd
and cmd/trialworker binaries it drives, with every build and cache directory
under .bench_build/ in the checkout, then runs it with the same
arguments. It prints one JSON result as its last stdout line; see
README.md. Exits non-zero without a result when the build fails, e.g. in a
directory that does not hold the stmdiag sources.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("GOPATH", "gopath"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = ""
    bindir = os.path.join(build, "bin")
    os.makedirs(bindir, exist_ok=True)

    built = subprocess.run(
        ["go", "build", "-o", bindir + os.sep,
         "stmdiag/stmbench", "stmdiag/cmd/fleetd", "stmdiag/cmd/trialworker"],
        cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("stmbench: build failed", file=sys.stderr)
        return 2

    args = [os.path.join(bindir, "stmbench"), "--root", root, "--bin", bindir] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=root, env=env).returncode
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
