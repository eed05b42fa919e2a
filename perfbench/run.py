#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 15 --trace 0

Everything the build and the run write stays under .bench_build/ in the
current directory: the Go build cache, the binary, spill files and span
dumps. The arguments are passed to the binary unchanged; its last line of
output is the JSON result. The exit code is the binary's, or 1 when the
build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        run = subprocess.run([binary, "-workdir", out] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
