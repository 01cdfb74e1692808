#!/usr/bin/env python3
"""Build and run collio's benchmark (the Go program in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The program is built from source into .bench_build/ at the checkout
root; the Go build cache, temporary files and the program's span files
and tuner stores stay there too, so nothing outside the checkout is
read or written. The last line of standard output is the program's JSON
result. The exit code is non-zero when the build fails, an op fails its
correctness check, or the run exceeds its time limit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 900


def go_env():
    """The environment for the go tool, with every cache in the checkout."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp, OUT):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    return env


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: run from a checkout of the collio module" % ROOT)
    env = go_env()
    if argv == ["--selftest"]:
        try:
            proc = subprocess.run(["go", "test", "-count=1", "."], cwd=HERE, env=env,
                                  timeout=SELFTEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("self-test timed out")
        sys.exit(proc.returncode)

    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    try:
        proc = subprocess.run([BINARY, "-out", OUT] + argv, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the program printed no JSON result")


if __name__ == "__main__":
    main(sys.argv[1:])
