#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One workload per call prints its report and, as the last line, one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
`--workload all` runs every workload untraced and then traced.

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with every Go cache
kept there too, so the run reads and writes nothing outside the checkout.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["kv-write", "kv-read", "reg-tcp", "reg-f1"]

# One run needs well under this; the wrapper stops a hung one.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def go_env(build):
    env = dict(os.environ)
    for var, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "cache"),
                     ("XDG_CONFIG_HOME", "config"), ("HOME", "home")]:
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off",
               GOFLAGS="-mod=readonly", CGO_ENABLED="0")
    return env


def find_go():
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    # The official installer's default location, for a PATH without Go.
    if go is None and os.access("/usr/local/go/bin/go", os.X_OK):
        go = "/usr/local/go/bin/go"
    return go


def build(here, out, env):
    go = find_go()
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return False
    try:
        p = subprocess.run([go, "build", "-o", out, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return False
    return p.returncode == 0


def run_one(binary, root, build_dir, env, workload, seed, seconds, trace):
    cmd = [binary, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace),
           "-out", os.path.join(build_dir, "perfbench")]
    try:
        return subprocess.run(cmd, cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    env = go_env(build_dir)
    binary = os.path.join(build_dir, "perfbench", "perfbench")
    if not build(here, binary, env):
        print("run.py: build failed", file=sys.stderr)
        return 2

    if args.workload != "all":
        return run_one(binary, root, build_dir, env, args.workload,
                       args.seed, args.seconds, args.trace)
    code = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            code = max(code, run_one(binary, root, build_dir, env, w,
                                     args.seed, args.seconds, trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
