#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fs-sat-1k --seed 1 --seconds 10 --trace 0

It builds perfbench (a Go module of its own, next to this file) into
.bench_build/ under the root, with the Go build cache there too, then runs
it with the given arguments plus a fingerprint of the source tree. The
benchmark's last line of standard output is its JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_fingerprint():
    """sha256 over the module's Go sources and go.mod files, by path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: no go.mod at %s: run from a full checkout\n" % ROOT)
        return 2
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    args = [binary] + sys.argv[1:] + [
        "--trace-dir", os.path.join(BUILD, "traces"),
        "--source", source_fingerprint(),
    ]
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
