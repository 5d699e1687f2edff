#!/usr/bin/env python3
"""Build the benchmark from source and run it (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper16-flat --seed 1 --seconds 30 --trace 0

The Go toolchain's cache, temporary files and the built binary all go
under .bench_build/ in the working directory. The last line on stdout
is the result JSON.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isfile(os.path.join(src, "go.mod"))):
        print("perfbench: run from the repository root; "
              "go.mod or perfbench/go.mod is missing", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(out, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
