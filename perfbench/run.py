#!/usr/bin/env python3
"""Build the AVM benchmark from source and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload game-batch --seed 1 --seconds 10 --trace 0

The benchmark executable and the libraries it links are built with dune
into .bench_build/ inside the tree (dune's shared cache is disabled, so
nothing is written outside it). The executable prints progress on
stderr, a host-facts line, and as the last line of stdout one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero if the build fails or any correctness check fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/avmbench.exe"


def source_digest():
    """SHA-256 over the sources the benchmark is built from."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in paths:
            if p.is_file() and (p.name in ("dune", "dune-project") or p.suffix in (".ml", ".mli")):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The git revision when the tree is a git checkout, else "none"."""
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
             TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode
    exe = ROOT / BUILD_DIR / "default" / "perfbench" / "avmbench.exe"
    cmd = [str(exe), *sys.argv[1:],
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", commit(),
           "--source-digest", source_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
