#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

    python3 perfbench/run.py --workload fig1-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The harness is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the workspace crates by path;
it is built in release mode into $CARGO_TARGET_DIR (default .bench_build).
The harness prints a provenance record and, as its last line, the result
object; this script passes both through and exits with the harness's code.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# Files whose content decides what the benchmark measures.
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench")
RUN_TIMEOUT_S = 170


def source_rev():
    """The git commit when there is one, plus a hash of the sources."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    rev = "tree:" + digest.hexdigest()[:16]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        rev = "git:" + git.stdout.strip() + " " + rev
    except (OSError, subprocess.SubprocessError):
        pass
    return rev


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    if not (ROOT / "crates" / "bench" / "Cargo.toml").is_file():
        sys.exit("run.py: the workspace crates are missing; run from a full checkout")
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        sys.exit("run.py: building the harness failed")
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--rev", source_rev(),
        "--out", str(ROOT / ".bench_out"),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: the harness ran past {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
