#!/usr/bin/env python3
"""Builds and runs the layer-ledger benchmark.

Usage, from the repository root:

    python3 ledger/run.py --workload figures|explore|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark package and the release `isa-serve` binary into
$CARGO_TARGET_DIR (default: target/), then runs `isa-ledger`, whose last
stdout line is the result JSON. Build output goes to stderr. Scratch files
live under .ledger_work/ and are removed afterwards.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", "target"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["--manifest-path", str(here / "Cargo.toml")],
        ["--manifest-path", str(root / "Cargo.toml"), "-p", "isa-serve", "--bin", "isa-serve"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    # Relative, so the daemon's socket path stays short wherever the
    # checkout lives.
    workdir = Path(".ledger_work") / str(os.getpid())
    cmd = [
        str(target / "release" / "isa-ledger"),
        *sys.argv[1:],
        "--serve-bin",
        str(target / "release" / "isa-serve"),
        "--workdir",
        str(workdir),
    ]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
