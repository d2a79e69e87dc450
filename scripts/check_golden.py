#!/usr/bin/env python3
"""Fail when a program's stdout differs by one byte from its golden file.

Usage: check_golden.py OUT GOLDEN [FARMER_NAME=VALUE ...] COMMAND [ARG ...]

Runs COMMAND with every inherited FARMER_* variable removed and the
FARMER_NAME=VALUE pairs given here set, in a fresh empty working
directory (so a relative FARMER_PERSIST_DIR starts empty on every run).
Its stdout is written to OUT and compared with GOLDEN byte for byte; its
stderr passes through.

Exit status: 0 when COMMAND exits 0 and its stdout equals GOLDEN, 1
otherwise. A mismatch also prints a unified diff of GOLDEN against OUT.
OUT is left in place either way, so regenerating a golden file is a copy
of OUT over it.
"""
from __future__ import annotations

import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ASSIGNMENT = re.compile(r"FARMER_[A-Z0-9_]+=")


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out, golden = Path(argv[0]), Path(argv[1])
    rest = argv[2:]
    env = {k: v for k, v in os.environ.items() if not k.startswith("FARMER_")}
    while rest and ASSIGNMENT.match(rest[0]):
        name, value = rest.pop(0).split("=", 1)
        env[name] = value
    if not rest:
        print("check_golden: no command to run", file=sys.stderr)
        return 2
    command = [os.path.abspath(rest[0]) if os.sep in rest[0] else rest[0]]
    command += rest[1:]

    with tempfile.TemporaryDirectory(prefix="farmer_golden_") as cwd:
        proc = subprocess.run(command, cwd=cwd, env=env,
                              stdout=subprocess.PIPE, check=False)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(proc.stdout)

    failed = False
    if proc.returncode != 0:
        print(f"check_golden: {rest[0]} exited {proc.returncode}")
        failed = True
    expected = golden.read_bytes() if golden.is_file() else None
    if expected is None:
        print(f"check_golden: no golden file {golden}")
        failed = True
    elif expected != proc.stdout:
        diff = difflib.unified_diff(
            expected.decode("utf-8", "replace").splitlines(keepends=True),
            proc.stdout.decode("utf-8", "replace").splitlines(keepends=True),
            fromfile=str(golden), tofile=str(out))
        sys.stdout.writelines(diff)
        print(f"check_golden: stdout differs from {golden}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
