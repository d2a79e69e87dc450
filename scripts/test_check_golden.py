#!/usr/bin/env python3
"""Fail unless check_golden.py rejects a golden file with one digit changed.

Usage: test_check_golden.py WORKDIR GOLDEN COMMAND [ARG ...]

COMMAND must print GOLDEN. This copies GOLDEN into WORKDIR with its first
digit changed, runs check_golden.py on COMMAND against the copy, and
passes only when the checker exits 1 and its unified diff shows exactly
the changed line: removed as the copy has it, added as COMMAND prints it.

Exit status: 0 when the checker caught the change, 1 otherwise.
"""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

CHECKER = Path(__file__).with_name("check_golden.py")


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    workdir, golden, command = Path(argv[0]), Path(argv[1]), argv[2:]
    text = golden.read_text(encoding="utf-8")
    digit = re.search(r"[0-9]", text)
    if digit is None:
        print(f"{golden} has no digit to change")
        return 1
    at = digit.start()
    flipped = str((int(text[at]) + 1) % 10)
    mutated = text[:at] + flipped + text[at + 1:]
    workdir.mkdir(parents=True, exist_ok=True)
    changed = workdir / golden.name
    changed.write_text(mutated, encoding="utf-8")

    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(workdir / "fresh.txt"),
         str(changed), *command],
        stdout=subprocess.PIPE, text=True, check=False)
    print(proc.stdout, end="")

    line = text.count("\n", 0, at)
    want_removed = ["-" + mutated.splitlines()[line]]
    want_added = ["+" + text.splitlines()[line]]
    out = proc.stdout.splitlines()
    removed = [l for l in out if l.startswith("-") and not l.startswith("---")]
    added = [l for l in out if l.startswith("+") and not l.startswith("+++")]
    if (proc.returncode == 1 and f"--- {changed}" in out
            and any(l.startswith("@@ ") for l in out)
            and removed == want_removed and added == want_added):
        print("ok: the checker rejected one changed digit with its diff")
        return 0
    print(f"FAIL: checker exit {proc.returncode}; want 1 and a diff of "
          f"line {line + 1} of {golden}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
