#!/usr/bin/env python3
"""Fail when README's configuration table and the env loader disagree.

Compares two sets of FARMER_* environment variable names:

  * the first column of the README table whose header starts with
    `| env var |` (the "Configuration reference");
  * every quoted "FARMER_..." name in src/api/runtime_config.cpp, the one
    loader that reads the environment and rejects any name it does not
    list.

A name in only one of them is a row someone forgot to add or to delete.

Exit status: 0 when the sets match, 1 otherwise (each difference is
reported on its own line).
"""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"FARMER_[A-Z0-9_]+")
QUOTED_NAME = re.compile(r'"(FARMER_[A-Z0-9_]+)"')
TABLE_HEADER = re.compile(r"^\|\s*env var\s*\|")


def table_names(readme: Path) -> set[str]:
    names: set[str] = set()
    in_table = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if TABLE_HEADER.match(line):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            break  # the table ends at its first non-row line
        first_cell = line.split("|")[1]
        names.update(NAME.findall(first_cell))
    return names


def loader_names(source: Path) -> set[str]:
    return set(QUOTED_NAME.findall(source.read_text(encoding="utf-8")))


def main() -> int:
    root = Path(
        subprocess.run(["git", "rev-parse", "--show-toplevel"],
                       capture_output=True, text=True,
                       check=True).stdout.strip())
    documented = table_names(root / "README.md")
    read = loader_names(root / "src" / "api" / "runtime_config.cpp")
    if not documented:
        print("check_config_table: no `| env var |` table in README.md",
              file=sys.stderr)
        return 1
    problems = [f"README.md lists {n}, which runtime_config.cpp does not read"
                for n in sorted(documented - read)]
    problems += [f"runtime_config.cpp reads {n}, which README.md does not "
                 f"list" for n in sorted(read - documented)]
    for p in problems:
        print(f"MISMATCH {p}", file=sys.stderr)
    print(f"check_config_table: {len(read)} variables read, "
          f"{len(documented)} documented, {len(problems)} mismatched")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
