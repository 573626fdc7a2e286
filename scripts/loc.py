#!/usr/bin/env python3
"""Print the project's line count: every *.cpp / *.h line under src/,
bench/, tests/ and examples/.

This is the figure ROADMAP.md and CHANGES.md quote for "net LOC". Stdlib
only; run from anywhere:

    python3 scripts/loc.py            # total
    python3 scripts/loc.py --by-dir   # per top-level directory, then total
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "bench", "tests", "examples")
SUFFIXES = (".cpp", ".h")


def count_lines(directory: Path) -> int:
    total = 0
    for path in sorted(directory.rglob("*")):
        if path.suffix in SUFFIXES and path.is_file():
            with path.open("rb") as source:
                total += sum(1 for _ in source)
    return total


def main() -> int:
    counts = {name: count_lines(REPO_ROOT / name) for name in DIRS}
    if "--by-dir" in sys.argv[1:]:
        for name, lines in counts.items():
            print(f"{name}/ {lines}")
    print(sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
