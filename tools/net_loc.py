#!/usr/bin/env python3
"""Report the added, removed and net line counts of the working tree against
a base ref, per top-level area (src/, tests/, bench/, docs/, other).

    python3 tools/net_loc.py <base-ref>

Counts come from `git diff --numstat <base-ref>`, so they cover committed,
staged and unstaged changes to tracked files (stage new files to include
them). Binary files are skipped.
"""
import subprocess
import sys

AREAS = ("src", "tests", "bench", "docs")


def area_of(path):
    top = path.split("/", 1)[0]
    return top if top in AREAS else "other"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    out = subprocess.run(
        ["git", "diff", "--numstat", sys.argv[1]],
        check=True, capture_output=True, text=True).stdout
    totals = {a: [0, 0] for a in AREAS + ("other",)}
    for line in out.splitlines():
        added, removed, path = line.split("\t", 2)
        if added == "-":  # binary file
            continue
        # Renames print as "old => new" or "dir/{old => new}/rest"; the
        # area is the new path's top-level directory.
        if "{" in path:
            head, rest = path.split("{", 1)
            middle, tail = rest.split("}", 1)
            path = head + middle.split(" => ", 1)[1] + tail
        elif " => " in path:
            path = path.split(" => ", 1)[1]
        t = totals[area_of(path)]
        t[0] += int(added)
        t[1] += int(removed)
    print(f"{'area':<8}{'added':>8}{'removed':>9}{'net':>8}")
    for area, (added, removed) in totals.items():
        print(f"{area + '/' if area != 'other' else area:<8}"
              f"{added:>8}{removed:>9}{added - removed:>+8}")
    added = sum(t[0] for t in totals.values())
    removed = sum(t[1] for t in totals.values())
    print(f"{'total':<8}{added:>8}{removed:>9}{added - removed:>+8}")


if __name__ == "__main__":
    main()
