#!/usr/bin/env python3
"""Check tools/net_loc.py against a throwaway git repository with known
per-area edits: committed and staged changes, a deleted file, renames
within and across areas, and a binary file (skipped).

    python3 tests/tools/net_loc_test.py <path to net_loc.py>
"""
import os
import subprocess
import sys
import tempfile


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=net_loc", "-c", "user.email=net_loc@example.com",
         "-c", "commit.gpgsign=false", "-c", "init.defaultBranch=main", *args],
        cwd=repo, check=True, capture_output=True, text=True).stdout


def write(repo, path, lines):
    full = os.path.join(repo, path)
    os.makedirs(os.path.dirname(full) or repo, exist_ok=True)
    with open(full, "w") as f:
        f.writelines(line + "\n" for line in lines)


def write_bytes(repo, path, data):
    with open(os.path.join(repo, path), "wb") as f:
        f.write(data)


def report(tool, repo, *args):
    return subprocess.run([sys.executable, tool, *args], cwd=repo,
                          capture_output=True, text=True)


def main():
    tool = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as repo:
        git(repo, "init", "-q")
        write(repo, "src/a.cpp", [f"a{i}" for i in range(10)])
        write(repo, "src/x/m.cpp", [f"m{i}" for i in range(20)])
        write(repo, "tests/t.cpp", [f"t{i}" for i in range(4)])
        write(repo, "docs/d.md", [f"d{i}" for i in range(3)])
        write(repo, "README.md", ["r0", "r1"])
        write(repo, "bench/b.cpp", [f"b{i}" for i in range(5)])
        write(repo, "misc.txt", [f"x{i}" for i in range(10)])
        write_bytes(repo, "data.bin", bytes(range(256)))
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", "base")
        base = git(repo, "rev-parse", "HEAD").strip()

        # Committed: src/a.cpp loses 4 lines and gains 1.
        write(repo, "src/a.cpp", [f"a{i}" for i in range(6)] + ["n1"])
        git(repo, "commit", "-q", "-am", "edit")
        # Staged on top: a rename inside src/ (+1), a rename from the top
        # level into docs/ (+1), tests/ +3, docs/ -3, README +2, binary.
        os.makedirs(os.path.join(repo, "src/y"))
        git(repo, "mv", "src/x/m.cpp", "src/y/m.cpp")
        write(repo, "src/y/m.cpp", [f"m{i}" for i in range(21)])
        git(repo, "mv", "misc.txt", "docs/misc.txt")
        write(repo, "docs/misc.txt", [f"x{i}" for i in range(11)])
        write(repo, "tests/t.cpp", [f"t{i}" for i in range(7)])
        git(repo, "rm", "-q", "docs/d.md")
        write(repo, "README.md", ["r0", "r1", "r2", "r3"])
        write_bytes(repo, "data.bin", bytes(reversed(range(256))))
        git(repo, "add", "-A")

        res = report(tool, repo, base)
        if res.returncode != 0:
            sys.exit(f"net_loc.py failed:\n{res.stderr}")
        rows = {}
        for line in res.stdout.splitlines()[1:]:
            name, added, removed, net = line.split()
            rows[name] = (int(added), int(removed), int(net))
        want = {
            "src/": (2, 4, -2),
            "tests/": (3, 0, 3),
            "bench/": (0, 0, 0),
            "docs/": (1, 3, -2),
            "other": (2, 0, 2),
            "total": (8, 7, 1),
        }
        if rows != want:
            sys.exit(f"got {rows}\nwant {want}\noutput:\n{res.stdout}")

        usage = report(tool, repo)
        if usage.returncode == 0 or "base-ref" not in usage.stderr:
            sys.exit("net_loc.py without a base ref must fail with its usage")
    print("net_loc.py counts match")


if __name__ == "__main__":
    main()
