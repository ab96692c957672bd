#!/usr/bin/env python3
"""Runs a binary and compares its standard output byte for byte with a golden.

    scripts/check_golden.py GOLDEN BINARY [ARGS...]

Exits 0 when the output equals GOLDEN. Otherwise prints a unified diff (or
the first differing byte, when the difference does not show as lines) and
exits 1. A binary that exits non-zero fails the check with its exit code.
The goldens live in tests/goldens/ (one per pinned figure or tool output);
regenerate one only in a change that says which output moved, and why.
"""
import difflib
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden, command = argv[1], argv[2:]
    run = subprocess.run(command, stdout=subprocess.PIPE)
    if run.returncode != 0:
        print(f"{' '.join(command)}: exit code {run.returncode}", file=sys.stderr)
        return 1
    with open(golden, "rb") as handle:
        want = handle.read()
    got = run.stdout
    if got == want:
        print(f"golden ok: {golden} ({len(got)} bytes)")
        return 0

    diff = list(difflib.unified_diff(
        want.decode("utf-8", "replace").splitlines(keepends=True),
        got.decode("utf-8", "replace").splitlines(keepends=True),
        fromfile=golden, tofile="output"))
    if diff:
        sys.stdout.writelines(diff)
    else:
        first = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                     min(len(want), len(got)))
        print(f"first difference at byte {first} "
              f"(golden {len(want)} bytes, output {len(got)} bytes)")
    print(f"golden mismatch: {golden}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
