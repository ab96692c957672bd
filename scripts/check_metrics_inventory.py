#!/usr/bin/env python3
"""Checks that every metric family sc_metrics_dump emits is documented.

    scripts/check_metrics_inventory.py SC_METRICS_DUMP TELEMETRY_MD

Runs `SC_METRICS_DUMP --seed 7`, reads each family's `# TYPE` line, and
requires a row for it in the family inventory table of TELEMETRY_MD
(docs/telemetry.md: "| `name` | kind | labels | meaning |"). Exits 1 listing
every undocumented family.
"""
import re
import subprocess
import sys

ROW = re.compile(r"^\|\s*`([a-zA-Z_:][a-zA-Z0-9_:]*)`\s*\|")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dump, doc = argv[1], argv[2]
    prom = subprocess.run([dump, "--seed", "7"], check=True, capture_output=True,
                          text=True).stdout
    emitted = sorted(line.split()[2] for line in prom.splitlines()
                     if line.startswith("# TYPE "))
    with open(doc, encoding="utf-8") as handle:
        documented = {match.group(1) for match in map(ROW.match, handle) if match}

    problems = [f"{name}: no row in {doc}" for name in emitted if name not in documented]
    if not emitted:
        problems.append(f"{dump} emitted no metric families")
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"metrics inventory ok: {len(emitted)} families documented")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
