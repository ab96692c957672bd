#!/usr/bin/env python3
"""Checks the envelope of every perf-harness JSON file (bench/bench_util.hpp).

    scripts/check_bench_envelope.py REPO_ROOT SMOKE_JSON...

Every committed REPO_ROOT/BENCH_*.json and every SMOKE_JSON (the files the
*_bench_smoke ctests write) must hold "schema", every "env" field and a
"results" object. The committed files must also agree on env.git_rev
and env.cpu: they are regenerated together, on one machine, from one build.
Exits 1 listing every problem found.
"""
import glob
import json
import os
import sys

ENV_FIELDS = ("nproc", "cpu", "build_type", "compiler", "flags", "git_rev", "probe_ms")
ONE_RUN_FIELDS = ("git_rev", "cpu")


def envelope_problems(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as err:
        return [f"{path}: unreadable: {err}"], None
    if not isinstance(doc, dict):
        return [f"{path}: not a JSON object"], None
    problems = []
    if not isinstance(doc.get("schema"), str):
        problems.append(f"{path}: missing schema")
    env = doc.get("env")
    if not isinstance(env, dict):
        problems.append(f"{path}: missing env")
        env = None
    else:
        problems += [f"{path}: env lacks {field}" for field in ENV_FIELDS if field not in env]
    if not isinstance(doc.get("results"), dict):
        problems.append(f"{path}: missing results")
    return problems, env


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root, smoke = argv[1], argv[2:]
    committed = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    problems = []
    if not committed:
        problems.append(f"{root}: no committed BENCH_*.json")

    origins = {field: {} for field in ONE_RUN_FIELDS}
    for path in committed:
        found, env = envelope_problems(path)
        problems += found
        for field in ONE_RUN_FIELDS:
            if env is not None and field in env:
                origins[field].setdefault(str(env[field]), []).append(os.path.basename(path))
    for path in smoke:
        problems += envelope_problems(path)[0]
    for field, values in origins.items():
        if len(values) > 1:
            detail = "; ".join(f"{value!r}: {', '.join(files)}" for value, files in values.items())
            problems.append(f"committed BENCH_*.json disagree on env.{field}: {detail}")

    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"bench envelope: {len(committed)} committed + {len(smoke)} smoke files ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
