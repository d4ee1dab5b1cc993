#!/usr/bin/env python3
"""Perf-regression smoke guard for the bench JSON trajectories.

Reads the committed floors (bench/perf_floors.json), then for each listed
bench JSON:

  * every dotted-path metric must be >= its floor (a perf regression), and
  * every ``*_checksum_match`` field anywhere in the document must be true
    (a correctness regression, which outranks any speedup).

A failed floor is printed with the file's ``host`` object (lane-kernel ISA,
hardware threads, compiler, build type) when the bench recorded one, so a
slow runner is told apart from a slow kernel.

Usage:
    check_perf_floors.py --floors bench/perf_floors.json --dir build

Exits non-zero with one line per violation, so the CI log names the exact
metric that moved.
"""

import argparse
import json
import os
import sys


def resolve(doc, dotted):
    """Walk a dotted path through nested dicts; None when absent."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def checksum_fields(node, prefix=""):
    """Yield (path, value) for every *_checksum_match key, recursively."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if key.endswith("_checksum_match"):
                yield path, value
            else:
                yield from checksum_fields(value, path)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from checksum_fields(value, f"{prefix}[{i}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--floors", required=True, help="perf_floors.json path")
    ap.add_argument("--dir", default=".", help="directory holding BENCH_*.json")
    args = ap.parse_args()

    with open(args.floors, encoding="utf-8") as f:
        floors = json.load(f)

    failures = []
    checked = 0
    for bench_name, metrics in floors.items():
        if bench_name.startswith("_"):
            continue  # commentary keys
        bench_path = os.path.join(args.dir, bench_name)
        if not os.path.exists(bench_path):
            failures.append(f"{bench_name}: missing (bench did not run?)")
            continue
        with open(bench_path, encoding="utf-8") as f:
            doc = json.load(f)

        for dotted, floor in metrics.items():
            value = resolve(doc, dotted)
            if value is None:
                failures.append(f"{bench_name}: {dotted} absent from the JSON")
            elif not isinstance(value, (int, float)) or value < floor:
                host = doc.get("host")
                on_host = f" (host {json.dumps(host)})" if host else ""
                failures.append(
                    f"{bench_name}: {dotted} = {value} below floor {floor}"
                    f"{on_host}"
                )
            else:
                checked += 1
                print(f"ok  {bench_name}: {dotted} = {value} >= {floor}")

        for path, value in checksum_fields(doc):
            if value is not True:
                failures.append(f"{bench_name}: {path} = {value} (must be true)")
            else:
                checked += 1
                print(f"ok  {bench_name}: {path} = true")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    if checked == 0:
        print("FAIL no metrics checked — empty floors file?", file=sys.stderr)
        return 1
    print(f"all {checked} perf/checksum gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
