#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source and runs one
workload.

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare .bench_results/A.json .bench_results/B.json

A run splits its time over PROCESSES separate perfbench processes, each with
a seed derived from --seed; each metric is the median over the processes.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. Lines
before it print every metric, the details, the correctness gates and the
host. A full record, host metadata included, is saved under .bench_results/.
The exit code is non-zero when the build fails, the workload fails, or any
correctness gate fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve_steady", "fleet_drift", "design_table1")
PROCESSES = 3


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO, base, "perfbench")


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout", 2)
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
        # A cache written for another checkout path: start the build afresh.
        shutil.rmtree(out, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed", 3)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 3)
    return os.path.join(out, "perfbench")


def source_sha256():
    """Content hash of src/ (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_metadata(binary_host):
    host = dict(binary_host)
    host.update(cpu_model=cpu_model(), nproc=len(os.sched_getaffinity(0)),
                git_sha=git_sha(), source_sha256=source_sha256())
    return host


def select(values, specs, kind):
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in values or values[name] is None:
            fail(f"workload reported no {kind} metric '{name}'", 4)
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    return metrics


def combine(parts):
    """One result from the workload's processes: each metric is the median
    over the processes, counts add up, and every gate must pass in each."""
    def medians(key):
        return {name: statistics.median(p[key][name] for p in parts)
                for name in parts[0][key]}

    def prefixed(key):
        return {f"p{k}.{name}": value for k, p in enumerate(parts)
                for name, value in p[key].items()}

    return {"correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "e2e": medians("e2e"), "layer": medians("layer"),
            "detail": prefixed("detail"), "gates": prefixed("gates"),
            "host": parts[0]["host"]}


def run(args):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}'", 2)
    binary = build()

    results = os.path.join(REPO, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for k in range(PROCESSES):
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed * PROCESSES + k),
               "--seconds", repr(args.seconds / PROCESSES),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(results, f"{stem}.p{k}.spans.json")]
        try:
            proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"workload exceeded {RUN_TIMEOUT_S} s", 5)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            fail(f"workload exited with code {proc.returncode}", 5)
        parts.append(json.loads(lines[-1]))
    raw = combine(parts)

    if args.trace:
        metrics = select(raw["layer"], bench["per_layer"], "per-layer")
        names = {s["name"] for s in bench["per_layer"]}
        if set(raw["layer"]) != names:
            fail("per-layer metrics of the binary and BENCHMARK.json differ: "
                 f"{sorted(set(raw['layer']) ^ names)}", 4)
    else:
        metrics = select(raw["e2e"], bench["end_to_end"], "end-to-end")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": raw["correct"],
        "attempted": raw["attempted"], "failed": raw["failed"],
        "metrics": metrics, "e2e": raw["e2e"], "detail": raw["detail"],
        "gates": raw["gates"],
        "host": host_metadata(raw["host"]),
    }
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"metric  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in sorted(raw["detail"].items()):
        print(f"detail  {name:32s} {value}")
    for name, passed in sorted(raw["gates"].items()):
        print(f"gate    {name:32s} {'pass' if passed else 'FAIL'}")
    print("host    " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if raw["correct"] else 1


def compare(paths):
    """Median ratio per metric between two saved records of one workload."""
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    base, new = records
    if base["host"].get("isa") != new["host"].get("isa"):
        fail(f"refusing to compare results taken on different ISAs: "
             f"{base['host'].get('isa')} vs {new['host'].get('isa')}", 2)
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        fail("records are of different workloads or trace modes", 2)
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        ratio = n / b if n is not None and b else float("nan")
        print(f"{name:32s} {b:.6g} -> {n} {m['unit']} ({ratio:.4f}x)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar="RECORD")
    args = p.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        fail("--workload is required", 2)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
