#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 benchmark/run.py --workload <train|serve-steady|serve-overload> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `mimose-benchmark` package beside this script from source
(into $CARGO_TARGET_DIR, default `.bench_build` at the repository root),
runs it as a child process, and prints its metric rows followed by one
JSON result line. With `--trace 0` the result holds every `end_to_end`
metric of BENCHMARK.json, with `--trace 1` every `per_layer` metric.
Each run also appends its full rows (sample count, median, p10/p90,
nproc, commit) to `benchmark/out/results.jsonl`. Any failed build,
correctness check or determinism digest exits non-zero and prints no
result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    yield os.path.join(ROOT, "Cargo.toml")
    for top in ("src", "crates", "benchmark"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".rs", ".toml", ".py")):
                    yield os.path.join(d, f)


def commit_id():
    """The checked-out commit, or a digest of the sources outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    return f.read().strip()
        else:
            return ref
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "serve-steady", "serve-overload"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(spec_path) or not os.path.isfile(manifest):
        fail("BENCHMARK.json or benchmark/Cargo.toml is missing")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    t0 = time.monotonic()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    exe = os.path.join(target, "release", "mimose-benchmark")
    budget = max(30.0, RUN_TIMEOUT_S - (time.monotonic() - t0))

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {budget:.0f} s")
    if child.returncode != 0:
        fail(f"{args.workload} exited with code {child.returncode}")
    lines = child.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed nothing")
    summary = json.loads(lines[-1])
    rows = {r["name"]: r for r in summary["metrics"]}

    metrics = {}
    for m in wanted:
        row = rows.get(m["name"])
        if row is None:
            fail(f"{args.workload} did not measure {m['name']}")
        if row["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {row['unit']}, declared in {m['unit']}")
        if row["value"] is None:
            fail(f"{m['name']} has no value on {args.workload}")
        metrics[m["name"]] = {"value": row["value"], "unit": m["unit"]}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "nproc": summary["nproc"],
        "digest": summary["digest"], "attempted": summary["attempted"],
        "failed": summary["failed"], "rows": summary["metrics"],
    }
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    for line in lines[:-1]:
        print(line)
    print(f"# commit={record['commit']}")
    print(json.dumps({"correct": True, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
