#!/usr/bin/env python3
"""Run the google-benchmark micro benches and merge their JSON into one
BENCH_micro.json with repo metadata (git SHA, build flags) and ns/op plus
derived amps/sec per benchmark — the shape check_bench_regression.py
consumes. Stdlib only.

Committed BENCH JSONs also carry a "trajectory" array: one compact
{git_sha, ns_per_op-by-name} entry per recorded run, so the perf history of
the repo accumulates across commits instead of being overwritten. This tool
preserves the existing trajectory of --out, appends the fresh run, and with
--figs does the same for an already-regenerated BENCH_figs.json.

Usage:
  tools/bench_report.py [--build-dir build] [--out BENCH_micro.json]
                        [--filter REGEX] [--min-time SECONDS]
                        [--figs BENCH_figs.json]
"""
import argparse
import json
import os
import subprocess
import sys

MICRO_BENCHES = ["bench/bench_micro_quantum", "bench/bench_micro_nn"]

TIME_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def git_sha(repo_root):
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, check=True,
            capture_output=True, text=True).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def run_bench(binary, filter_regex, min_time, out_path):
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if filter_regex:
        cmd.append(f"--benchmark_filter={filter_regex}")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def entries_from(report, binary_name):
    entries = []
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        scale = TIME_UNIT_TO_NS.get(bench.get("time_unit", "ns"), 1.0)
        entry = {
            "name": f"{binary_name}/{bench['name']}",
            "ns_per_op": bench["cpu_time"] * scale,
            "real_ns_per_op": bench["real_time"] * scale,
            "iterations": bench.get("iterations", 0),
        }
        if "amps_per_sec" in bench:
            entry["amps_per_sec"] = bench["amps_per_sec"]
        if "items_per_second" in bench:
            entry["items_per_second"] = bench["items_per_second"]
        entries.append(entry)
    return entries


TRAJECTORY_LIMIT = 50


def load_existing(path):
    """Parses the committed JSON at `path`, or {} when absent/corrupt."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}


def appended_trajectory(existing, sha, entries):
    """Existing trajectory plus one entry for this run (newest last).

    Re-running on the same SHA replaces that SHA's entry instead of
    duplicating it; history is capped at TRAJECTORY_LIMIT entries.
    """
    trajectory = [
        point for point in existing.get("trajectory", [])
        if point.get("git_sha") != sha
    ]
    trajectory.append({
        "git_sha": sha,
        "ns_per_op": {
            e["name"]: e["ns_per_op"] for e in entries if "ns_per_op" in e
        },
    })
    return trajectory[-TRAJECTORY_LIMIT:]


def committed_trajectory(path, repo_root):
    """Trajectory array from the committed (HEAD) version of `path`."""
    try:
        rel = os.path.relpath(os.path.abspath(path), repo_root)
        blob = subprocess.run(
            ["git", "show", f"HEAD:{rel}"], cwd=repo_root, check=True,
            capture_output=True, text=True).stdout
        return json.loads(blob).get("trajectory", [])
    except (subprocess.CalledProcessError, FileNotFoundError,
            json.JSONDecodeError):
        return []


def stamp_figs_trajectory(path, sha, repo_root):
    """Folds a freshly regenerated BENCH_figs.json run into its trajectory.

    bench_figs_report (C++) overwrites the file wholesale — including any
    trajectory the working copy carried — so the accumulated history is
    recovered from the committed (HEAD) version of the file before the new
    run's numbers are appended.
    """
    doc = load_existing(path)
    if not doc.get("benchmarks"):
        print(f"warning: {path} missing or empty, trajectory not stamped",
              file=sys.stderr)
        return
    history = doc.get("trajectory") or committed_trajectory(path, repo_root)
    doc["trajectory"] = appended_trajectory(
        {"trajectory": history}, sha, doc["benchmarks"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"stamped trajectory entry in {path} "
          f"({len(doc['trajectory'])} points)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_micro.json")
    parser.add_argument("--filter", default="")
    parser.add_argument("--min-time", default="0.1")
    parser.add_argument(
        "--figs", default="",
        help="also append a trajectory entry to this (already regenerated) "
             "BENCH_figs.json")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    entries = []
    context = {}
    for rel in MICRO_BENCHES:
        binary = os.path.join(args.build_dir, rel)
        if not os.path.exists(binary):
            print(f"error: {binary} not built", file=sys.stderr)
            return 1
        name = os.path.basename(rel)
        raw_path = os.path.join(args.build_dir, f"{name}.raw.json")
        report = run_bench(binary, args.filter, args.min_time, raw_path)
        context = report.get("context", context)
        entries.extend(entries_from(report, name))

    sha = git_sha(repo_root)
    merged = {
        "metadata": {
            "git_sha": sha,
            "build_flags": " ".join(
                f"{k}={v}" for k, v in sorted(context.items())
                if k in ("library_build_type", "num_cpus", "mhz_per_cpu")),
        },
        "benchmarks": entries,
        "trajectory": appended_trajectory(
            load_existing(args.out), sha, entries),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(entries)} benchmarks, "
          f"{len(merged['trajectory'])} trajectory points)")
    if args.figs:
        stamp_figs_trajectory(args.figs, sha, repo_root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
