#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/e2e/run.py --selftest

The build (CMake, Release) and every file a run writes live under
.bench_build/e2e/ at the root of the checkout. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json for --trace 0, its
per-layer metrics for --trace 1. --result <file> also keeps the binary's full
result (run metadata, request counts, container hashes); compare.py uses it.
The exit code is 0 only when every output was correct.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources (CMakeLists.txt, src/) under {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "bench_e2e"], check=True, stdout=sys.stderr)
    return BUILD / "bench_e2e"


def metric_names(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench[kind]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=pathlib.Path,
                        help="also copy the binary's full result JSON here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    if args.selftest:
        proc = subprocess.run([str(exe), "--selftest",
                               f"--benchmark={ROOT / 'BENCHMARK.json'}",
                               f"--trace={BUILD / 'selftest.trace.json'}"],
                              timeout=RUN_TIMEOUT_S)
        sys.exit(proc.returncode)

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    out = BUILD / f"result-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--json={out}"]
    if args.trace:
        cmd.append(f"--trace={BUILD / f'trace-{tag}.json'}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    if not out.is_file():
        fail(f"bench_e2e exited with {proc.returncode} and wrote no result")
    result = json.loads(out.read_text())
    if args.result:
        shutil.copyfile(out, args.result)

    names = metric_names("per_layer" if args.trace else "end_to_end")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(names):
        fail("bench_e2e's metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(names))}")
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: metrics[n] for n in names},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
