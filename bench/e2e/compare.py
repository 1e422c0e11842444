#!/usr/bin/env python3
"""Compares bench_e2e between a parent and a change checkout.

    python3 bench/e2e/compare.py --parent <dir> --change <dir>
        [--workloads checkpoint,advise] [--pairs 10] [--seed 100]

For every workload it runs --pairs parent/change pairs, alternating which
side runs first, pair k on seed --seed + k for both sides, each through that
side's own bench/e2e/run.py (untraced, run_seconds from BENCHMARK.json). Then,
for every end-to-end metric of BENCHMARK.json, it reports each side's median
and quartiles, the change's win fraction over the pairs, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range, in the metric's better direction;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run reads better than every parent run;
  unchanged   otherwise.

It refuses to compare runs whose nproc or build flags (__OPTIMIZE__, NDEBUG,
compiler version) differ. Results are kept under --out; a result file that
already exists is reused, so an interrupted comparison resumes.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

META_KEYS = ("nproc", "optimize", "ndebug", "compiler")


def run_side(checkout, workload, seed, seconds, result):
    if result.is_file():
        return
    cmd = [sys.executable, str(checkout / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--result", str(result)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if not result.is_file():
        sys.exit(f"compare.py: {' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")


def verdict(parent, change, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
    p_iqr = q[2] - q[0]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if win_frac >= 0.9 and sign * (c_med - p_med) > p_iqr:
        v = "improved"
    elif sign * (c_med - p_med) < -bound * abs(p_med):
        v = "regressed"
    elif p_med and p_iqr / abs(p_med) > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return win_frac, v


def summary(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return f"{med:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--out", type=pathlib.Path,
                        help="result directory (default: "
                             "<change>/.bench_build/e2e/compare)")
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    out = (args.out or change / ".bench_build" / "e2e" / "compare").resolve()
    out.mkdir(parents=True, exist_ok=True)

    bench = json.loads((change / "BENCHMARK.json").read_text())
    if json.loads((parent / "BENCHMARK.json").read_text()) != bench:
        print("compare.py: warning: BENCHMARK.json differs between the "
              "checkouts; using the change's", file=sys.stderr)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = {"parent": parent, "change": change}

    results = {}
    for w in workloads:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                path = out / f"{side}-{w}-{k}.json"
                run_side(sides[side], w, args.seed + k, bench["run_seconds"],
                         path)
                results[side, w, k] = json.loads(path.read_text())

    metas = {tuple(r["meta"][key] for key in META_KEYS)
             for r in results.values()}
    if len(metas) != 1:
        sys.exit("compare.py: refusing to compare runs with different "
                 f"{'/'.join(META_KEYS)}: {sorted(metas)}")

    for w in workloads:
        failed = {s: sum(results[s, w, k]["failed"] for k in range(args.pairs))
                  for s in sides}
        print(f"\n{w}: {args.pairs} pairs, failed ops parent={failed['parent']}"
              f" change={failed['change']}")
        print(f"  {'metric':18s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'wins':>5s}  verdict")
        for m in bench["end_to_end"]:
            vals = {s: [results[s, w, k]["metrics"][m["name"]]["value"]
                        for k in range(args.pairs)] for s in sides}
            win_frac, v = verdict(vals["parent"], vals["change"], m["bound"],
                                  m["better"])
            if v == "improved" and failed["change"] > failed["parent"]:
                v = "unchanged (more failed ops)"
            print(f"  {m['name']:18s} {summary(vals['parent']):>32s} "
                  f"{summary(vals['change']):>32s} {win_frac:5.2f}  {v}")


if __name__ == "__main__":
    main()
