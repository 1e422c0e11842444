#!/usr/bin/env python3
"""Fail CI when a gated bench kernel regresses against its baseline.

Compares a fresh BENCH_*.json (written by a bench binary's kernel section)
against the matching file in bench/baselines/. Raw MB/s is
machine-dependent, so each kernel's throughput is first normalized by a
same-run calibration row before comparison; the check is on the ratio of
normalized throughputs:

    current_norm / baseline_norm  >=  1 - tolerance

Paired gating kernels normalize against an in-binary reference of the same
code path: huffman_decode against huffman_decode_reference,
huffman_decode_lowent against huffman_decode_reference_lowent,
huffman_decode_sz3 against huffman_decode_reference_sz3 (the code stream
of one NYX SZ3 slab), quantize_rows (LinearQuantizer::quantize_row, the
entry the CPU selects, over the rows of that slab's last interpolation
pass) against quantize_rows_reference (per-element quantize<float> over
the same rows), huffman_encode against huffman_encode_reference,
and huffman_encode_lowent against huffman_encode_reference_lowent
(bench_micro_codecs), zone_decode (parallel full-field zone decode)
against zone_decode_serial (bench_zone_scaling), streamed_write
(the streamed write on its codec lanes) against streamed_write_serial
(a one-thread reference compressing the same slabs in order and
appending them through the same container writer, byte-identical or the
bench exits FATAL; bench_transport_scaling), and streamed_read (the
streamed read of that container on its codec lanes) against
streamed_read_serial (the serial reference read, read_chunked_field,
bit-identical or the bench exits FATAL), so those two gates measure the
host overlap of the codec lanes. Both halves of a pair run
the identical payload in the same process seconds apart, which cancels
machine and noisy-neighbour variance far better than a bandwidth row can.
Because a pair shares its substrate (a regression there would slow both
and hide in the ratio), a second, looser memcpy-normalized gate
(tolerance 0.6) backstops substrate-wide slowdowns. All other kernels
normalize against `memcpy` for the informational report.

Every BENCH_*.json carries a "meta" object with the host and build keys
bench/e2e/compare.py matches on (nproc, optimize, ndebug, compiler) plus
the CMake build_type, which tells a -O2 RelWithDebInfo run from a -O3
Release one (both define __OPTIMIZE__ and NDEBUG). When both files carry
them and any differs, the check refuses to gate: a normalized ratio taken
across core counts, build types or compilers says nothing about the code.
A file without them is reported as unstamped and gated as before.

Only kernels listed via --kernel gate the build (default: the five
Huffman rows, quantize_rows, sz2_roundtrip, lz_compress and value_range
of bench_micro_codecs); everything else is reported for the artifact log.
value_range (Field::value_range over the micro field) is memcpy-normalized:
both rows stream the same bytes, and a scalar min/max loop reads about
0.45x of the baseline. To refresh a baseline after an intentional perf
change, either re-emit straight from the bench:

    ./build/bench_micro_codecs --reps=7 --json=bench/baselines/BENCH_codecs.json
    ./build/bench_zone_scaling --reps=7 --json=bench/baselines/BENCH_zones.json
    ./build/bench_transport_scaling --reps=7 \
        --json=bench/baselines/BENCH_transport.json

or promote a fresh run you already inspected with --update, which copies
--current over --baseline verbatim and skips gating:

    scripts/check_perf_baseline.py --current BENCH_transport.json \
        --baseline bench/baselines/BENCH_transport.json --update
"""

import argparse
import json
import shutil
import sys

META_KEYS = ("nproc", "optimize", "ndebug", "compiler", "build_type")


def throughput(kernels: dict, name: str) -> float:
    k = kernels.get(name)
    if k is None:
        raise SystemExit(f"kernel '{name}' missing from bench output")
    v = k.get("msyms_per_s", k.get("mbps"))
    if not v or v <= 0:
        raise SystemExit(f"kernel '{name}' has no throughput value")
    return float(v)


def host_build(doc: dict):
    """The doc's host/build stamp, or None when it lacks any key."""
    meta = doc.get("meta", {})
    if not all(key in meta for key in META_KEYS):
        return None
    return {key: meta[key] for key in META_KEYS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="bench/baselines/BENCH_codecs.json")
    ap.add_argument("--current", default="BENCH_codecs.json")
    ap.add_argument("--kernel", action="append", default=None,
                    help="gating kernel(s); default: huffman_decode, "
                         "huffman_decode_lowent, huffman_decode_sz3, "
                         "huffman_encode, "
                         "huffman_encode_lowent, quantize_rows, "
                         "sz2_roundtrip, lz_compress, value_range")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed normalized-throughput drop (default 0.25)")
    ap.add_argument("--update", action="store_true",
                    help="promote --current to --baseline and skip gating")
    args = ap.parse_args()
    gates = args.kernel or ["huffman_decode", "huffman_decode_lowent",
                            "huffman_decode_sz3",
                            "huffman_encode", "huffman_encode_lowent",
                            "quantize_rows", "sz2_roundtrip", "lz_compress",
                            "value_range"]

    if args.update:
        with open(args.current) as f:
            json.load(f)  # refuse to promote malformed output
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.current} -> {args.baseline}")
        return 0

    with open(args.baseline) as f:
        base_doc = json.load(f)
    with open(args.current) as f:
        cur_doc = json.load(f)
    base, cur = base_doc["kernels"], cur_doc["kernels"]

    stamps = {"baseline": host_build(base_doc),
              "current": host_build(cur_doc)}
    unstamped = [side for side, stamp in stamps.items() if stamp is None]
    if unstamped:
        print(f"unstamped: {' and '.join(unstamped)} carries no "
              f"{'/'.join(META_KEYS)}; gating without the host check")
    elif stamps["baseline"] != stamps["current"]:
        differ = [key for key in META_KEYS
                  if stamps["baseline"][key] != stamps["current"][key]]
        raise SystemExit(
            "refusing to gate: baseline and current were taken on "
            "different hosts or builds (" +
            ", ".join(f"{key}: {stamps['baseline'][key]!r} vs "
                      f"{stamps['current'][key]!r}" for key in differ) + ")")

    normalizers = {
        "huffman_decode": "huffman_decode_reference",
        "huffman_decode_lowent": "huffman_decode_reference_lowent",
        "huffman_decode_sz3": "huffman_decode_reference_sz3",
        "huffman_encode": "huffman_encode_reference",
        "huffman_encode_lowent": "huffman_encode_reference_lowent",
        "quantize_rows": "quantize_rows_reference",
        "zone_decode": "zone_decode_serial",
        "streamed_write": "streamed_write_serial",
        "streamed_read": "streamed_read_serial",
    }

    # A gated kernel absent from either file is a hard failure, not a
    # skip: a renamed or dropped bench row would otherwise disable its
    # gate silently and the check would keep "passing" forever.
    for name in gates:
        for side, kernels in (("baseline", base), ("current", cur)):
            if name not in kernels:
                raise SystemExit(
                    f"gated kernel '{name}' missing from {side} bench "
                    f"output — if the row was renamed, update the gate "
                    f"list and refresh bench/baselines/ (see module "
                    f"docstring)")
    # Backstop: the primary normalizer shares the bitstream substrate with
    # the gated kernel, so a substrate-wide slowdown cancels out of the
    # tight ratio; this looser memcpy-normalized bound still catches it.
    backstop_tolerance = 0.6

    def norm(kernels, name, cal):
        return throughput(kernels, name) / throughput(kernels, cal)

    print(f"{'kernel':<26} {'base':>10} {'current':>10} {'norm-ratio':>10}")
    failures = []
    for name in sorted(set(base) | set(cur)):
        if name == "memcpy" or name not in base or name not in cur:
            continue
        cal = normalizers.get(name, "memcpy")
        # Ungated rows whose normalizer is absent on one side (e.g. a
        # baseline predating a newly added reference row) are skipped
        # rather than crashing the report; gated kernels already
        # hard-failed above if either half of their pair is missing.
        if cal not in base or cal not in cur:
            continue
        ratio = norm(cur, name, cal) / norm(base, name, cal)
        gate = name in gates
        status = ""
        if gate:
            ok = ratio >= 1.0 - args.tolerance
            if ok and cal != "memcpy":
                loose = (norm(cur, name, "memcpy") /
                         norm(base, name, "memcpy"))
                if loose < 1.0 - backstop_tolerance:
                    ok = False
                    ratio = loose
            status = "  OK" if ok else "  REGRESSION"
            if not ok:
                failures.append((name, ratio))
        print(f"{name:<26} {throughput(base, name):>10.1f} "
              f"{throughput(cur, name):>10.1f} {ratio:>10.2f}{status}")

    if failures:
        for name, ratio in failures:
            print(f"FAIL: {name} normalized throughput at {ratio:.2f}x of "
                  f"baseline (tolerance {1 - args.tolerance:.2f}x)",
                  file=sys.stderr)
        return 1
    print("perf baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
