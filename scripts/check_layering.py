#!/usr/bin/env python3
"""Fail when a codec-layer source includes the pipeline or I/O layers, or
when a parser hand-writes the count bound ByteReader::read_count owns.

The codecs (src/codec/) and compressors (src/compressors/) sit below the
streamed pipelines (src/core/) and the containers (src/io/): those layers
call down into them, never the other way round. This check fails, naming
each file and line, when anything under the two lower directories
includes "core/..." or "io/...", and when any source under src/ other
than common/bytes.h divides `remaining().size()` (the bytes left) to
bound a count: that bound is read_count's alone.

    python3 scripts/check_layering.py [--root <checkout>]

ctest runs it as check_layering.
"""
import argparse
import pathlib
import re
import sys

LOWER = ("src/codec", "src/compressors")
INCLUDE = re.compile(r'^\s*#\s*include\s*[<"]((?:core|io)/[^">]*)[">]')
COUNT_BOUND = re.compile(r"remaining\(\)\.size\(\)\s*/")
COUNT_BOUND_OWNER = pathlib.Path("src/common/bytes.h")


def sources(root: pathlib.Path, top: str):
    for path in sorted((root / top).rglob("*")):
        if path.suffix in (".h", ".cpp"):
            yield path, path.relative_to(root)


def violations(root: pathlib.Path):
    for lower in LOWER:
        for path, rel in sources(root, lower):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                match = INCLUDE.match(line)
                if match:
                    yield rel, lineno, f"includes {match.group(1)}"
    for path, rel in sources(root, "src"):
        if rel == COUNT_BOUND_OWNER:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if COUNT_BOUND.search(line):
                yield rel, lineno, "bounds a count by hand; use read_count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    if not all((args.root / lower).is_dir() for lower in LOWER):
        sys.exit(f"check_layering.py: no {' or '.join(LOWER)} under "
                 f"{args.root}")
    found = list(violations(args.root))
    for path, lineno, what in found:
        print(f"{path}:{lineno}: {what}", file=sys.stderr)
    if found:
        print(f"layering check failed: {len(found)} violation(s)",
              file=sys.stderr)
        return 1
    print("layering check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
