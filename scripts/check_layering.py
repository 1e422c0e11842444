#!/usr/bin/env python3
"""Fail when a codec-layer source includes the pipeline or I/O layers.

The codecs (src/codec/) and compressors (src/compressors/) sit below the
streamed pipelines (src/core/) and the containers (src/io/): those layers
call down into them, never the other way round. This check fails, naming
each file and line, when anything under the two lower directories
includes "core/..." or "io/...".

    python3 scripts/check_layering.py [--root <checkout>]

ctest runs it as check_layering.
"""
import argparse
import pathlib
import re
import sys

LOWER = ("src/codec", "src/compressors")
INCLUDE = re.compile(r'^\s*#\s*include\s*[<"]((?:core|io)/[^">]*)[">]')


def violations(root: pathlib.Path):
    for lower in LOWER:
        for path in sorted((root / lower).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                match = INCLUDE.match(line)
                if match:
                    yield path.relative_to(root), lineno, match.group(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    if not all((args.root / lower).is_dir() for lower in LOWER):
        sys.exit(f"check_layering.py: no {' or '.join(LOWER)} under "
                 f"{args.root}")
    found = list(violations(args.root))
    for path, lineno, header in found:
        print(f"{path}:{lineno}: includes {header}", file=sys.stderr)
    if found:
        print(f"layering check failed: {len(found)} upward include(s) from "
              f"{' / '.join(LOWER)} into core/ or io/", file=sys.stderr)
        return 1
    print("layering check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
