"""Fail when two checkouts write different benchmark outputs.

    python .github/scripts/compare_digests.py BASE_DIR HEAD_DIR [--seed N]

Runs one pass of every benchmark workload in each checkout, with that
checkout's own `perfbench/run.py --seconds 0`, and compares the
`outputs digest` line of each workload.  The digest covers every task's
exit code and the bytes of every file it wrote, so any changed report
byte fails.  The harness must be the same on both sides, so CI skips
this check when a change touches `perfbench/`.  Exits 0 when all
digests agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

LINE = re.compile(r"^workload (\S+), seed|^  outputs digest (\S+)$")


def digests(checkout: Path, seed: int) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    found: dict[str, str] = {}
    workload = None
    for line in proc.stdout.splitlines():
        m = LINE.match(line)
        if m and m.group(1):
            workload = m.group(1)
        elif m and workload is not None:
            found[workload] = m.group(2)
    if not found:
        sys.exit(f"{checkout}: no outputs digest in the benchmark output")
    return found


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    base, head = digests(args.base, args.seed), digests(args.head, args.seed)
    differ = sorted(w for w in base.keys() | head.keys() if base.get(w) != head.get(w))
    for w in sorted(base.keys() | head.keys()):
        print(f"{w}: base {base.get(w)} head {head.get(w)}")
    if differ:
        print(f"outputs differ from the base commit on: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
