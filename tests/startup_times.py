"""Time whole `landauvar` commands in fresh interpreters on two source trees.

Usage: python tests/startup_times.py BASE HEAD [--pairs N]

BASE and HEAD are checkouts; each side runs `python -m landauvar.cli` with
its own `src` directory on PYTHONPATH.  For each command below the script
runs N pairs (at least 15) of fresh interpreters, alternating which side runs
first, and prints each side's median wall time, the median of the per-pair
ratios HEAD / BASE and how many pairs HEAD won.  A process's wall time
includes the interpreter's own start-up, and the environment is passed on as
it is, so whether bytecode is cached (PYTHONDONTWRITEBYTECODE) is part of the
measurement.  The tier-1 tests do not run this script.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = [
    ["--help"],
    ["symanzik", "bubble"],
    ["homrank", "--n", "2", "--m", "1", "--I", "1", "--degree", "1"],
    ["variation", "audit", "bubble", "--max-len", "3"],
    ["analyze", "bubble"],
    ["track", "bubble", "--chart", "x1=1", "--var", "x2", "--loop", "psq:center=9,r=0.1",
     "--fix", "m1sq=1,m2sq=4"],
]


def run_once(tree: Path, argv: list) -> float:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "landauvar.cli", *argv], env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--pairs", type=int, default=15)
    args = parser.parse_args(argv)
    if args.pairs < 15:
        parser.error("--pairs must be at least 15")
    print(f"{'command':<40} {'base ms':>8} {'head ms':>8} {'ratio':>6} {'won':>6}")
    for cmd in COMMANDS:
        base, head = [], []
        for i in range(args.pairs):
            sides = [(args.base, base), (args.head, head)]
            for tree, times in sides if i % 2 == 0 else sides[::-1]:
                times.append(run_once(tree, cmd))
        ratio = statistics.median(h / b for b, h in zip(base, head))
        won = sum(h < b for b, h in zip(base, head))
        print(f"{' '.join(cmd)[:40]:<40} {statistics.median(base) * 1e3:8.1f}"
              f" {statistics.median(head) * 1e3:8.1f} {ratio:6.2f} {won:>3}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
