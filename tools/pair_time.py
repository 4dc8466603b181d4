"""Time `python -m umbra.cli ARGS` from two source trees in alternation.

Usage, from the repository root, against the parent commit checked out beside it::

    git worktree add ../parent HEAD~1
    python3 tools/pair_time.py --rounds 40 ../parent/src src -- --version

A round runs each side once, and the side that goes first alternates from round to
round; one untimed warm-up per side writes the bytecode cache before the first.  Each
child is started and timed by bench/run.py's own functions: the caller's environment
without its PYTHON* and UMBRA_* variables, PYTHONPATH set to its side's tree, checked
to import umbra from there.  The script prints each side's wall-time min, median and
quartiles, the median of the paired ratios new/base, and the rounds the new side won.
It exits 1 if the sides ever differ in exit code or stdout.  Standard library only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from run import check_hermetic, child_env, shoot  # noqa: E402


def summary(name: str, walls: list[float]) -> str:
    q1, median, q3 = (1000 * q for q in statistics.quantiles(walls, n=4, method="inclusive"))
    return (f"{name}: min {1000 * min(walls):.1f} ms, median {median:.1f} ms, "
            f"quartiles {q1:.1f}-{q3:.1f} ms over {len(walls)} runs")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s [--rounds N] BASE_SRC NEW_SRC -- UMBRA_ARGS...")
    parser.add_argument("base", type=Path, help="the tree timed against, e.g. the parent's src")
    parser.add_argument("new", type=Path, help="the tree under test, e.g. src")
    parser.add_argument("--rounds", type=int, default=20)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    cli = ["-m", "umbra.cli", *argv[split + 1:]]
    sides = {"base": (args.base, child_env(args.base)), "new": (args.new, child_env(args.new))}
    for src, env in sides.values():
        check_hermetic(env, src)
        shoot(cli, env)  # warm-up
    walls = {"base": [], "new": []}
    differ = 0
    for i in range(args.rounds):
        shots = {name: shoot(cli, sides[name][1])
                 for name in (("new", "base") if i % 2 else ("base", "new"))}
        for name, shot in shots.items():
            walls[name].append(shot.wall_s)
        differ += len({(shot.code, shot.stdout) for shot in shots.values()}) > 1
    for name in ("base", "new"):
        print(summary(name, walls[name]))
    ratios = [new / base for new, base in zip(walls["new"], walls["base"])]
    wins = sum(new < base for new, base in zip(walls["new"], walls["base"]))
    print(f"median ratio new/base {statistics.median(ratios):.3f}; "
          f"new won {wins} of {args.rounds}")
    if differ:
        print(f"{differ} of {args.rounds} rounds differ in exit code or stdout", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
