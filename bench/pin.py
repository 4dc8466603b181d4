"""Rewrite bench/pins.json: the stdout sha256 of every seeded workload input.

Usage, from the repository root::

    python3 bench/pin.py

Run it only in a change that means to alter umbra's output; a change that
claims a speed-up must leave the pins as they are.  Each input is run once
and pinned only if it exits 0 with a passing document of the expected shape.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import (CONNECT_LAMBDAS, PINS, SRC, SYMBOLIC_BASES, WORKLOADS, check_hermetic,
                 child_env, shoot)

SEEDS = {"verify-grid": 1, "lambda-symbolic": len(SYMBOLIC_BASES),
         "connect-deep": len(CONNECT_LAMBDAS)}


def main() -> int:
    env = child_env(SRC)
    check_hermetic(env, SRC)
    pins = {}
    for name, count in SEEDS.items():
        for seed in range(count):
            work = WORKLOADS[name](seed)
            args = " ".join(work.argv)
            shot = shoot(["-m", "umbra.cli", *work.argv], env)
            if shot.code != 0 or not work.output_ok(json.loads(shot.stdout)):
                print(f"not pinned, output wrong: {args}", file=sys.stderr)
                return 1
            pins[args] = hashlib.sha256(shot.stdout).hexdigest()
            print(f"{pins[args][:12]}  {args}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
