"""The CLI prints the bytes the benchmark pins for each of its inputs, and the bytes
pinned here for two wider grids.

`bench/pins.json` maps each benchmark command line to the sha256 of its
stdout; a change to any table route that alters output shows up here.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "bench" / "pins.json"

# benchmark workload (at seed 0 unless named) -> its command line, a key of pins.json
SEED0_INPUTS = {
    "verify-grid": "verify --theorems all --max-n 10 --orders 0,1,2,3,4",
    "lambda-symbolic":
        "verify --theorems t3,t8,remark --max-n 10 --orders 0,2,4 --lambdas=-1,2,1/2 --symbolic-lambda",
    # the closed forms are built per lambda, so pin a second sample base too
    "lambda-symbolic-seed4":
        "verify --theorems t3,t8,remark --max-n 10 --orders 0,2,4 --lambdas=-1,1/2,-2 --symbolic-lambda",
    "connect-deep": "connect --from frobenius-euler:3:1/3 --to bernoulli:4 --max-n 60",
    # a negative, non-unit denominator through every integer loop of the table routes
    "connect-deep-seed5": "connect --from frobenius-euler:3:-3/2 --to bernoulli:4 --max-n 60",
}


# command line -> sha256 of its stdout, for grids wider than the benchmark's: every
# identity at N = 16, and the lambda identities at an order above N with a lambda of
# height 10^6 (about 0.15 s and 0.3 s)
WIDE_PINS = {
    "verify --theorems all --max-n 16 --orders 0,2,5":
        "31bf5024faac8d346a2052d53ee6c9036fb715e6bff2e830ff914984e756d3a9",
    "verify --theorems t3,t8,remark --max-n 12 --orders 0,3,15"
    " --lambdas=-1000001/999999,7/3,-5/2 --symbolic-lambda":
        "562037645dcf8dc36190e2059e4e4ef6932fa7838d46799e1de1da0157427839",
}


@pytest.mark.parametrize("command", WIDE_PINS)
def test_wide_grid_stdout_matches_its_digest(command):
    done = subprocess.run(
        [sys.executable, "-m", "umbra.cli", *command.split()], capture_output=True,
        cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == WIDE_PINS[command]


# every command line pinned, each named by its workload where SEED0_INPUTS names it
PINNED = json.loads(PINS.read_text()) if PINS.exists() else {}
_NAMES = {command: workload for workload, command in SEED0_INPUTS.items()}


@pytest.mark.parametrize("command", PINNED, ids=lambda command: _NAMES.get(command, command))
def test_stdout_matches_pinned_digest(command):
    done = subprocess.run(
        [sys.executable, "-m", "umbra.cli", *command.split()], capture_output=True,
        cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == PINNED[command]


def test_traced_run_prints_the_untraced_bytes():
    # bench/traced.py wraps the public callables in every umbra namespace, so code
    # that compares one of them by identity would change course under the trace
    for command in ("verify --theorems all --max-n 5 --orders 0,2",
                    "connect --from frobenius-euler:2:-3/2 --to bernoulli:3 --max-n 12"):
        plain, traced = (
            subprocess.run([sys.executable, *prefix, *command.split()], capture_output=True,
                           cwd=ROOT, timeout=120)
            for prefix in (["-m", "umbra.cli"], [str(ROOT / "bench" / "traced.py")]))
        assert plain.returncode == traced.returncode == 0, (command, traced.stderr.decode())
        assert traced.stdout == plain.stdout, command
