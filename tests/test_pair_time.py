"""tools/pair_time.py times the CLI from two trees in alternation and compares their output."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pair_time_compares_two_trees_round_by_round():
    done = subprocess.run(
        [sys.executable, "tools/pair_time.py", "--rounds", "2", "src", "src", "--", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    side = r"min [\d.]+ ms, median [\d.]+ ms, quartiles [\d.]+-[\d.]+ ms over 2 runs"
    base, new, paired = done.stdout.splitlines()
    assert re.fullmatch(f"base: {side}", base) and re.fullmatch(f"new: {side}", new), done.stdout
    assert re.fullmatch(r"median ratio new/base [\d.]+; new won [012] of 2", paired), paired
