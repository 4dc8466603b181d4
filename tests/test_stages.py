"""tools/stages.py times each stage of connect's document in process, from the same functions."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = ["whole document", "pairs", "fbar", "transfer table", "store builds", "check",
          "row text", "writer", "sum of stages"]


def test_stages_times_every_stage_of_a_connection_document():
    done = subprocess.run(
        [sys.executable, "tools/stages.py", "--max-n", "4", "--repeat", "2", "hermite", "euler:2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    head, *lines = done.stdout.splitlines()
    assert head == "hermite -> euler:2 at N = 4, best of 2, ms"
    assert [re.fullmatch(r"(.+?) +\d+\.\d{3}", line)[1] for line in lines] == STAGES, done.stdout
