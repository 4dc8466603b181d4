"""tools/loc.py splits every line of a module into code, docstring, comment or blank."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_loc_counts_add_up_to_each_module_length():
    out = subprocess.run([sys.executable, "tools/loc.py", "src/umbra"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0].split() == ["module", "code", "docstring", "comment", "blank"]
    counts = {row.split()[0]: [int(x) for x in row.split()[1:]] for row in out[1:]}
    modules = sorted(ROOT.glob("src/umbra/*.py"))
    assert sorted(counts) == sorted(str(p.relative_to(ROOT)) for p in modules) + ["total"]
    for path in modules:
        assert sum(counts[str(path.relative_to(ROOT))]) == len(path.read_text().splitlines())
    assert counts["total"] == [sum(c[i] for m, c in counts.items() if m != "total")
                               for i in range(4)]
    assert all(c[1] > 0 for c in counts.values())  # every module opens with a docstring
