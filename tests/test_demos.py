"""Every demo script runs to completion and prints the bytes pinned for it, and
README's library example gives the result written beside each of its lines."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo -> sha256 of its stdout; a change to any route a demo prints shows up here
STDOUT_SHA256 = {
    "01_series_arithmetic.py": "33e5d06480c2253d1a440856e042d74d5244ed9127b74a13e3b52d4d5fa90d05",
    "02_polynomial_families.py": "46795db4170bfbb949d586b60added46aa138eaba18823b2437f639220277088",
    "03_connection_coefficients.py":
        "bee1a808c7ec6612f9215c8d4ecbdf46be89a034587b0ef41b8263378d8df0a7",
    "04_identity_gallery.py": "3de4a195608fce3f26d5e4ae769d9134bd3dac776673c901554000d6684df101",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, env=env, cwd=ROOT, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[script.name]


def test_readme_library_example_gives_its_commented_results():
    # each "# result" comment in "Library in one minute" is what its expression gives,
    # as print shows it (a Poly) or as the REPL does (the rest)
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library in one minute")[1].split("```python\n")[1].split("```")[0]
    lines, scope, checked = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, scope)
            continue
        got = eval(source, scope)
        want = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        assert want in (str(got), repr(got)), (source, got)
        checked.append(want)
    assert checked == ["12 - 48*x^2 + 16*x^4", "1/6 - x + x^2", "Fraction(1, 2)", "'PASS'"]
