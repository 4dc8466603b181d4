"""End-to-end and per-layer benchmark of the umbra CLI.

Usage, from the repository root::

    python3 bench/run.py --workload verify-grid --seed 0 --seconds 36 --trace 0

Each workload is a closed loop on one thread: a fresh ``python -m umbra.cli``
process against this tree's ``src/``, the next one started when the previous
one has exited, for ``--seconds`` seconds.  ``--trace 0`` pairs each such
invocation with one of ``bench/baseline/``, a copy of umbra kept as it was
when the benchmark was written, and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced runs with runs of
``bench/traced.py`` and reports the per-layer metrics.
The last line of stdout is one JSON object; the exit code is 0 only when
every invocation was correct.  See ``bench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from traced import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: umbra's sources as they were when this benchmark was written.  The host's
#: speed drifts by up to 2x within minutes, so a time alone says little; a
#: time over that of this copy, run right beside it on the same arguments,
#: says how much faster or slower this tree is.  Never edit it.
BASELINE = BENCH / "baseline"
PINS = BENCH / "pins.json"

#: Degree bounds.  An invocation takes about a second at most, so that a run
#: holds enough pairs for a steady median ratio (see README).
N_VERIFY = 10
N_CONNECT = 60
CATALOG = ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "remark")
LAMBDA_IDS = ("t3", "t8", "remark")
DEFAULT_SAMPLES = 3  # umbra's default --lambdas is -1,2,1/2

# Seeded inputs come from pools of rationals of equal height max(|p|, |q|),
# so every seed costs about the same.  Index 0 is the seed-0 input.
CONNECT_LAMBDAS = ("1/3", "-1/3", "2/3", "-2/3", "3/2", "-3/2", "3", "-3")
_HEIGHT_TWO = ("2", "1/2", "-2", "-1/2")
SYMBOLIC_BASES = tuple(
    f"-1,{a},{b}" for a in _HEIGHT_TWO for b in _HEIGHT_TWO if a != b)


def _triangle(lo: int, hi: int) -> int:
    """Coefficient equations in comparing polynomials of degrees lo..hi."""
    return sum(n + 1 for n in range(lo, hi + 1))


@dataclass(frozen=True)
class Verify:
    argv: tuple[str, ...]
    #: (theorem, order, lambda samples) of each report, in the order umbra emits them
    cells: tuple[tuple[str, int, int], ...]

    @property
    def equations(self) -> int:
        """Exact coefficient equations one invocation decides."""
        return sum(
            max(samples, 1) * _triangle(order if tid == "t7" else 0, N_VERIFY)
            for tid, order, samples in self.cells)

    def output_ok(self, doc: dict) -> bool:
        got = [(r["theorem"], r["order"], len(r["lambdas"]), r["status"]) for r in doc["reports"]]
        return doc["all_pass"] is True and got == [cell + ("PASS",) for cell in self.cells]


@dataclass(frozen=True)
class Connect:
    argv: tuple[str, ...]
    #: one equation per table entry, decided by both routes agreeing
    equations = _triangle(0, N_CONNECT)

    def output_ok(self, doc: dict) -> bool:
        widths = [len(row["coefficients"]) for row in doc["rows"]]
        return doc["routes_agree"] is True and widths == list(range(1, N_CONNECT + 2))


def _verify(theorems, orders, symbolic: bool, lambdas: str | None = None) -> Verify:
    argv = ["verify", "--theorems", "all" if theorems == CATALOG else ",".join(theorems),
            "--max-n", str(N_VERIFY), "--orders", ",".join(map(str, orders))]
    if lambdas is not None:
        argv.append(f"--lambdas={lambdas}")  # one token: the list may start with "-"
    if symbolic:
        argv.append("--symbolic-lambda")
    cells = []
    for tid in theorems:
        # with --theorems all, t6 runs once at the smallest order above max-n
        for r in [N_VERIFY + 1] if tid == "t6" and theorems == CATALOG else orders:
            samples = (N_VERIFY + r + 1 if symbolic else DEFAULT_SAMPLES) if tid in LAMBDA_IDS else 0
            cells.append((tid, r, samples))
    return Verify(tuple(argv), tuple(cells))


WORKLOADS = {
    "verify-grid": lambda seed: _verify(CATALOG, range(5), symbolic=False),
    "lambda-symbolic": lambda seed: _verify(
        LAMBDA_IDS, (0, 2, 4), symbolic=True,
        lambdas=SYMBOLIC_BASES[seed % len(SYMBOLIC_BASES)]),
    "connect-deep": lambda seed: Connect((
        "connect", "--from", f"frobenius-euler:3:{CONNECT_LAMBDAS[seed % len(CONNECT_LAMBDAS)]}",
        "--to", "bernoulli:4", "--max-n", str(N_CONNECT))),
}


@dataclass(frozen=True)
class Shot:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment without Python or umbra settings, importing
    umbra from ``src`` only.  UMBRA_THREADS is unset, the CLI default, and
    PYTHONDONTWRITEBYTECODE too, so the warm-up's bytecode cache is used."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "UMBRA_"))}
    env["PYTHONPATH"] = str(src)
    return env


def shoot(args, env) -> Shot:
    """Run ``python <args>`` to completion and read its own rusage from wait4.

    getrusage(RUSAGE_CHILDREN) would not do: its peak RSS is a running
    maximum over every child reaped so far.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with proc.stdout, proc.stderr:
            out = proc.stdout.read()  # stderr is small: an error line or the trace summary
            err = proc.stderr.read()
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Shot(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode, out, err)


def check_hermetic(env, src: Path):
    """Refuse to run unless the children import umbra from ``src``."""
    if not (src / "umbra" / "cli.py").is_file():
        raise SystemExit(f"no umbra sources under {src}")
    shot = shoot(["-c", "import umbra.cli; print(umbra.__file__)"], env)
    where = Path(shot.stdout.decode().strip() or "?").resolve()
    if shot.code != 0 or not where.is_relative_to(src.resolve()):
        raise SystemExit(f"children import umbra from {where}, not from {src}")


def setup_seconds(env) -> float:
    """Time for a fresh interpreter to import umbra and parse --version."""
    shot = shoot(["-m", "umbra.cli", "--version"], env)
    if shot.code != 0 or not re.fullmatch(rb"umbra \S+\n", shot.stdout):
        raise SystemExit(f"--version failed: {shot.stdout!r} {shot.stderr!r}")
    return shot.wall_s


def correct(work: Verify | Connect, shot: Shot, pins: dict[str, str] | None) -> bool:
    """Exit code 0, a passing document of the expected shape and, unless
    ``pins`` is None, the pinned stdout digest for these arguments."""
    if shot.code != 0:
        return False
    try:
        ok = work.output_ok(json.loads(shot.stdout))
    except (ValueError, KeyError, TypeError):
        return False
    return ok and (pins is None or
                   pins.get(" ".join(work.argv)) == hashlib.sha256(shot.stdout).hexdigest())


def closed_loop(seconds: float, step) -> list:
    """Results of calling ``step`` back to back, at least once, while the next
    call should end within ``seconds``, judged by the median call so far."""
    results, durations = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + statistics.median(durations) <= seconds:
        begin = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - begin)
    return results


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[int, int, dict]:
    """(attempted, failed, metric values) for one run of one workload."""
    work = WORKLOADS[name](seed)
    env = child_env(SRC)
    pins = json.loads(PINS.read_text())
    check_hermetic(env, SRC)
    cli = ["-m", "umbra.cli", *work.argv]
    warm_up = shoot(cli, env)  # untimed: writes the bytecode cache
    failed = not correct(work, warm_up, pins)
    if not trace:
        base_env = child_env(BASELINE)
        check_hermetic(base_env, BASELINE)
        # the pins follow this tree, whose output a change may mean to alter
        failed += not correct(work, shoot(cli, base_env), None)
        attempted, bad, values = _end_to_end(work, cli, env, base_env, pins, seconds)
        return attempted + 2, failed + bad, values
    attempted, bad, values = _per_layer(work, cli, env, pins, seconds)
    values["failed_frac"] = (failed + bad) / (attempted + 1)
    return attempted + 1, failed + bad, values


def _end_to_end(work: Verify | Connect, cli, env, base_env, pins, seconds):
    setups, turn = [], itertools.count()

    def step():
        # each side runs first every other time, so neither always follows the other
        if next(turn) % 2:
            base = shoot(cli, base_env)
            tree = shoot(cli, env)
        else:
            tree = shoot(cli, env)
            base = shoot(cli, base_env)
        # one --version shot per pair, so setup_s samples the whole run
        setups.append(setup_seconds(env))
        return tree, base

    pairs = closed_loop(seconds, step)
    for side, shots in (("tree", [t for t, _ in pairs]), ("baseline", [b for _, b in pairs])):
        walls = sorted(s.wall_s for s in shots)
        print(f"{side} wall_s over {len(walls)} invocations: fastest {walls[0]:.4f}, "
              f"median {statistics.median(walls):.4f}, slowest {walls[-1]:.4f}", file=sys.stderr)
    failed = sum((not correct(work, t, pins)) + (not correct(work, b, None)) for t, b in pairs)
    return 2 * len(pairs), failed, {
        "wall_vs_base": statistics.median(t.wall_s / b.wall_s for t, b in pairs),
        "cpu_vs_base": statistics.median(t.cpu_s / b.cpu_s for t, b in pairs),
        "peak_rss_mb": statistics.median(t.peak_rss_mb for t, _ in pairs),
        "setup_s": statistics.median(setups),
    }


def _per_layer(work: Verify | Connect, cli, env, pins, seconds):
    traced = [str(BENCH / "traced.py"), *work.argv]
    pairs = closed_loop(seconds, lambda: (shoot(cli, env), shoot(traced, env)))
    failed, layers = 0, []
    for plain, spanned in pairs:
        # the wrappers must not change a byte of the output
        same = spanned.stdout == plain.stdout
        failed += (not correct(work, plain, pins)) + (not (same and correct(work, spanned, pins)))
        summary = spanned.stderr.decode().strip().splitlines()
        layers.append(json.loads(summary[-1]) if spanned.code == 0 and summary else {})
    if not all(layers):
        return 2 * len(pairs), failed or 1, {}
    # counts repeat exactly between fresh processes; times take the median
    values = {
        key: (statistics.median_low if isinstance(layers[0][key], int) else statistics.median)(
            [m[key] for m in layers])
        for key in layers[0]}
    for layer in LAYERS:
        values[f"{layer}.lines"] = _lines(SRC / "umbra" / f"{layer}.py")
    values["src.lines"] = sum(_lines(p) for p in SRC.rglob("*.py"))
    values["cli.stdout_bytes"] = len(pairs[0][0].stdout)
    # whole untraced invocations, in seconds: the fastest, as other tenants
    # of the host only ever add time
    values["cli.wall_s"] = min(p.wall_s for p, _ in pairs)
    values["cli.cpu_s"] = min(p.cpu_s for p, _ in pairs)
    values["cli.coeff_eqs_per_s"] = work.equations / values["cli.wall_s"]
    values["trace.wall_s"] = min(s.wall_s for _, s in pairs)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["cli.wall_s"]
    return 2 * len(pairs), failed, values


def _lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM raises SystemExit, so shoot() stops its child before we exit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    attempted, failed, values = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    ok = failed == 0 and len(metrics) == len(listed)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
