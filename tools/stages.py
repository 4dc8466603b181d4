"""Time the stages of `umbra.cli.connection_document` in process.

Usage, from the repository root::

    python3 tools/stages.py [--max-n N] [--repeat K] [--src DIR] [SOURCE TARGET]

The pair defaults to frobenius-euler:3:1/3 -> bernoulli:4, connect-deep's, at N = 60.
Each stage calls the private function that the document calls, so a renamed function
fails here with an AttributeError rather than timing nothing:

- whole document: `cli.connection_document`, the family store cleared before each run;
- pairs: `families.sheffer_pair_of` for both descriptors, fbar not yet read;
- fbar: the first read of the source pair's `fbar` (`TruncatedSeries.comp_inverse`);
- transfer table: `umbral._connection_table`, fbar already read;
- store builds: `families._appell` for the target and the source, the store cleared;
- check: `identities._first_mismatch` on the warm store;
- row text: `cli._rows`;
- writer: `cli._json` of the whole document.

Each time is the best of K runs, in ms.  The script exits 1, before printing any time,
if the stages' results differ from the document's.  Standard library only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def best(k: int, run, setup=lambda: None):
    """The least of k wall times of run(setup()) in ms, setup untimed, and the last result."""
    times = []
    for _ in range(k):
        arg = setup()
        start = perf_counter()
        result = run(arg)
        times.append(perf_counter() - start)
    return 1000 * min(times), result


def stages(source, target, n: int, k: int) -> dict[str, float] | None:
    """Stage name -> best time in ms, or None when a stage's result is not the document's."""
    from umbra import cli, families, identities, umbral

    clear = families._store.clear
    times = {}
    times["whole document"], (doc, agree) = best(
        k, lambda _: cli.connection_document(source, target, n), clear)
    times["pairs"], (src, tgt) = best(
        k, lambda _: (families.sheffer_pair_of(source, n), families.sheffer_pair_of(target, n)))
    times["fbar"], fbar = best(k, lambda pair: pair.fbar, lambda: families.sheffer_pair_of(source, n))
    src.fbar  # read once, so that the table times no inversion
    times["transfer table"], table = best(k, lambda _: umbral._connection_table(src, tgt, n))
    times["store builds"], _ = best(
        k, lambda _: (families._appell(target, n), families._appell(source, n)), clear)
    times["check"], mismatch = best(
        k, lambda _: identities._first_mismatch(source, target, table, n))
    times["row text"], rows = best(k, lambda _: cli._rows(table))
    times["writer"], _ = best(k, lambda _: cli._json(doc, "\n"))
    if not agree or mismatch is not None or fbar != src.fbar or rows != doc["rows"]:
        return None
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("source", nargs="?", default="frobenius-euler:3:1/3")
    parser.add_argument("target", nargs="?", default="bernoulli:4")
    parser.add_argument("--max-n", type=int, default=60)
    parser.add_argument("--repeat", type=int, default=25, help="runs per stage, best taken")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the tree to import umbra from")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    from umbra.cli import parse_family_descriptor

    source, target = parse_family_descriptor(args.source), parse_family_descriptor(args.target)
    times = stages(source, target, args.max_n, args.repeat)
    if times is None:
        print("a stage's result differs from the document's", file=sys.stderr)
        return 1
    print(f"{args.source} -> {args.target} at N = {args.max_n}, best of {args.repeat}, ms")
    for name, ms in times.items():
        print(f"{name:<16}{ms:9.3f}")
    print(f"{'sum of stages':<16}{sum(times.values()) - times['whole document']:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
