"""Run one umbra CLI invocation with the public callables of every layer traced.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python bench/traced.py verify --theorems all --max-n 10 --orders 0,1,2,3,4

The umbra document goes to stdout byte for byte as ``python -m umbra.cli``
would write it, and the exit code is the CLI's.  After the run one JSON line
of per-layer metrics goes to stderr.

Nothing under ``src/`` is edited: after import, each public function and each
public method or arithmetic operator of a public class is replaced by a
wrapper that records a span (name, start, end, parent) in memory.  The
replacement is made in every umbra namespace that binds the callable, so a
name imported with ``from .families import family_polys`` is traced too.
Per-scalar helpers stay bare (see ``BARE``): ``as_rational`` alone runs about
1.2 million times on the full verify grid at N = 16, so a span per call would
cost more than the work it times.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
import time
from pathlib import Path

#: umbra's modules that do work, outermost first; ``errors`` holds none.
LAYERS = ("cli", "identities", "families", "umbral", "polynomials", "series")

_OPERATORS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "truediv", "__pow__": "pow",
}

#: Constructors that do real work; their span carries the class name.
BUILDS = {"umbral.ShefferPair"}

#: Called once per scalar: a span each would cost more than the work it times.
BARE = {"series.as_rational", "series.coeff", "polynomials.coeff"}

_COEFF_SPAN = re.compile(r"identities\.(t\d+|remark)_coeff")

# fields of a Tracer.stats() row
_CALLS, _TOTAL, _SELF = 0, 1, 2


class Tracer:
    """Spans kept in parallel lists; the index of a span is its id."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open = [-1]

    def wrap(self, name, fn):
        names, parents, starts, ends, open_ = (
            self.names, self.parents, self.starts, self.ends, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def stats(self) -> dict[str, list]:
        """Per span name: [calls, total_s, self_s].

        Self time is a span's duration minus the durations of its direct
        children.  Total time counts only the outermost span of a name, so
        a callable that re-enters itself is not counted twice.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        out: dict[str, list] = {}
        outer_end: dict[str, float] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[_CALLS] += 1
            row[_SELF] += durations[i] - covered[i]
            # spans of one name nest or are disjoint, and ids follow start order
            if self.starts[i] >= outer_end.get(name, float("-inf")):
                row[_TOTAL] += durations[i]
                outer_end[name] = self.ends[i]
        return out


def _candidates(layer: str, module):
    """(span name, callable) for each public callable the layer defines."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if meth == "__init__" and f"{layer}.{attr}" in BUILDS:
                    yield f"{layer}.{attr}", fn
                elif inspect.isfunction(fn) and (meth in _OPERATORS or not meth.startswith("_")):
                    yield f"{layer}.{_OPERATORS.get(meth, meth)}", fn
        elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield f"{layer}.{attr}", obj


def install(tracer: Tracer):
    """Wrap every layer's public callables wherever umbra binds them."""
    import umbra.cli  # noqa: F401  (imports every layer)

    wrappers = {}
    for layer in LAYERS:
        for name, fn in _candidates(layer, sys.modules[f"umbra.{layer}"]):
            if name not in BARE and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, tracer.wrap(name, fn))
    namespaces = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "umbra" or mod_name.startswith("umbra."):
            namespaces.append(module)
            namespaces.extend(
                obj for obj in vars(module).values()
                if inspect.isclass(obj) and obj.__module__ == mod_name)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])


#: Per-layer metrics read off one span name: (metric, span name, field).
_NAMED = [
    ("polynomials.stirling2.calls", "polynomials.stirling2", _CALLS),
    ("polynomials.stirling2.total_s", "polynomials.stirling2", _TOTAL),
    ("umbral.pair_builds", "umbral.ShefferPair", _CALLS),
    ("umbral.sheffer_polys.calls", "umbral.sheffer_polys", _CALLS),
    ("umbral.sheffer_polys.total_s", "umbral.sheffer_polys", _TOTAL),
    ("families.family_polys.calls", "families.family_polys", _CALLS),
    ("families.family_numbers.calls", "families.family_numbers", _CALLS),
    ("series.mul.calls", "series.mul", _CALLS),
    ("series.mul.self_s", "series.mul", _SELF),
    ("series.compose.total_s", "series.compose", _TOTAL),
    ("series.reciprocal.total_s", "series.reciprocal", _TOTAL),
    ("series.exp.total_s", "series.exp", _TOTAL),
    ("series.pow.total_s", "series.pow", _TOTAL),
    ("series.comp_inverse.total_s", "series.comp_inverse", _TOTAL),
    ("umbral.connection_coeffs.total_s", "umbral.connection_coeffs", _TOTAL),
    ("umbral.connection_oracle.total_s", "umbral.connection_oracle", _TOTAL),
]


def layer_metrics(stats: dict[str, list]) -> dict[str, float]:
    """The per-layer metrics that come from spans."""
    def summed(spans, field):
        return sum((stats[name][field] for name in spans), 0 if field == _CALLS else 0.0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        spans = [name for name in stats if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = summed(spans, _CALLS)
        out[f"{layer}.self_s"] = summed(spans, _SELF)
    for metric, span, field in _NAMED:
        out[metric] = summed([span] if span in stats else [], field)
    coeff = [name for name in stats if _COEFF_SPAN.fullmatch(name)]
    out["identities.coeff.calls"] = summed(coeff, _CALLS)
    out["identities.coeff.total_s"] = summed(coeff, _TOTAL)
    return out


def main(argv: list[str]) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    import umbra

    if not Path(umbra.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"umbra imported from {umbra.__file__}, not from {src}")
    tracer = Tracer()
    install(tracer)
    code = umbra.cli.main(argv)
    sys.stdout.flush()
    print(json.dumps(layer_metrics(tracer.stats())), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
