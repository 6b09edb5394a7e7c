"""Outside-in tracing of heptalab's layers.

The tracer wraps every public function of the layer modules (not generator
functions, whose wrapper would time only the generator's creation, nor the
helpers in UNTRACED) and
rebinds the wrapper in every ``heptalab`` module that holds the original, so
calls through names imported with ``from .detect import ...`` are traced
too.  Each call is a span; a span's self time is its duration minus its
child spans.  Counts come from each call's arguments or return value.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("graph", "detect", "coloring", "corpus", "harmonious", "structures")

# A constant-time bit helper called ~600k times per structures repetition:
# its wrapper would cost more than the work it measures.
UNTRACED = frozenset({"graph.mask_of"})


# function -> counters taken from (args, return value)
EXTRACT = {
    "detect.find_odd_hole": lambda a, r: {"hits": int(r is not None)},
    "detect.has_c7_complement": lambda a, r: {"hits": int(bool(r))},
    "coloring.chromatic_number_exact": lambda a, r: {
        "nodes": r.nodes_explored,
        "greedy": int(r.nodes_explored == 0),
    },
    "harmonious.find_harmonious_cutset": lambda a, r: {
        "steps": r.steps,
        "found": int(r.status == "found"),
    },
    "harmonious.minimal_separators": lambda a, r: {"separators": len(r)},
    "harmonious.verify_harmonious": lambda a, r: {"yes": int(r.status == "yes")},
    "structures.recognize_t11_type": lambda a, r: {"hits": int(r is not None)},
    "structures.recognize_heptagram_type": lambda a, r: {"hits": int(r is not None)},
    "corpus.all_graphs_up_to": lambda a, r: {"graphs": len(r)},
    "corpus.nonisomorphic_graphs": lambda a, r: {f"order_{a[0]}": len(r)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, dict[str, int]] = {}
        self.broken: set[str] = set()  # extractors that no longer fit
        self.root_s = 0.0
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        counts = self.counts.setdefault(name, {})
        extract = EXTRACT.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
                stats[0] += 1
                stats[1] += dt - child
                stats[2] += dt
            if extract is not None:
                try:
                    got = extract(args, ret)
                except (AttributeError, TypeError, IndexError):
                    self.broken.add(name)
                else:
                    for key, val in got.items():
                        # repeat calls on one key keep the latest value
                        if key.startswith("order_"):
                            counts[key] = val
                        else:
                            counts[key] = counts.get(key, 0) + val
            return ret

        return traced

    def install(self) -> None:
        """Wrap and rebind; raise if any heptalab module keeps an original."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"heptalab.{layer}")
            except ModuleNotFoundError:
                continue  # a removed layer reports its metrics as absent
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED or inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    continue
                originals[id(obj)] = (name, obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "heptalab"]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
        for mod in modules:
            for attr, obj in vars(mod).items():
                refs = [obj]
                if inspect.isfunction(obj):
                    refs += list(obj.__defaults__ or ()) + list((obj.__kwdefaults__ or {}).values())
                for ref in refs:
                    if id(ref) in originals and originals[id(ref)][1] is ref:
                        raise RuntimeError(
                            f"{mod.__name__}.{attr} still references the untraced "
                            f"{originals[id(ref)][0]}"
                        )

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "broken": sorted(self.broken),
            "root_s": self.root_s,
        }
