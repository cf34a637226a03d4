"""Spans and work counters around the package's public functions.

The tracer wraps functions from outside the package: it rebinds every name
in every loaded `cluster_logcc` module that refers to a wrapped function, and
replaces the wrapped `LaurentPoly` methods on the class, so calls through
`from .pattern import mutate` bindings and operators are traced too.

Each call records a span (name, start, end, parent span, run id) in flat
arrays; a function's self time is the sum over its spans of the span's
duration minus the durations of its direct child spans.  Functions that are
not wrapped (all of `tropical`, private helpers) count towards the self time
of the nearest wrapped caller, and so do the wrappers' own bookkeeping and
counter updates; `trace.overhead_s` in the benchmark measures their total.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> (module, attribute).  An attribute "Class.method" is replaced
# on the class; anything else is a module-level function.
TARGETS: Dict[str, Tuple[str, str]] = {
    "poly.mul": ("poly", "LaurentPoly.__mul__"),
    "poly.add": ("poly", "LaurentPoly.__add__"),
    "poly.div_exact": ("poly", "LaurentPoly.div_exact"),
    "poly.substitute_ones": ("poly", "LaurentPoly.substitute_ones"),
    "poly.normalize_denominator": ("poly", "normalize_denominator"),
    "poly.is_log_concave": ("poly", "is_log_concave"),
    "pattern.mutate": ("pattern", "mutate"),
    "pattern.mutate_matrix": ("pattern", "mutate_matrix"),
    "pattern.canonical_seed_key": ("pattern", "canonical_seed_key"),
    "pattern.state_step": ("pattern", "state_step"),
    "pattern.cg_step": ("pattern", "cg_step"),
    "pattern.d_vector_step": ("pattern", "d_vector_step"),
    "pattern.f_data": ("pattern", "f_data"),
    "pattern.check_separation": ("pattern", "check_separation"),
    "pattern.enumerate_exchange_graph": ("pattern", "enumerate_exchange_graph"),
    "polygon.enumerate_t_paths": ("polygon", "enumerate_t_paths"),
    "polygon.tpath_monomial": ("polygon", "tpath_monomial"),
    "polygon.expand_variable": ("polygon", "expand_variable"),
    "verify.run_claim": ("verify", "run_claim"),
    "verify.a2_basis": ("verify", "a2_basis"),
    "cli.main": ("cli", "main"),
}

COUNTERS = (
    "poly.mul.term_products",
    "poly.add.terms_in",
    "poly.div_exact.term_products",
    "poly.max_terms",
    "pattern.mutate.distinct_exchanges",
    "polygon.paths",
)


def _exchange_key(seed, k: int) -> tuple:
    """(outgoing variable, y_k, signed neighbour multiset) of a mutation.

    Term sets stand in for the polynomials, so the key is exact without
    touching the polynomials' cached sort keys.
    """
    kk = k - 1
    neighbours = Counter(
        (seed.B[j][kk], frozenset(seed.cluster[j].terms.items()))
        for j in range(seed.n)
        if seed.B[j][kk]
    )
    return (
        frozenset(seed.cluster[kk].terms.items()),
        seed.y[kk].exponents,
        frozenset(neighbours.items()),
    )


class Tracer:
    """Installs span-recording wrappers for the life of the process."""

    def __init__(self, package) -> None:
        self.names: List[str] = list(TARGETS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.run_id = 0
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._exchanges: set = set()
        self._stack: List[int] = [-1]  # open span ids; -1 is the root
        modules = {
            name: mod
            for name, mod in vars(package).items()
            if getattr(mod, "__name__", "").startswith(package.__name__ + ".")
        }
        hooks = self._hooks()
        for nid, name in enumerate(self.names):
            modname, attr = TARGETS[name]
            mod = modules.get(modname)
            if mod is None:
                raise RuntimeError(f"module cluster_logcc.{modname} is not loaded")
            self._install(nid, mod, attr, [package, *modules.values()], hooks.get(name))

    def _install(self, nid: int, mod, attr: str, namespaces: list, hook) -> None:
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, fname, None)
        if original is None:
            raise RuntimeError(f"cannot trace {mod.__name__}.{attr}: no such attribute")
        wrapper = self._wrapper(original, nid, hook)
        if owner_name:
            targets = [owner]
        else:
            targets = [ns for ns in namespaces if vars(ns).get(fname) is original]
        for target in targets:
            setattr(target, fname, wrapper)

    def _hooks(self) -> Dict[str, Callable]:
        """Counter updates, run after the span closes, keyed by span name."""
        c = self.counters
        seen = self._exchanges

        def grow(result) -> None:
            if len(result.terms) > c["poly.max_terms"]:
                c["poly.max_terms"] = len(result.terms)

        def mul(args, result) -> None:
            c["poly.mul.term_products"] += len(args[0].terms) * len(args[1].terms)
            grow(result)

        def add(args, result) -> None:
            c["poly.add.terms_in"] += len(args[0].terms) + len(args[1].terms)
            grow(result)

        def div_exact(args, result) -> None:
            c["poly.div_exact.term_products"] += len(result.terms) * len(args[1].terms)
            grow(result)

        def mutate(args, result) -> None:
            seen.add(_exchange_key(*args))
            c["pattern.mutate.distinct_exchanges"] = len(seen)

        def t_paths(args, result) -> None:
            c["polygon.paths"] += len(result)

        return {
            "poly.mul": mul,
            "poly.add": add,
            "poly.div_exact": div_exact,
            "pattern.mutate": mutate,
            "polygon.enumerate_t_paths": t_paths,
        }

    def _wrapper(self, fn: Callable, nid: int, hook: Optional[Callable]) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # ---- results ----

    def layer_metrics(self) -> Dict[str, float]:
        """`<name>.calls`, `<name>.self_s` for every wrapped name, plus counters."""
        n = len(self.span_start)
        child = [0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
        out.update(self.counters)
        return out

    def write(self, path, run_labels: List[str]) -> None:
        """A JSON header line, then one tab-separated line per span:
        name id, start ns, end ns, parent span (-1 for none), run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "runs": run_labels}) + "\n")
            rows = zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_run
            )
            fh.writelines(f"{a}\t{b}\t{c}\t{d}\t{e}\n" for a, b, c, d, e in rows)
