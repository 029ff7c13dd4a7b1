"""Spans around calls into shiftperm's public functions.

The tracer never edits the package: it replaces, in every loaded
shiftperm module, each attribute that refers to a traced function by a
timing wrapper.  Modules bind names directly (analysis imports
ring_inverse itself), so patching only the defining module would miss
calls.  sympy is reached through the `sympy` attribute of poly2 and
analysis, which is swapped for a proxy whose three factoring helpers
are wrapped.  Per-step kernels (_clmul, _divmod_bits, rotate) are left
alone because a wrapper would cost more than they do.

A span records its id, its parent, the query it belongs to, its name,
its duration and its self time (duration minus the time covered by its
child spans).  Spans stay in memory; `aggregate` sums them per name.
"""

from __future__ import annotations

import sys
import time

from oracle import necklace_count

TRACED = {
    "analysis": (
        "analyze", "is_permutation", "is_permutation_bruteforce", "inverse", "xi",
        "xi_upper_bound", "inv_membership", "realize_xi", "algebraic_degree",
        "differential_uniformity", "perturb", "kappa_cofactor", "kappa_inverse_closed_form",
    ),
    "gammaspan": (
        "GammaCombination.__init__", "compose", "compose_oracle", "phi", "psi", "evaluate", "canonicalize",
    ),
    "ring": (
        "reduce", "ring_mul", "ring_inverse", "is_unit", "modulus_factorization",
        "unit_group_order",
    ),
    "poly2": (
        "gcd", "ext_gcd", "divrem", "is_irreducible", "irreducible_polys", "factor",
        "order", "find_irreducible_of_order",
    ),
    "tables": (
        "function_table", "gamma_table", "is_bijective", "moebius", "anf_degree",
        "shift_class_representatives", "ddt_max",
    ),
    "sympy": ("primefactors", "factorint", "divisors"),
}
MODULES = tuple(TRACED)
QUERY = "query"
TRACE_TAG = "perfbench-trace "  # prefixes the aggregate a traced CLI process writes to stderr


def _ddt_rows(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    classes = args[2] if len(args) > 2 else kwargs.get("shift_classes", False)
    return {"rows": necklace_count(n) - 1 if classes else (1 << n) - 1}


# counters recorded at the span boundary: name -> f(args, kwargs, result) -> {counter: amount}
COUNTERS = {
    "poly2.ext_gcd": lambda a, k, r: {"operand_bits": max(a[0].bits.bit_length(), a[1].bits.bit_length())},
    "poly2.is_irreducible": lambda a, k, r: {"true": int(r)},
    "tables.function_table": lambda a, k, r: {"bytes": r.nbytes},
    "tables.ddt_max": _ddt_rows,
}


class _Proxy:
    """Stands in for a module, with some attributes overridden."""

    def __init__(self, target, overrides: dict):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (span_id, parent_id, query_id, name, duration, self_time)
        self.counts = {}  # "name.counter" -> total
        self.absent = []  # traced names that no longer exist
        self.query_id = None
        self._stack = []  # open spans: [span_id, name, start, child_time]
        self._next_id = 0
        self._patched = []  # (module, attribute, original value)
        self._caches = {}  # name -> (cached function, cache_info at install)

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        span_id, name, start, child = self._stack.pop()
        duration = self.clock() - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self.query_id, name, duration, duration - child))

    def count(self, name: str, amounts: dict) -> None:
        for key, value in amounts.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + value

    def run_query(self, query_id, fn, *args):
        """Run fn(*args) under a root span carrying query_id."""
        self.query_id = query_id
        self.open(QUERY)
        try:
            return fn(*args)
        finally:
            self.close()
            self.query_id = None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None and self.query_id is not None:
                self.count(name, counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules=None) -> None:
        """Patch every shiftperm module attribute that refers to a traced function,
        and the traced methods on their classes."""
        if modules is None:
            modules = {k: v for k, v in sys.modules.items() if k == "shiftperm" or k.startswith("shiftperm.")}
        for mod_name, funcs in TRACED.items():
            if mod_name == "sympy":
                self._install_sympy(modules)
                continue
            source = modules.get(f"shiftperm.{mod_name}")
            for func in funcs:
                name = f"{mod_name}.{func}"
                owner, _, method = func.rpartition(".")
                holder = getattr(source, owner, None) if owner else source
                original = None if holder is None else getattr(holder, method, None)
                if not callable(original):
                    self.absent.append(name)
                elif owner:  # a method: patch the class, which every module shares
                    setattr(holder, method, self.wrap(name, original))
                    self._patched.append((holder, method, original))
                else:
                    if hasattr(original, "cache_info"):
                        self._caches[name] = (original, original.cache_info())
                    self._replace(modules, original, self.wrap(name, original))

    def _install_sympy(self, modules) -> None:
        sympy = sys.modules.get("sympy")
        if sympy is None:
            self.absent.extend(f"sympy.{f}" for f in TRACED["sympy"])
            return
        overrides = {}
        for func in TRACED["sympy"]:
            original = getattr(sympy, func, None)
            if callable(original):
                overrides[func] = self.wrap(f"sympy.{func}", original)
            else:
                self.absent.append(f"sympy.{func}")
        self._replace(modules, sympy, _Proxy(sympy, overrides))

    def _replace(self, modules, original, replacement) -> None:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def aggregate(self) -> dict:
        """Per-name [calls, inclusive seconds, self seconds] over the spans
        of queries, the counters, and the absent names."""
        by_name = {}
        for _, _, query_id, name, duration, self_time in self.spans:
            if query_id is None:  # work outside any query belongs to no query's wall time
                continue
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
        counts = dict(self.counts)
        for name, (fn, before) in self._caches.items():
            after = fn.cache_info()
            counts[f"{name}.cache_hits"] = after.hits - before.hits
            counts[f"{name}.cache_misses"] = after.misses - before.misses
        return {"spans": by_name, "counts": counts, "absent": sorted(self.absent)}


def merge(aggregates) -> dict:
    """Sum several aggregates (one per traced CLI process)."""
    out = {"spans": {}, "counts": {}, "absent": []}
    for agg in aggregates:
        for name, (calls, total, self_time) in agg["spans"].items():
            entry = out["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for key, value in agg["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        out["absent"] = sorted(set(out["absent"]) | set(agg["absent"]))
    return out


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics derivable from spans and counters (import times
    and the overhead ratio are added by the caller)."""
    spans, counts = agg["spans"], agg["counts"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    out = {
        "poly2.ext_gcd.s": total("poly2.ext_gcd"),
        "poly2.ext_gcd.calls": calls("poly2.ext_gcd"),
        "poly2.ext_gcd.operand_bits": counts.get("poly2.ext_gcd.operand_bits", 0),
        "ring.ring_inverse.s": total("ring.ring_inverse"),
        "ring.ring_mul.s": total("ring.ring_mul"),
        "poly2.factor.s": total("poly2.factor"),
        "poly2.factor.calls": calls("poly2.factor"),
        "poly2.is_irreducible.calls": calls("poly2.is_irreducible"),
        "poly2.is_irreducible.true_ratio": (
            counts.get("poly2.is_irreducible.true", 0) / calls("poly2.is_irreducible")
            if calls("poly2.is_irreducible") else 0.0
        ),
        "poly2.irreducible_polys.s": total("poly2.irreducible_polys"),
        "poly2.irreducible_polys.cache_misses": counts.get("poly2.irreducible_polys.cache_misses", 0),
        "poly2.irreducible_polys.cache_hits": counts.get("poly2.irreducible_polys.cache_hits", 0),
        "poly2.order.s": total("poly2.order"),
        "ring.unit_group_order.s": total("ring.unit_group_order"),
        "tables.ddt_max.s": total("tables.ddt_max"),
        "tables.ddt_max.rows": counts.get("tables.ddt_max.rows", 0),
        "tables.function_table.calls": calls("tables.function_table"),
        "tables.function_table.bytes": counts.get("tables.function_table.bytes", 0),
        "tables.moebius.s": total("tables.moebius"),
        "tables.is_bijective.s": total("tables.is_bijective"),
    }
    layers_self = 0.0
    for module in MODULES:
        entries = [v for k, v in spans.items() if k.split(".")[0] == module]
        self_s = sum(e[2] for e in entries)
        out[f"{module}.self_s"] = self_s
        out[f"{module}.calls"] = sum(e[0] for e in entries)
        layers_self += self_s
    out["trace.query_s"] = total(QUERY)
    out["trace.layers_self_s"] = layers_self
    return out


IMPORTS = ("shiftperm", "sympy", "numpy")


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of shiftperm, sympy and numpy, read from the
    stderr of a process started with -X importtime."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[-1].strip()
        if len(parts) == 3 and name in IMPORTS and name not in out and parts[1].strip().isdigit():
            out[name] = int(parts[1]) / 1e6
    return out
