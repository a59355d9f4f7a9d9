"""Per-layer trace of spreadpoly, taken from outside the package.

``Tracer.install`` replaces every binding of the traced functions with a
wrapper: module globals (including names other modules imported with
``from ... import``), class attributes such as ``IntPoly.__rmul__``, and
dict values such as ``factor._ROUTE_BUILDERS``.  A binding missed this way
would undercount silently, so the replacement is found by identity, not
by name.  ``uninstall`` puts every original object back.

Each wrapped call records a span (name, parent, request, start, end) in
flat arrays kept in memory.  The wrapper's own bookkeeping is timed as
well and stored with the span, so a parent's self time, its span time
minus the time of its child spans, is not inflated by tracing.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SIZE_BUCKETS = ("le32", "33-256", "257-2048", "gt2048")
MUL_PATHS = ("schoolbook", "split")
RENDER = "cli.render"
PRODUCT_CHECK_PARENTS = ("factor.factor_zpread", "factor.factor_lucas_minus2")
REFLECTIONS = ((2, -1), (4, -1))  # inner polynomials 2 - x and 4 - x

# Traced functions as (module, attribute path, span name).  A span name of
# None means the wrapper classifies each call itself (see Tracer._classifiers).
TRACED = (
    ("intpoly", "IntPoly.__mul__", None),
    ("intpoly", "IntPoly.compose", None),
    ("intpoly", "IntPoly.coefficient_strings", RENDER),
    ("intpoly", "mul_schoolbook", None),
    ("intpoly", "mul_karatsuba", None),
    ("intpoly", "div_exact", None),
    ("intpoly", "palindrome_fold", "intpoly.palindrome_fold"),
    ("sequences", "lucas", "sequences.lucas"),
    ("sequences", "cyclotomic", "sequences.cyclotomic"),
    ("sequences", "zpread", "sequences.zpread"),
    ("sequences", "zpread_via_lucas", "sequences.zpread_via_lucas"),
    ("sequences", "monic_zpread", "sequences.monic_zpread"),
    ("sequences", "spread", "sequences.spread"),
    ("sequences", "fibonacci", "sequences.fibonacci"),
    ("sequences", "totient", "sequences.totient"),
    ("sequences", "divisors", "sequences.divisors"),
    ("factor", "psi", "factor.psi"),
    ("factor", "phi_min", "factor.phi_min"),
    ("factor", "phi_odd_lucas", "factor.phi_odd_lucas"),
    ("factor", "phi_pow2", "factor.phi_pow2"),
    ("factor", "phi_composed", "factor.phi_composed"),
    ("factor", "applicable_routes", "factor.applicable_routes"),
    ("factor", "cross_check_phi", "factor.cross_check_phi"),
    ("factor", "capital_phi", "factor.capital_phi"),
    ("factor", "factor_zpread", "factor.factor_zpread"),
    ("factor", "factor_lucas_minus2", "factor.factor_lucas_minus2"),
    ("factor", "float_root_check", "factor.float_root_check"),
    ("factor", "Factor.to_record", RENDER),
    ("factor", "FactorizationRecord.to_record", RENDER),
    ("fib", "primitive_part", "fib.primitive_part"),
    ("fib", "fib_factorization", "fib.fib_factorization"),
    ("fib", "zpread_at5_identity", "fib.zpread_at5_identity"),
    ("fib", "PrimitivePartTable.to_record", RENDER),
    ("verify", "run_suite", None),
    ("verify", "run_verification", "verify.run_verification"),
    ("verify", "SuiteResult.to_record", RENDER),
    ("cli", "main", "cli.main"),
    ("cli", "_emit_record", RENDER),
)

# Traced functions reported as <name>.calls and <name>.self_s.
FUNCTION_METRICS = (
    "sequences.lucas",
    "sequences.cyclotomic",
    "sequences.zpread",
    "sequences.fibonacci",
    "factor.psi",
    "factor.phi_min",
    "factor.phi_composed",
    "factor.phi_odd_lucas",
    "factor.phi_pow2",
    "factor.capital_phi",
    "factor.cross_check_phi",
    "factor.factor_zpread",
    "fib.fib_factorization",
    "fib.primitive_part",
    "intpoly.palindrome_fold",
)


def size_bucket(length: int) -> str:
    if length <= 32:
        return "le32"
    if length <= 256:
        return "33-256"
    if length <= 2048:
        return "257-2048"
    return "gt2048"


def _resolve(module, path: str) -> tuple[object, str]:
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder plus the wrapped bindings of one traced run."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_overhead = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.cache_peak = {"entries": 0, "bytes": 0, "lucas_bytes": 0}
        self.request = -1
        self._open = -1
        # (holder, key, original, is_mapping) for every replaced binding.
        self.bindings: list[tuple[object, object, object, bool]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, classify):
        """Wrap ``fn``; ``classify(*args)`` gives a span id, or None to pass through."""
        t = self
        names, counts = self.names, self.counts
        s_name, s_parent, s_request = self.span_name, self.span_parent, self.span_request
        s_start, s_end, s_over = self.span_start, self.span_end, self.span_overhead

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            nid = classify(*args, **kwargs)
            if nid is None:
                return fn(*args, **kwargs)
            idx = len(s_name)
            parent = t._open
            s_name.append(nid)
            s_parent.append(parent)
            s_request.append(t.request)
            s_start.append(0.0)
            s_end.append(0.0)
            s_over.append(0.0)
            t._open = idx
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                t._open = parent
                if not ok:
                    counts[names[nid] + ".failed"] += 1
                s_start[idx] = start
                s_end[idx] = end
                s_over[idx] = (start - enter) + (perf_counter() - end)

        return functools.update_wrapper(wrapper, fn)

    def _classifiers(self):
        """Classifiers for the calls whose span name depends on the arguments."""
        pkg = self.package
        IntPoly = pkg.intpoly.IntPoly
        get_threshold = pkg.intpoly.get_mul_threshold
        counts = self.counts
        mul_ids = {
            (path, b): self.name_id(f"intpoly.mul.{path}.{b}")
            for path in MUL_PATHS
            for b in SIZE_BUCKETS
        }
        bit_length = int.bit_length

        def mul_span(a, b, path):
            la, lb = len(a), len(b)
            counts["intpoly.mul.coeff_products"] += la * lb
            counts["intpoly.mul.operand_bits"] += sum(map(bit_length, a)) + sum(map(bit_length, b))
            return mul_ids[path, size_bucket(max(la, lb))]

        def by_threshold(a, b, threshold):
            return mul_span(a, b, "schoolbook" if min(len(a), len(b)) <= threshold else "split")

        def mul(p, q):
            if type(q) is not IntPoly or not p.coeffs or not q.coeffs:
                return None  # scalar or zero product: no multiplication kernel runs
            return by_threshold(p.coeffs, q.coeffs, get_threshold())

        def schoolbook(p, q):
            if not p.coeffs or not q.coeffs:
                return None
            return mul_span(p.coeffs, q.coeffs, "schoolbook")

        def karatsuba(p, q, threshold=None):
            if not p.coeffs or not q.coeffs:
                return None
            return by_threshold(p.coeffs, q.coeffs, get_threshold() if threshold is None else max(1, threshold))

        reflection = self.name_id("intpoly.compose.reflection")
        other = self.name_id("intpoly.compose.other")

        def compose(p, inner):
            return reflection if inner.coeffs in REFLECTIONS else other

        unit_lead = self.name_id("intpoly.div_exact.unit_lead")
        rational = self.name_id("intpoly.div_exact.rational")

        def div_exact(p, q):
            return unit_lead if abs(q.leading_coefficient()) == 1 else rational

        def run_suite(name, *args, **kwargs):
            return self.name_id(f"verify.{name}")

        return {
            "IntPoly.__mul__": mul,
            "IntPoly.compose": compose,
            "mul_schoolbook": schoolbook,
            "mul_karatsuba": karatsuba,
            "div_exact": div_exact,
            "run_suite": run_suite,
        }

    def _counting_lookup(self, lookup, missing):
        counts = self.counts

        def counted(cache, family, n):
            got = lookup(cache, family, n)
            counts["sequences.cache.lookups"] += 1
            if got is not missing:
                counts["sequences.cache.hits"] += 1
            return got

        return functools.update_wrapper(counted, lookup)

    def _package_holders(self):
        """Every namespace in the package that can bind a traced function."""
        prefix = self.package.__name__
        for name, module in list(sys.modules.items()):
            if name != prefix and not name.startswith(prefix + "."):
                continue
            yield module, False
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__.startswith(prefix):
                    yield value, False
                elif isinstance(value, dict):
                    yield value, True

    def install(self) -> None:
        pkg = self.package
        classifiers = self._classifiers()
        # Keyed by the original's id; each wrapper holds its original, so ids stay unique.
        replacement: dict[int, object] = {}
        for module_name, path, span in TRACED:
            owner, attr = _resolve(getattr(pkg, module_name), path)
            original = vars(owner)[attr]
            if span is None:
                classify = classifiers[path]
            else:
                nid = self.name_id(span)
                classify = lambda *a, _nid=nid, **k: _nid
            replacement[id(original)] = self._wrap(original, classify)
        lookup = pkg.sequences.SequenceCache.lookup
        replacement[id(lookup)] = self._counting_lookup(lookup, pkg.sequences._MISSING)

        for holder, is_mapping in list(self._package_holders()):
            items = list(holder.items() if is_mapping else vars(holder).items())
            for key, value in items:
                wrapper = replacement.get(id(value))
                if wrapper is None:
                    continue
                self.bindings.append((holder, key, value, is_mapping))
                if is_mapping:
                    holder[key] = wrapper
                else:
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, is_mapping in reversed(self.bindings):
            if is_mapping:
                holder[key] = original
            else:
                setattr(holder, key, original)

    def restored(self) -> bool:
        """True when every binding holds its original object again."""
        return all(
            (holder[key] if is_mapping else vars(holder)[key]) is original
            for holder, key, original, is_mapping in self.bindings
        )

    # -- cache state ---------------------------------------------------------

    def snapshot_cache(self, cache) -> None:
        """Fold the cache's current size into the peaks; call before each clear."""
        IntPoly = self.package.intpoly.IntPoly
        size = sys.getsizeof
        entries = total = lucas = 0
        for family, table in cache._tables.items():  # observability read only
            family_bytes = 0
            for value in table.values():
                if isinstance(value, IntPoly):
                    family_bytes += size(value) + size(value.coeffs) + sum(map(size, value.coeffs))
                else:
                    family_bytes += size(value)
            entries += len(table)
            total += family_bytes
            if family == "lucas":
                lucas = family_bytes
        peak = self.cache_peak
        peak["entries"] = max(peak["entries"], entries)
        peak["bytes"] = max(peak["bytes"], total)
        peak["lucas_bytes"] = max(peak["lucas_bytes"], lucas)

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Calls, busy and self time per span name, plus the product-check time."""
        check_parents = {self.name_id(p) for p in PRODUCT_CHECK_PARENTS}
        mul_ids = {self.name_id(f"intpoly.mul.{p}.{b}") for p in MUL_PATHS for b in SIZE_BUCKETS}
        n = len(self.span_name)
        names, parent = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i] + self.span_overhead[i]
        stats = [{"calls": 0, "busy_s": 0.0, "self_s": 0.0} for _ in self.names]
        product_check = 0.0
        for i in range(n):
            s = stats[names[i]]
            s["calls"] += 1
            s["busy_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            if names[i] in mul_ids and parent[i] >= 0 and names[parent[i]] in check_parents:
                product_check += dur[i]
        out = {name: stats[i] for i, name in enumerate(self.names)}
        out["factor.product_check"] = {"busy_s": product_check}
        return out

    def metrics(self, suite_names) -> dict[str, dict]:
        agg = self.aggregate()
        zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

        def get(name):
            return agg.get(name, zero)

        m: dict[str, tuple[float, str]] = {}
        for path in MUL_PATHS:
            for b in SIZE_BUCKETS:
                s = get(f"intpoly.mul.{path}.{b}")
                m[f"intpoly.mul.{path}.{b}.calls"] = (s["calls"], "count")
                m[f"intpoly.mul.{path}.{b}.self_s"] = (s["self_s"], "s")
        m["intpoly.mul.coeff_products"] = (self.counts["intpoly.mul.coeff_products"], "count")
        m["intpoly.mul.operand_bytes"] = ((self.counts["intpoly.mul.operand_bits"] + 7) // 8, "bytes")
        m["factor.product_check_s"] = (agg["factor.product_check"]["busy_s"], "s")
        reflection, other = get("intpoly.compose.reflection"), get("intpoly.compose.other")
        m["intpoly.compose.calls"] = (reflection["calls"] + other["calls"], "count")
        m["intpoly.compose.self_s"] = (reflection["self_s"] + other["self_s"], "s")
        m["intpoly.compose.reflection.calls"] = (reflection["calls"], "count")
        m["intpoly.compose.reflection.busy_s"] = (reflection["busy_s"], "s")
        for kind in ("unit_lead", "rational"):
            s = get(f"intpoly.div_exact.{kind}")
            m[f"intpoly.div_exact.{kind}.calls"] = (s["calls"], "count")
            m[f"intpoly.div_exact.{kind}.busy_s"] = (s["busy_s"], "s")
            m[f"intpoly.div_exact.{kind}.failed"] = (self.counts[f"intpoly.div_exact.{kind}.failed"], "count")
        for name in FUNCTION_METRICS:
            s = get(name)
            m[f"{name}.calls"] = (s["calls"], "count")
            m[f"{name}.self_s"] = (s["self_s"], "s")
        lookups, hits = self.counts["sequences.cache.lookups"], self.counts["sequences.cache.hits"]
        m["sequences.cache.lookups"] = (lookups, "count")
        m["sequences.cache.hits"] = (hits, "count")
        m["sequences.cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        m["sequences.cache.entries"] = (self.cache_peak["entries"], "count")
        m["sequences.cache.bytes"] = (self.cache_peak["bytes"], "bytes")
        m["sequences.cache.lucas.bytes"] = (self.cache_peak["lucas_bytes"], "bytes")
        for suite in suite_names:
            m[f"verify.{suite}.s"] = (get(f"verify.{suite}")["busy_s"], "s")
        m["cli.render.self_s"] = (get(RENDER)["self_s"], "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path: Path, header: dict) -> None:
        """Write the spans: a JSON header, then the raw span arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = ("span_name", "span_parent", "span_request", "span_start", "span_end", "span_overhead")
        layout = [{"field": a, "typecode": getattr(self, a).typecode} for a in arrays]
        meta = dict(header, names=self.names, spans=len(self.span_name), layout=layout)
        with open(path, "wb") as f:
            f.write(json.dumps(meta).encode() + b"\n")
            for a in arrays:
                getattr(self, a).tofile(f)
