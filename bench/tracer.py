"""Per-layer tracing for the benchmark, done entirely from the outside.

`Tracer.install()` wraps the public functions of every ntcodes layer, the
methods of `CycElement` and `MultiPoly`, the private full-space boundary
`enumerators._full_space` and the CLI entry point `cli.main`.  Each
wrapper is patched into every namespace that bound the original object,
under whatever name it was bound (``from``-imports copy names, and
`enumerators` imports `codes.lc` as `lc_spec`).  `uninstall()` puts the
originals back and `assert_untraced()` proves that no wrapper is left.

A wrapped call is a span.  Spans are aggregated as they close rather than
stored, because one request can make a hundred thousand of them: each
function key accumulates its call count, its inclusive time, and its self
time (the span minus the part of it that child spans cover).  A call that
returns a generator also has its iteration traced, one span per item, under
``<key>.next``, so a scan's work lands in the layer that does it.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

PACKAGE = "ntcodes"
LAYERS = ("numtheory", "exactalg", "qcalc", "codes", "enumerators", "macwilliams")
#: the one private boundary the wrappers may touch: it splits full-space
#: construction from extraction in `theorem1_extended`
PRIVATE_BOUNDARIES = {"enumerators": ("_full_space",)}
TRACED_CLASSES = ("CycElement", "MultiPoly")
METHOD_KEYS = {
    ("CycElement", "__add__"): "exactalg.cyc_add",
    ("CycElement", "__radd__"): "exactalg.cyc_add",
    ("CycElement", "__mul__"): "exactalg.cyc_mul",
    ("CycElement", "__rmul__"): "exactalg.cyc_mul",
    ("CycElement", "to_integer"): "exactalg.cyc_to_integer",
    ("MultiPoly", "__mul__"): "exactalg.multipoly_mul",
    ("MultiPoly", "__rmul__"): "exactalg.multipoly_mul",
    ("MultiPoly", "substitute"): "exactalg.substitute",
}
ROUTE_FUNCTIONS = ("oracle_extended", "theorem1_extended", "lc_hamming", "tenengolts_hamming")
MARK = "_ntcodes_bench_traced"


def _modules():
    return {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}


def _namespaces():
    return [sys.modules[PACKAGE], sys.modules[f"{PACKAGE}.cli"], *_modules().values()]


def _traced_classes():
    exactalg = sys.modules[f"{PACKAGE}.exactalg"]
    return [getattr(exactalg, name) for name in TRACED_CLASSES]


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _layer_functions(layer: str, module):
    """Functions defined in the layer module that the tracer wraps."""
    for name, obj in vars(module).items():
        if not (_is_public(name) or name in PRIVATE_BOUNDARIES.get(layer, ())):
            continue
        lru = hasattr(obj, "cache_info")
        if not (isinstance(obj, types.FunctionType) or lru):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj


class Tracer:
    """Aggregated spans for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, total_s]
        self.counters: Counter = Counter()
        self._stack = [[0.0]]
        self._patches: list[tuple] = []  # (owner, name, original raw object)

    # -- span accounting

    def _stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def _wrap(self, key: str, fn, hook=None):
        stat = self._stat(key)
        stack = self._stack
        clock = time.perf_counter
        traced_iter = self._traced_iter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stat[2] += elapsed
            if hook is not None:
                hook(args, result)
            if isinstance(result, types.GeneratorType):
                return traced_iter(key + ".next", result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _traced_iter(self, key: str, iterator):
        stat = self._stat(key)
        stack = self._stack
        clock = time.perf_counter
        while True:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[1] += elapsed - frame[0]
                stat[2] += elapsed
            stat[0] += 1
            yield item

    # -- counters recorded at the layer boundaries

    def _hooks(self) -> dict:
        c = self.counters

        def route(_args, result):
            c[f"route.{result.method}"] += 1

        def cardinality_route(_args, _result):
            c["route.closed_form"] += 1

        def scanned(args, _result):
            spec = args[0]
            c["words_scanned"] += spec.r**spec.n

        def full_space(_args, result):
            poly, form = result
            c["full_space_terms"] += len(poly.terms)
            c[f"full_space_form.{form}"] += 1

        def theorem1(args, result):
            route(args, result)
            c["extract_terms"] += len(result.poly.terms)

        def built(_args, code):
            c["code_words"] += len(code.code)

        def to_integer(args, _result):
            c["order_sum"] += args[0].order

        hooks = {f"enumerators.{name}": route for name in ROUTE_FUNCTIONS}
        hooks.update(
            {
                "enumerators.theorem1_extended": theorem1,
                "enumerators.tenengolts_cardinality": cardinality_route,
                "enumerators._full_space": full_space,
                "codes.enumerate_codewords": scanned,
                "macwilliams.build_code": built,
                "exactalg.cyc_to_integer": to_integer,
            }
        )
        return hooks

    # -- patching

    def _patch(self, owner, name: str, raw) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, raw)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        namespaces = _namespaces()
        for layer, module in _modules().items():
            for name, obj in list(_layer_functions(layer, module)):
                key = f"{layer}.{name}"
                wrapper = self._wrap(key, obj, hooks.get(key))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound, wrapper)
        for cls in _traced_classes():
            for name, raw in list(vars(cls).items()):
                if not _is_public(name):
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not isinstance(fn, types.FunctionType):
                    continue
                key = METHOD_KEYS.get((cls.__name__, name), f"exactalg.{cls.__name__}.{name}")
                wrapper = self._wrap(key, fn, hooks.get(key))
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapper = type(raw)(wrapper)
                self._patch(cls, name, wrapper)
        cli = sys.modules[f"{PACKAGE}.cli"]
        self._patch(cli, "main", self._wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        restored = all(vars(owner)[name] is original for owner, name, original in self._patches)
        self._patches.clear()
        if not restored:
            raise RuntimeError("tracer left a wrapper in place")
        assert_untraced()

    # -- per-layer metrics

    def layer_metrics(self) -> dict:
        """Per-layer metric values from the aggregated spans and counters."""
        stats, c = self.stats, self.counters

        def calls(key):
            return stats.get(key, (0, 0.0, 0.0))[0]

        def self_s(key):
            return stats.get(key, (0, 0.0, 0.0))[1]

        def total_s(*keys):
            return sum(stats.get(key, (0, 0.0, 0.0))[2] for key in keys)

        def layer_sum(layer, index):
            return sum(v[index] for k, v in stats.items() if k.split(".", 1)[0] == layer)

        scanned = c["words_scanned"]
        yielded = calls("codes.enumerate_codewords.next")
        full_terms = c["full_space_terms"]
        return {
            "cli.self_s": self_s("cli.main"),
            "cli.requests": calls("cli.main"),
            "numtheory.calls": layer_sum("numtheory", 0),
            "numtheory.self_s": layer_sum("numtheory", 1),
            "exactalg.cyc_mul.calls": calls("exactalg.cyc_mul"),
            "exactalg.cyc_mul.self_s": self_s("exactalg.cyc_mul"),
            "exactalg.cyc_add.calls": calls("exactalg.cyc_add"),
            "exactalg.cyc_to_integer.calls": calls("exactalg.cyc_to_integer"),
            "exactalg.cyc_to_integer.order_sum": c["order_sum"],
            "exactalg.cyc_to_integer.self_s": self_s("exactalg.cyc_to_integer"),
            "exactalg.cyclotomic_polynomial.calls": calls("exactalg.cyclotomic_polynomial"),
            "exactalg.multipoly_mul.calls": calls("exactalg.multipoly_mul"),
            "exactalg.multipoly_mul.self_s": self_s("exactalg.multipoly_mul"),
            "exactalg.substitute.self_s": self_s("exactalg.substitute"),
            "qcalc.q_multinomial.calls": calls("qcalc.q_multinomial"),
            "qcalc.q_binomial.calls": calls("qcalc.q_binomial"),
            "qcalc.self_s": layer_sum("qcalc", 1),
            "codes.words_scanned": scanned,
            "codes.codewords_yielded": yielded,
            "codes.yield_ratio": yielded / scanned if scanned else 0.0,
            "codes.self_s": layer_sum("codes", 1),
            "enumerators.full_space_s": total_s("enumerators._full_space"),
            "enumerators.full_space_terms": full_terms,
            "enumerators.full_space_form.product": c["full_space_form.product"],
            "enumerators.full_space_form.descent_sum": c["full_space_form.descent_sum"],
            "enumerators.full_space_form.enumeration": c["full_space_form.enumeration"],
            # the CLI reaches _full_space only through theorem1_extended
            "enumerators.extract_s": total_s("enumerators.theorem1_extended")
            - total_s("enumerators._full_space"),
            "enumerators.extract_kept_ratio": c["extract_terms"] / full_terms if full_terms else 0.0,
            "enumerators.lc_hamming_s": total_s("enumerators.lc_hamming"),
            "enumerators.tenengolts_s": total_s(
                "enumerators.tenengolts_hamming", "enumerators.tenengolts_cardinality"
            ),
            "enumerators.oracle_s": total_s("enumerators.oracle_extended"),
            "enumerators.route.oracle": c["route.oracle"],
            "enumerators.route.character_sum": c["route.character_sum"],
            "enumerators.route.closed_form": c["route.closed_form"],
            "macwilliams.build_code_s": total_s("macwilliams.build_code"),
            "macwilliams.code_words": c["code_words"],
            "macwilliams.verify_s": total_s("macwilliams.verify_macwilliams"),
        }

    def layer_self_seconds(self) -> dict:
        """Self time per layer, the CLI front end included."""
        out = dict.fromkeys(("cli",) + LAYERS, 0.0)
        for key, (_calls, self_time, _total) in self.stats.items():
            out[key.split(".", 1)[0]] += self_time
        return out


def assert_untraced() -> None:
    """Raise if any ntcodes namespace or traced class still holds a wrapper."""
    owners = _namespaces() + _traced_classes()
    for owner in owners:
        for name, raw in vars(owner).items():
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if getattr(fn, MARK, False):
                raise RuntimeError(f"traced wrapper still bound at {owner.__name__}.{name}")
