"""Span recorder for the traced benchmark run.

The recorder wraps idemforge's functions from the outside, so the program
itself carries no instrumentation.  Each wrapped call is a span: its wall
time is added to the function's inclusive total (outermost call only, so
recursion is not counted twice) and its duration minus the time of its
direct child spans is added to its layer's self time.  Every span also
counts its calls.  Everything stays in memory; `snapshot` reads it out.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module under idemforge, attribute).  The layer is the part of
# the name before the dot.  Private verifier helpers are wrapped because
# `verify_system` calls them directly, not through the public check_* names.
SPANS = (
    ("cli.gen", "cli", "cmd_gen"),
    ("cli.verify", "cli", "cmd_verify"),
    ("cli.code", "cli", "cmd_code"),
    ("cli.records_from_document", "cli", "records_from_document"),
    ("cli.render_document", "cli", "render_document"),
    ("engine.dispatch", "engine", "dispatch"),
    ("engine.all_idempotents_euclid", "engine", "all_idempotents_euclid"),
    ("engine.euclid_idempotent", "engine", "euclid_idempotent"),
    ("structure.instance_parameters", "structure", "instance_parameters"),
    ("structure.cyclotomic_cosets", "structure", "cyclotomic_cosets"),
    ("structure.factor_xn_minus_1", "structure", "factor_xn_minus_1"),
    ("fields.get_extension_field", "fields", "get_extension_field"),
    ("fields.primitive_element", "fields", "primitive_element"),
    ("polys.extended_gcd", "polys", "extended_gcd"),
    ("fastpoly.lex_irreducible", "_fastpoly", "lex_irreducible"),
    ("fastpoly.is_irreducible", "_fastpoly", "is_irreducible"),
    ("fastpoly.product_of_linear_factors", "_fastpoly", "product_of_linear_factors"),
    ("fastpoly.residue_matrix", "_fastpoly", "residue_matrix"),
    ("fastpoly.ints_xgcd", "_fastpoly", "ints_xgcd"),
    ("verifier.verify_system", "verifier", "verify_system"),
    ("verifier.idempotency", "verifier", "check_idempotency"),
    ("verifier.orthogonality", "verifier", "_orthogonality_detail"),
    ("verifier.completeness", "verifier", "_completeness_detail"),
    ("verifier.primitivity", "verifier", "_primitivity_detail"),
    ("verifier.sets_equal", "verifier", "sets_equal"),
    ("codes.generator_polynomial", "codes", "generator_polynomial"),
    ("codes.min_distance_exhaustive", "codes", "min_distance_exhaustive"),
)

# Methods are spans too; the attribute is looked up on the class.
METHOD_SPANS = (("polys.cyclic_mul", "polys", "CyclicRingElement", "__mul__"),)

LAYERS = ("cli", "engine", "structure", "fields", "polys", "fastpoly", "verifier", "codes")

# Exact counts besides each span's `<name>_calls`.
COUNTS = ("fields.elements_created", "codes.codewords")

# The oracle's own time: its factorization children are subtracted.
EXCLUDE_STRUCTURE = {"engine.all_idempotents_euclid"}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self._stack: list[list[float]] = []  # per open span: [child time, structure child time]
        self._depth: dict[str, int] = {}

    def add(self, key: str, value) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    def span(self, name: str, fn, on_call=None):
        layer = name.split(".", 1)[0]
        exclude_structure = name in EXCLUDE_STRUCTURE
        stack, depth, add = self._stack, self._depth, self.add
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                depth[name] = level
                add(f"{layer}.self_s", elapsed - frame[0])
                add(f"{name}_calls", 1)
                if level == 0:
                    add(f"{name}_s", elapsed - (frame[1] if exclude_structure else 0.0))
                if stack:
                    stack[-1][0] += elapsed
                    if layer == "structure":
                        stack[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)


def install(tracer: Tracer) -> None:
    """Wrap every traced name in every idemforge module that binds it, so
    calls through `from .x import f` bindings are seen too."""
    modules = {mod: importlib.import_module(f"idemforge.{mod}") for _, mod, _ in SPANS}
    package = [m for key, m in sys.modules.items() if key == "idemforge" or key.startswith("idemforge.")]

    def count_codewords(args):
        g, n, q = args[:3]
        tracer.add("codes.codewords", q ** (n - g.degree) - 1)

    hooks = {"codes.min_distance_exhaustive": count_codewords}
    for name, mod, attr in SPANS:
        original = getattr(modules[mod], attr, None)
        if original is None:  # deleted by a later change: its figures read 0
            continue
        wrapped = tracer.span(name, original, hooks.get(name))
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    for name, mod, cls_name, attr in METHOD_SPANS:
        cls = getattr(importlib.import_module(f"idemforge.{mod}"), cls_name, None)
        if cls is not None:
            setattr(cls, attr, tracer.span(name, getattr(cls, attr)))

    element = importlib.import_module("idemforge.fields").FieldElement
    init = element.__init__
    totals = tracer.totals

    def counted_init(self, field, coeffs):
        totals["fields.elements_created"] = totals.get("fields.elements_created", 0) + 1
        init(self, field, coeffs)

    element.__init__ = counted_init


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer figures the benchmark reports, from summed totals.
    A traced function that no longer exists reads 0."""
    out = {}
    for name, _, _ in SPANS:
        out[f"{name}_s"] = totals.get(f"{name}_s", 0.0)
        out[f"{name}_calls"] = totals.get(f"{name}_calls", 0)
    for name, *_ in METHOD_SPANS:
        out[f"{name}_s"] = totals.get(f"{name}_s", 0.0)
        out[f"{name}_calls"] = totals.get(f"{name}_calls", 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0)
    for name in COUNTS:
        out[name] = totals.get(name, 0)
    seconds = out["codes.min_distance_exhaustive_s"]
    out["codes.codewords_per_s"] = out["codes.codewords"] / seconds if seconds else 0.0
    return out
