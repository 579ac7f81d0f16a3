"""Per-layer spans recorded from outside ospq, by wrapping its functions.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each listed
function or method with one timing wrapper and rebinds that wrapper
everywhere the original is reachable by name, so that no call can
bypass it and none is counted twice.  That covers

* every ``ospq`` module (and any extra namespace given) that imported a
  function by name: ``graded_kron`` alone is bound in ``gmatrix``,
  ``texpr``, ``qrmatrix``, ``contraction``, ``r1`` and ``twist``;
* class aliases such as ``__radd__ = __add__``, which are the same
  function object under two names and get the same wrapper.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.  Spans are aggregated per layer as they close
(a count and a self time) instead of being stored, because the scalar
layer alone opens millions of them and keeping them would swamp both
the run time and the memory being measured.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> [(module, class or None, function names)]
LAYERS = {
    "scalar.add": [("ospq.scalar", "Scalar", ("__add__", "__radd__", "__sub__", "__rsub__"))],
    "scalar.mul": [("ospq.scalar", "Scalar", ("__mul__", "__rmul__"))],
    "scalar.div": [
        ("ospq.scalar", "Scalar", ("__truediv__", "__rtruediv__", "reciprocal", "__pow__"))
    ],
    "scalar.limit": [
        (
            "ospq.scalar",
            "Scalar",
            ("limit_p_to_1", "pole_order_at_p1", "substitute_h", "h_coefficients"),
        )
    ],
    "gmatrix.matmul": [("ospq.gmatrix", "GradedMatrix", ("__matmul__",))],
    "gmatrix.add": [("ospq.gmatrix", "GradedMatrix", ("__add__", "__sub__", "__neg__", "scale"))],
    "gmatrix.kron": [("ospq.gmatrix", None, ("graded_kron",))],
    "gmatrix.inverse": [("ospq.gmatrix", None, ("inverse",))],
    "gmatrix.embed": [("ospq.gmatrix", None, ("embed_pair", "swap_conjugate"))],
    "texpr.evaluate": [("ospq.texpr", "TensorExpression", ("evaluate",))],
    "texpr.algebra": [
        ("ospq.texpr", "TensorExpression", ("coproduct", "antipode", "counit", "mu", "__mul__"))
    ],
    # The pure per-spin constructors: same arguments, same result.
    "builders": [
        ("ospq.reps", None, ("q_rep", "classical_rep")),
        ("ospq.r1", None, ("r1_generators",)),
        ("ospq.contraction", None, ("r2_generators", "m_matrix", "script_t")),
    ],
    "twist.series": [("ospq.twist", None, ("series_twist",))],
}

BUILDERS = "builders"

# The per-layer metrics a traced repetition reports, in order.
METRICS = [
    f"{layer}.{kind}"
    for layer in LAYERS
    if layer != BUILDERS
    for kind in ("calls", "self_s")
] + ["builders.calls", "builders.incl_s", "builders.repeat_ratio"]


class Tracer:
    """Counts and self times per layer, plus the builder bookkeeping."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        # Child time of each open span; the bottom entry is the root.
        self._stack = [0.0]
        self.builder_outer_s = 0.0
        self.builder_repeats = 0
        self._builder_depth = 0
        self._builder_seen = set()
        self.wrapped = {}  # id(original) -> wrapper

    def _span(self, layer, fn):
        i = self.layers.index(layer)
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self_s[i] += took - stack.pop()
                stack[-1] += took
                calls[i] += 1

        return span

    def _builder_span(self, fn):
        inner = self._span(BUILDERS, fn)
        seen, clock = self._builder_seen, time.perf_counter

        @functools.wraps(fn)
        def builder(*args, **kwargs):
            key = (fn.__qualname__, args, tuple(sorted(kwargs.items())))
            if key in seen:
                self.builder_repeats += 1
            else:
                seen.add(key)
            if self._builder_depth:
                return inner(*args, **kwargs)
            self._builder_depth = 1
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                self.builder_outer_s += clock() - start
                self._builder_depth = 0

        return builder

    def install(self, extra_namespaces=()):
        """Wrap every listed function once and rebind it everywhere."""
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "ospq" or name.startswith("ospq.")
        ]
        for layer, targets in LAYERS.items():
            for module_name, class_name, names in targets:
                owner = sys.modules[module_name]
                if class_name is not None:
                    owner = getattr(owner, class_name)
                    namespaces.append(owner)
                for name in names:
                    original = vars(owner)[name]
                    if id(original) in self.wrapped:
                        continue
                    if layer == BUILDERS:
                        self.wrapped[id(original)] = self._builder_span(original)
                    else:
                        self.wrapped[id(original)] = self._span(layer, original)
        for namespace in [*namespaces, *extra_namespaces]:
            for name, value in list(vars(namespace).items()):
                wrapper = self.wrapped.get(id(value))
                if wrapper is not None:
                    setattr(namespace, name, wrapper)

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times, by metric name."""
        out = {}
        for i, layer in enumerate(self.layers):
            if layer == BUILDERS:
                continue
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.self_s"] = self.self_s[i]
        # Every builder call counts, nested ones too; the inclusive time
        # is that of the outermost calls, so no interval counts twice.
        calls = self.calls[self.layers.index(BUILDERS)]
        out["builders.calls"] = calls
        out["builders.incl_s"] = self.builder_outer_s
        out["builders.repeat_ratio"] = self.builder_repeats / calls if calls else 0.0
        return out

    def attributed_s(self) -> float:
        """Total self time of every wrapped layer."""
        return sum(self.self_s)

