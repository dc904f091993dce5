"""Spans and work counters at the crkernel layer boundaries.

``Tracer.install()`` replaces the public functions of ``crkernel.charts``,
``symbols``, ``stationary``, ``pipeline`` and ``harness`` with timing
wrappers in every crkernel module that holds them by name, wraps the
``Jet`` product, composition, series and partial methods at class level (so
products made inside ``compose`` and the series methods are seen too), and
wraps the entries of the harness check registry.  Nothing in ``src/`` is
edited; the wrappers live only in the traced process.

Each call records a span (name, start, end, parent span) in flat in-memory
arrays; ``summary()`` turns them into per-group self times (span duration
minus the time covered by its child spans), call counts and the work
counters named in ``PER_LAYER``.  ``write_spans`` saves the raw spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from collections import defaultdict

#: wrapped module functions: module -> {function name: group}
FUNCTIONS = {
    "crkernel.charts": {
        "heisenberg_chart": "charts.build",
        "perturbed_chart": "charts.build",
        "random_perturbation": "charts.build",
        "tw_scalar_curvature": "charts.geometry",
        "kohn_laplacian_at0": "charts.geometry",
        "reeb_derivative_at0": "charts.geometry",
        "christoffel_at": "charts.geometry",
    },
    "crkernel.symbols": {
        "identity_symbol": "symbols.construct",
        "make_multiplication_symbol": "symbols.construct",
        "random_classical_symbol": "symbols.construct",
        "transform_symbol_under_diffeo": "symbols.transform",
        "transform_density": "symbols.transform",
        "invert_map": "symbols.transform",
        "subprincipal_symbol": "symbols.subprincipal",
        "p_operator_canonical": "symbols.p_operator",
        "p_operator_geometric": "symbols.p_operator",
    },
    "crkernel.stationary": {
        "build_phase_data": "stationary.phase_data",
        "apply_L": "stationary.apply_L",
        "oscillatory_monomial_moments": "stationary.moment",
        "numeric_expansion_oracle": "stationary.oracle",
    },
    "crkernel.pipeline": {
        "qe_amplitude": "pipeline.qe_amplitude",
        "compose_amplitudes_sp": "pipeline.compose_sp",
        "compose_amplitudes_closed": "pipeline.closed_form",
        "toeplitz_b1_closed_form": "pipeline.closed_form",
        "toeplitz_b1_pipeline": "pipeline.b1_pipeline",
    },
    "crkernel.harness": {
        "run_scenarios": "harness.run",
        "emit_report": "harness.emit",
    },
}

#: wrapped Jet methods: method name -> group (the product is named per shape)
JET_METHODS = {
    "compose": "jets.compose",
    "invert": "jets.series",
    "pow_real": "jets.series",
    "log": "jets.series",
    "exp": "jets.series",
    "partial": "jets.partial",
}

#: product shapes (num_vars, order) that get their own self-time metric
MUL_SHAPES = ((6, 4), (6, 6), (6, 2), (3, 6), (4, 12))

#: checks whose scenarios need the stationary-phase b1 pipeline
PIPELINE_CHECKS = ("b0_leading", "b1_two_routes", "b1_reference")

#: per-layer metric names and units, in report order
PER_LAYER = (
    ("jets.mul_calls", "count"),
    ("jets.mul_terms", "count"),
    ("jets.mul_self_s", "s"),
    ("jets.mul_density", "ratio"),
    *((f"jets.mul_self_s.v{v}o{o}", "s") for v, o in MUL_SHAPES),
    ("jets.compose_calls", "count"),
    ("jets.compose_self_s", "s"),
    ("jets.series_calls", "count"),
    ("jets.series_self_s", "s"),
    ("jets.partial_calls", "count"),
    ("jets.partial_self_s", "s"),
    ("charts.build_calls", "count"),
    ("charts.build_self_s", "s"),
    ("charts.geometry_self_s", "s"),
    ("symbols.construct_self_s", "s"),
    ("symbols.transform_calls", "count"),
    ("symbols.transform_self_s", "s"),
    ("symbols.subprincipal_self_s", "s"),
    ("symbols.p_operator_self_s", "s"),
    ("stationary.phase_data_calls", "count"),
    ("stationary.phase_data_self_s", "s"),
    ("stationary.apply_L_calls", "count"),
    ("stationary.apply_L_self_s", "s"),
    ("stationary.moment_calls", "count"),
    ("stationary.moment_sweeps", "count"),
    ("stationary.moment_memo_hit_ratio", "ratio"),
    ("stationary.grid_nodes", "count"),
    ("stationary.moment_self_s", "s"),
    ("stationary.oracle_calls", "count"),
    ("stationary.oracle_self_s", "s"),
    ("pipeline.qe_amplitude_calls", "count"),
    ("pipeline.qe_amplitude_self_s", "s"),
    ("pipeline.compose_sp_calls", "count"),
    ("pipeline.compose_sp_self_s", "s"),
    ("pipeline.closed_form_self_s", "s"),
    ("pipeline.b1_pipeline_calls", "count"),
    ("pipeline.b1_pipeline_reuse_ratio", "ratio"),
    ("harness.checks", "count"),
    ("harness.checks_failed", "count"),
    ("harness.check_errors", "count"),
    ("harness.worst_margin", "ratio"),
    ("harness.parse_s", "s"),
    ("harness.emit_s", "s"),
    ("trace.verdict_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self):
        self.names: list = []
        self.groups: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.errors = defaultdict(int)
        self.mul_terms = 0
        self.mul_density_sum = 0.0
        self.mul_operands = 0
        self._mul_shapes: dict = {}
        self.moment_keys: set = set()
        self.grid_nodes = 0
        self._patched: list = []

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name: str, group: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return nid

    def wrap(self, fn, name: str, group: str, on_call=None):
        """Return ``fn`` wrapped in a span.

        ``on_call(*args, **kwargs)`` runs first to count work; it may return
        the id of a more specific span name (the product names its shape).
        """
        nid = self._name_id(name, group)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        errors, clock = self.errors, time.perf_counter

        def traced(*args, **kwargs):
            span_nid = on_call(*args, **kwargs) if on_call is not None else None
            sid = len(names)
            names.append(nid if span_nid is None else span_nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[group] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _count_mul(self, a, b) -> int:
        """Count a product's multiply-adds and operand density; return its shape's span id."""
        key = (a.num_vars, a.order)
        shape = self._mul_shapes.get(key)
        if shape is None:
            nid = self._name_id(f"jets.mul.v{key[0]}o{key[1]}", "jets.mul")
            shape = self._mul_shapes[key] = (nid, math.comb(key[0] + key[1], key[1]))
        nid, full = shape
        order = a.order
        left = [0] * (order + 1)
        for idx, _ in a.graded_items():
            left[sum(idx)] += 1
        right = [0] * (order + 1)
        for idx, _ in b.graded_items():
            right[sum(idx)] += 1
        cum = 0
        for d in range(order + 1):  # right[d] becomes the count of right terms of degree <= d
            cum += right[d]
            right[d] = cum
        self.mul_terms += sum(left[d] * right[order - d] for d in range(order + 1))
        self.mul_density_sum += (len(a.coeffs) + len(b.coeffs)) / full
        self.mul_operands += 2
        return nid

    def _count_moment(self, phase, amp_order, t, cutoff_radius, nodes_per_axis):
        key = (phase.graded_items(), phase.base_point, int(amp_order), float(t),
               float(cutoff_radius), tuple(int(k) for k in nodes_per_axis))
        if key not in self.moment_keys:
            self.moment_keys.add(key)
            self.grid_nodes += math.prod(int(k) for k in nodes_per_axis)

    def install(self) -> None:
        """Wrap the crkernel layer boundaries in this process."""
        import crkernel.harness as harness
        from crkernel.jets import Jet

        self._patch(Jet, "_mul_jet", self.wrap(Jet._mul_jet, "jets.mul", "jets.mul", self._count_mul))
        for method, group in JET_METHODS.items():
            self._patch(Jet, method, self.wrap(getattr(Jet, method), f"jets.{method}", group))

        modules = [m for name, m in sys.modules.items() if name.startswith("crkernel") and m]
        for module_name, table in FUNCTIONS.items():
            module = sys.modules[module_name]
            for fn_name, group in table.items():
                original = getattr(module, fn_name)
                on_call = self._count_moment if fn_name == "oscillatory_monomial_moments" else None
                short = module_name.split(".")[-1]
                wrapped = self.wrap(original, f"{short}.{fn_name}", group, on_call)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)
        self._checks = (harness.CHECKS, dict(harness.CHECKS))
        for check_id, fn in self._checks[1].items():
            harness.CHECKS[check_id] = self.wrap(fn, f"harness.check.{check_id}", "harness.check")

    def uninstall(self) -> None:
        """Put back everything ``install`` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        registry, originals = self._checks
        registry.update(originals)

    def self_times(self):
        """Per-name (calls, total self seconds) over all recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
        return calls, self_s

    def summary(self) -> dict:
        """Raw per-layer data: calls and self time per span name and per group, plus counters."""
        calls, self_s = self.self_times()
        group_of = dict(zip(self.names, self.groups))
        group_calls = defaultdict(int)
        group_self = defaultdict(float)
        for name, c in calls.items():
            group_calls[group_of[name]] += c
            group_self[group_of[name]] += self_s[name]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "group_calls": dict(group_calls),
            "group_self_s": dict(group_self),
            "errors": dict(self.errors),
            "mul_terms": self.mul_terms,
            "mul_density": self.mul_density_sum / self.mul_operands if self.mul_operands else 0.0,
            "moment_sweeps": len(self.moment_keys),
            "grid_nodes": self.grid_nodes,
            "spans": len(self.span_name),
        }

    def write_spans(self, path) -> None:
        """Save every span as one JSON document (names table plus parallel columns)."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
