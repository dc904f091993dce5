"""Seeded scenario configs for the benchmark workloads.

Each builder turns a workload seed into a config document in the format that
``crkernel.harness.parse_config`` reads.  The program receives only these
documents; every chart, symbol and amplitude seed inside them is drawn from
the workload seed, so one seed always gives the same document.
"""

from __future__ import annotations

import random

#: synthetic curvatures of the default suite's perturbed charts
R_SYNTH_VALUES = (0.3, -0.3, 0.7, -0.7, 1.1)

#: symbol orders of the default suite's homogeneous two-route scenarios
ORDERS_M = (-1.0, 0.0, 0.5, 1.0)

#: quadrature oracle settings: the suite's grid and 4 of its 9 t samples
QUADRATURE_ORACLE = {
    "nodes_per_axis": [48, 48, 160, 160],
    "t_samples": [60.0, 65.0, 70.0, 75.0],
    "cutoff_radius": 1.4,
}

#: scenario counts per config; fixed so the work per run does not depend on
#: the seed, and small enough that a 40-s run makes about ten iterations
TWO_ROUTE_HOMOGENEOUS_PER_ORDER = 2
TWO_ROUTE_MULTIPLICATION = 1
TWO_ROUTE_COMPOSITION = 2
DIFFEO_SUBPRINCIPAL = 2
DIFFEO_P_OPERATOR = 1

#: sizes that make the scenario latencies fall into two tight clusters, so
#: p50 sits among the two-route scenarios and p90 among the diffeomorphism
#: ones (a homogeneous scenario takes about as long as 16 composition pairs,
#: a one-diffeomorphism invariance check about as long as 40 P-operator fields)
TWO_ROUTE_COMPOSITION_PAIRS = 16
DIFFEO_P_OPERATOR_FIELDS = 40


def _charts(rnd: random.Random) -> list:
    """The exact chart plus one perturbed chart per suite curvature value."""
    charts = [{"model": "heisenberg", "n": 1}]
    for r in R_SYNTH_VALUES:
        charts.append({"model": "perturbed", "n": 1, "r_synth": r, "seed": rnd.randrange(1 << 20)})
    return charts


def _two_route_scenarios(rnd: random.Random) -> list:
    """The headline check: homogeneous, multiplication and composition scenarios."""
    charts = _charts(rnd)
    scenarios = []
    k = 0
    for m in ORDERS_M:
        for _ in range(TWO_ROUTE_HOMOGENEOUS_PER_ORDER):
            scenarios.append({
                "name": f"homogeneous-{k:02d}",
                "chart": charts[k % len(charts)],
                "symbol": {
                    "kind": "random-homogeneous",
                    "order_m": m,
                    "num_components": 2,
                    "seed": rnd.randrange(1 << 30),
                },
                "checks": ["b0_leading", "b1_two_routes"],
                "tolerances": {"absolute": 1e-12, "relative": 1e-9},
            })
            k += 1
    for i in range(TWO_ROUTE_MULTIPLICATION):
        scenarios.append({
            "name": f"multiplication-{i:02d}",
            "chart": charts[(k + i) % len(charts)],
            "symbol": {"kind": "multiplication", "seed": rnd.randrange(1 << 30)},
            "checks": ["b0_leading", "b1_two_routes", "b1_reference"],
            "tolerances": {"absolute": 1e-12, "relative": 1e-10},
        })
    for i in range(TWO_ROUTE_COMPOSITION):
        scenarios.append({
            "name": f"composition-{i:02d}",
            "chart": charts[(k + i + 1) % len(charts)],
            "checks": ["composition_two_routes"],
            "tolerances": {"absolute": 0.0, "relative": 1e-10},
            "params": {"num_pairs": TWO_ROUTE_COMPOSITION_PAIRS},
        })
    return scenarios


def _diffeo_scenarios() -> list:
    """Subprincipal invariance under one diffeomorphism each, and P-operator routes."""
    scenarios = []
    for i in range(DIFFEO_SUBPRINCIPAL):
        scenarios.append({
            "name": f"subprincipal-{i:02d}",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["subprincipal_invariance"],
            "tolerances": {"absolute": 1e-10, "relative": 0.0},
            "params": {"num_diffeos": 1},
        })
    for i in range(DIFFEO_P_OPERATOR):
        scenarios.append({
            "name": f"p-operator-{i:02d}",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["p_operator_routes"],
            "tolerances": {"absolute": 1e-12, "relative": 0.0},
            "params": {"num_fields": DIFFEO_P_OPERATOR_FIELDS},
        })
    return scenarios


def routes(seed: int) -> dict:
    """Every route-agreement check of the suite except quadrature.

    The diffeomorphism scenarios draw their maps from the document seed, the
    two-route ones their charts and symbols from ``rnd``."""
    rnd = random.Random(f"routes:{seed}")
    scenarios = _two_route_scenarios(rnd) + _diffeo_scenarios()
    return {"seed": seed, "jet_order": 6, "scenarios": scenarios}


def quadrature(seed: int) -> dict:
    scenarios = [
        {
            "name": "quadrature-leading",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["quadrature_leading"],
            "tolerances": {"absolute": 0.0, "relative": 1e-2},
            "params": {"num_amplitudes": 5},
        },
        {
            "name": "quadrature-subleading",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["quadrature_subleading"],
            "tolerances": {"absolute": 0.0, "relative": 5e-2},
            "params": {"num_amplitudes": 5},
        },
    ]
    return {"seed": seed, "jet_order": 6, "oracle": dict(QUADRATURE_ORACLE), "scenarios": scenarios}


WORKLOADS = {"routes": routes, "quadrature": quadrature}
