"""Scenario configuration, check registry, report emission.

A run is driven by a JSON config (or the built-in "default-suite").  Every
scenario names a chart, optionally a symbol, a list of named checks and its
tolerances; a check produces one record comparing a route-A value against a
route-B value.  A record passes when

    |A - B| <= atol + rtol * (1 + |B|).

All randomness is derived from explicit seeds through counter-based streams,
so reports are byte-identical across runs (with timings suppressed) and
independent of scenario order.
"""

from __future__ import annotations

import fnmatch
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._version import __version__
from .charts import (
    CHART_ORDER,
    CRModelChart,
    christoffel_symbols,
    heisenberg_chart,
    kohn_laplacian_at0,
    levi_frame,
    perturbed_chart,
    random_perturbation,
    tw_scalar_curvature,
)
from .errors import ConfigError, OracleFitError
from .jets import Jet, Substitution, random_jet
from .pipeline import (
    compose_amplitudes_closed,
    compose_amplitudes_sp,
    random_amplitude,
    szego_amplitude,
    szego_norm,
    toeplitz_b1_closed_form,
    toeplitz_b1_pipeline,
)
from .rng import Stream, spawn_rng
from .stationary import (
    HessianAlgebra,
    PhaseCriticalData,
    build_phase_data,
    exact_coefficients,
    expansion_coeffs,
    numeric_expansion_oracle,
    oracle_cutoff_radius,
    oracle_nodes,
    oracle_sweep,
    oracle_t_samples,
)
from .symbols import (
    SYMBOL_ORDER,
    ClassicalSymbol,
    identity_symbol,
    invert_map,
    make_multiplication_symbol,
    p_operator_canonical,
    p_operator_geometric,
    random_classical_symbol,
    subprincipal_symbol,
    transform_density,
    transform_symbol_under_diffeo,
    xi_base,
)

# -- scenario model -------------------------------------------------------------------


@dataclass(frozen=True)
class ChartSpec:
    model: str = "heisenberg"
    n: int = 1
    r_synth: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class SymbolSpec:
    kind: str = "identity"
    order_m: float = 0.0
    num_components: int = 2
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    chart: ChartSpec
    symbol: Optional[SymbolSpec]
    checks: Tuple[str, ...]
    atol: float
    rtol: float
    params: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    route_a: complex
    route_b: complex
    abs_deviation: float
    rel_deviation: float
    tolerance: float
    passed: bool
    wall_time_s: float


@dataclass(frozen=True)
class ExpansionReport:
    scenario: str
    records: Tuple[CheckRecord, ...]
    environment: Dict[str, str]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)


# -- config parsing --------------------------------------------------------------------

_TOP_KEYS = frozenset({"seed", "jet_order", "oracle", "scenarios"})
_SCEN_KEYS = frozenset({"name", "chart", "symbol", "checks", "tolerances", "params"})
_CHART_KEYS = frozenset({"model", "n", "r_synth", "seed"})
_SYM_KEYS = frozenset({"kind", "order_m", "num_components", "seed"})
_TOL_KEYS = frozenset({"absolute", "relative"})
_ORACLE_KEYS = frozenset({"t_samples", "cutoff_radius", "nodes_per_axis"})

CHART_MODELS = ("heisenberg", "perturbed")
CR_DIMENSIONS = range(1, 6)  # the n of every check; ``parse_config`` says why n stops at 5
SYMBOL_KINDS = ("identity", "multiplication", "random-homogeneous")


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _section(raw: dict, key: str, allowed: set, where: str) -> dict:
    """``raw[key]`` (default {}), checked to be an object with known keys."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.{key}: must be an object")
    _require_keys(value, allowed, f"{where}.{key}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(raw: dict, key: str, default: int, low: int, where: str) -> int:
    value = raw.get(key, default)
    if not _is_int(value) or value < low:
        raise ConfigError(f"{where}.{key}: must be an integer >= {low}")
    return value


def _number(value, where: str) -> float:
    if not (_is_int(value) or isinstance(value, float)) or not math.isfinite(value):
        raise ConfigError(f"{where}: must be a finite number")
    return float(value)


def _check_applicability(where: str, scenario: Scenario, oracle: dict) -> None:
    """Reject a scenario that one of its checks cannot apply to, or that
    sets a field none of its checks reads, by the CHECK_SPECS table."""
    chart, symbol = scenario.chart, scenario.symbol
    specs = [(c, CHECK_SPECS[c]) for c in scenario.checks]
    needs_symbol = [c for c, spec in specs if spec.symbol == "required"]
    if needs_symbol and symbol is None:
        raise ConfigError(f"{where}: checks {needs_symbol} need a symbol")
    if symbol is not None and all(spec.symbol == "unread" for _, spec in specs):
        raise ConfigError(f"{where}.symbol: no check of the scenario reads a symbol")
    if chart.model != "heisenberg" and not any(spec.chart_models for _, spec in specs):
        raise ConfigError(f"{where}.chart: no check of the scenario builds a {chart.model} chart")
    for c, spec in specs:
        if symbol is not None and spec.symbol != "unread" and symbol.kind not in spec.symbol_kinds:
            raise ConfigError(f"{where}: {c} applies to {list(spec.symbol_kinds)} symbols only")
        if spec.chart_models and chart.model not in spec.chart_models:
            raise ConfigError(f"{where}: {c} applies to {list(spec.chart_models)} charts only")
        if spec.oracle:  # the validators the oracle applies again when it runs
            for key, validate in (
                ("t_samples", oracle_t_samples),
                ("nodes_per_axis", lambda nodes: oracle_nodes(nodes, 2 * chart.n + 2)),
                ("cutoff_radius", oracle_cutoff_radius),
            ):
                try:
                    validate(oracle.get(key))
                except OracleFitError as exc:
                    raise ConfigError(f"{where}: config.oracle.{key}: {exc}") from exc


def parse_config(doc: dict) -> dict:
    """Validate a parsed config document; returns a normalized copy.

    Types and shapes, every check that cannot apply to its scenario, every
    field no check reads and the oracle options of a config that reads them
    are checked here.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _require_keys(doc, _TOP_KEYS, "config")
    seed = _integer(doc, "seed", 0, 0, "config")
    # configs written before the work orders were fixed carry the old default 6
    if "jet_order" in doc and not (_is_int(doc["jet_order"]) and doc["jet_order"] == 6):
        raise ConfigError("config.jet_order: the work orders are fixed; the key accepts only 6")
    oracle = _section(doc, "oracle", _ORACLE_KEYS, "config")
    if "cutoff_radius" in oracle:
        _number(oracle["cutoff_radius"], "config.oracle.cutoff_radius")
    t_samples = oracle.get("t_samples", [])
    if not isinstance(t_samples, list):
        raise ConfigError("config.oracle.t_samples: must be a list of numbers")
    for t in t_samples:
        _number(t, "config.oracle.t_samples[]")
    nodes = oracle.get("nodes_per_axis")
    if nodes is not None and not (isinstance(nodes, list) and all(map(_is_int, nodes))):
        raise ConfigError("config.oracle.nodes_per_axis: must be a list of integers")

    raw_scenarios = doc.get("scenarios", [])
    if not isinstance(raw_scenarios, list):
        raise ConfigError("config.scenarios: must be a list")
    scenarios: List[Scenario] = []
    names = set()
    for i, raw in enumerate(raw_scenarios):
        where = f"config.scenarios[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: must be an object")
        _require_keys(raw, _SCEN_KEYS, where)
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{where}.name: must be a non-empty string")
        if any(ch in name for ch in ',"\n\r'):
            raise ConfigError(f"{where}.name: commas, quotes and newlines are not allowed")
        if name in names:
            raise ConfigError(f"{where}.name: duplicate scenario name {name!r}")
        names.add(name)

        chart_raw = _section(raw, "chart", _CHART_KEYS, where)
        model = chart_raw.get("model", "heisenberg")
        if model not in CHART_MODELS:
            raise ConfigError(f"{where}.chart.model: unknown model {model!r}")
        unused = sorted({"r_synth", "seed"}.intersection(chart_raw))
        if model != "perturbed" and unused:
            raise ConfigError(f"{where}.chart: {unused} apply to perturbed charts only")
        chart = ChartSpec(
            model=model,
            n=_integer(chart_raw, "n", 1, 1, f"{where}.chart"),
            r_synth=_number(chart_raw.get("r_synth", 0.0), f"{where}.chart.r_synth"),
            seed=_integer(chart_raw, "seed", 0, 0, f"{where}.chart"),
        )
        if chart.n not in CR_DIMENSIONS:
            raise ConfigError(f"{where}.chart.n: must be at most {CR_DIMENSIONS[-1]}; at n = 6 the (x, y) "
                              "and (x, xi) jets are (26, 4), past the jet index's 2^62 key cap")

        symbol = None
        if "symbol" in raw:
            sym_raw = _section(raw, "symbol", _SYM_KEYS, where)
            kind = sym_raw.get("kind", "identity")
            if kind not in SYMBOL_KINDS:
                raise ConfigError(f"{where}.symbol.kind: unknown kind {kind!r}")
            unused = sorted({"order_m", "num_components"}.intersection(sym_raw))
            if kind != "random-homogeneous" and unused:
                raise ConfigError(f"{where}.symbol: {unused} apply to random-homogeneous symbols only")
            symbol = SymbolSpec(
                kind=kind,
                order_m=_number(sym_raw.get("order_m", 0.0), f"{where}.symbol.order_m"),
                num_components=_integer(sym_raw, "num_components", 2, 1, f"{where}.symbol"),
                seed=_integer(sym_raw, "seed", 0, 0, f"{where}.symbol"),
            )

        checks = raw.get("checks", [])
        if not isinstance(checks, list) or not checks:
            raise ConfigError(f"{where}.checks: must be a non-empty list")
        for c in checks:
            if not isinstance(c, str) or c not in CHECK_SPECS:
                raise ConfigError(f"{where}.checks: unknown check {c!r}")
        if len(set(checks)) != len(checks):
            raise ConfigError(f"{where}.checks: duplicate check ids")

        tol_raw = _section(raw, "tolerances", _TOL_KEYS, where)
        atol = _number(tol_raw.get("absolute", 0.0), f"{where}.tolerances.absolute")
        rtol = _number(tol_raw.get("relative", 1e-9), f"{where}.tolerances.relative")
        if atol < 0 or rtol < 0 or (atol == 0 and rtol == 0):
            raise ConfigError(f"{where}.tolerances: need positive tolerances")

        read = set().union(*(CHECK_SPECS[c].params for c in checks))
        params = _section(raw, "params", read, where)  # a key no check reads is unknown
        for k in params:
            _integer(params, k, 1, 1, f"{where}.params")

        scenario = Scenario(
            name=name,
            chart=chart,
            symbol=symbol,
            checks=tuple(checks),
            atol=atol,
            rtol=rtol,
            params=dict(params),
        )
        _check_applicability(where, scenario, oracle)
        scenarios.append(scenario)
    if oracle and not any(CHECK_SPECS[c].oracle for scen in scenarios for c in scen.checks):
        raise ConfigError("config.oracle: no check of the config reads the oracle options")
    return {"seed": seed, "oracle": dict(oracle), "scenarios": scenarios}


def read_config_doc(path: str):
    """The JSON document at ``path``, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path!r} nests too deeply: {exc}") from exc


# -- check context -----------------------------------------------------------------------


class RunCache:
    """Charts, phase data and quadrature fits built during one ``run_scenarios``
    call, keyed by chart spec, Hessian algebras keyed by Hessian and the b1
    routes' chart maps (``Substitution``s) keyed by bytes; scenarios on one
    chart, and charts of one Hessian or map, share them; nothing outlives the run."""

    def __init__(self):
        self.charts: Dict[ChartSpec, CRModelChart] = {}
        self.phase_data: Dict[ChartSpec, PhaseCriticalData] = {}
        self.hessian_algebras: Dict[bytes, HessianAlgebra] = {}
        self.substitutions: Dict[tuple, Substitution] = {}
        self.quadrature: Dict[Tuple[ChartSpec, int], list] = {}

    def chart(self, spec: ChartSpec) -> CRModelChart:
        if spec not in self.charts:
            if spec.model == "heisenberg":
                self.charts[spec] = heisenberg_chart(spec.n)
            else:
                base = self.chart(ChartSpec(n=spec.n))
                q, table = random_perturbation(spec.n, spec.r_synth, seed=spec.seed)
                self.charts[spec] = perturbed_chart(base, spec.r_synth, q, table)
        return self.charts[spec]

    def phase(self, spec: ChartSpec) -> PhaseCriticalData:
        if spec not in self.phase_data:
            self.phase_data[spec] = build_phase_data(self.chart(spec), self.hessian_algebras)
        return self.phase_data[spec]


#: order of a scenario's symbol: the b0 and b1 checks read e_0 to degree 2
SCENARIO_SYMBOL_ORDER = 2


class CheckContext:
    """Resolved chart, symbol and seeds for one scenario run."""

    def __init__(self, scenario: Scenario, seed: int, oracle_opts: dict, cache: RunCache):
        self.scenario = scenario
        self.seed = seed
        self.oracle_opts = oracle_opts
        self.cache = cache
        self.n = scenario.chart.n
        self._symbol: Optional[ClassicalSymbol] = None
        self._b1_pipeline = None

    @property
    def chart(self) -> CRModelChart:
        return self.cache.chart(self.scenario.chart)

    @property
    def symbol(self) -> ClassicalSymbol:
        if self._symbol is None:
            spec = self.scenario.symbol
            d = 2 * self.n + 1
            if spec.kind == "identity":
                self._symbol = identity_symbol(self.n, order=SCENARIO_SYMBOL_ORDER)
            elif spec.kind == "multiplication":
                rng = spawn_rng(self.seed, "mult-f", self.scenario.name, spec.seed)
                f = random_jet(rng, d, SCENARIO_SYMBOL_ORDER, (0.0,) * d, decay=0.5)
                self._symbol = make_multiplication_symbol(f)
            else:
                self._symbol = random_classical_symbol(
                    self.n, spec.order_m, spec.num_components, seed=spec.seed, order=SCENARIO_SYMBOL_ORDER
                )
        return self._symbol

    @property
    def phase_data(self) -> PhaseCriticalData:
        return self.cache.phase(self.scenario.chart)

    @property
    def b1_pipeline(self) -> Tuple[complex, complex]:
        """(b0, b1) by the stationary-phase route, computed once per scenario."""
        if self._b1_pipeline is None:
            self._b1_pipeline = toeplitz_b1_pipeline(self.symbol, self.chart, self.phase_data, self.cache.substitutions)
        return self._b1_pipeline

    def rng(self, *labels) -> Stream:
        return spawn_rng(self.seed, self.scenario.name, *labels)

    def param(self, key: str, default: int) -> int:
        return int(self.scenario.params.get(key, default))

    def quadrature_fit(self):
        """Oracle fits and formal coefficients for seeded amplitudes.

        Draws are keyed by the master seed only (not the scenario name), and
        the run cache keeps the fits per chart and amplitude count, so
        scenarios checking the leading and subleading coefficients on one
        chart share one set of integrals; the amplitudes share one sweep.
        """
        count = self.param("num_amplitudes", 5)
        key = (self.scenario.chart, count)
        if key not in self.cache.quadrature:
            amp_order = 2
            sweep = oracle_sweep(self.phase_data, amp_order, **self.oracle_opts)
            nv = 2 * self.n + 2
            fits = []
            for k in range(count):
                rng = spawn_rng(self.seed, "quadrature-amplitude", k)
                amp = random_jet(rng, nv, amp_order, (0.0,) * nv, decay=0.6)
                fits.append((numeric_expansion_oracle(sweep, amp), expansion_coeffs(self.phase_data, amp)))
            self.cache.quadrature[key] = fits
        return self.cache.quadrature[key]


def _record(check_id: str, a: complex, b: complex, atol: float, rtol: float, dt: float) -> CheckRecord:
    a, b = complex(a), complex(b)
    dev = abs(a - b)
    tol = atol + rtol * (1.0 + abs(b))
    return CheckRecord(
        check_id=check_id,
        route_a=a,
        route_b=b,
        abs_deviation=dev,
        rel_deviation=dev / (1.0 + abs(b)),
        tolerance=tol,
        passed=dev <= tol,
        wall_time_s=dt,
    )


def _worst(pairs: Sequence[Tuple[complex, complex]]) -> Tuple[complex, complex]:
    """The (A, B) pair with the largest normalized deviation."""
    return max(pairs, key=lambda ab: abs(ab[0] - ab[1]) / (1.0 + abs(ab[1])))


# -- individual checks ----------------------------------------------------------------------


def check_b0_leading(ctx: CheckContext):
    b0, _ = ctx.b1_pipeline
    return b0, ctx.symbol.components[0].constant_term() / szego_norm(ctx.n)


def check_b1_two_routes(ctx: CheckContext):
    _, b1 = ctx.b1_pipeline
    _, c1 = toeplitz_b1_closed_form(ctx.symbol, ctx.chart, ctx.cache.substitutions)
    return b1, c1


def check_b1_reference(ctx: CheckContext):
    """Pipeline b1 against the multiplication-operator corollary value."""
    _, b1 = ctx.b1_pipeline
    d = 2 * ctx.n + 1
    e0 = ctx.symbol.components[0]
    # f(x) = e_0(x, xi) with the xi slots pinned at the base covector
    f = e0.reindex(d, [*range(d), *[None] * d], (0.0,) * d)
    want = tw_scalar_curvature(ctx.chart) * f.constant_term() - kohn_laplacian_at0(ctx.chart, f)
    return b1, want / (2.0 * szego_norm(ctx.n))


def check_composition_two_routes(ctx: CheckContext):
    """Both routes on every drawn pair at once: each pair draws its two top
    powers and two seeds, the A and the C amplitudes are drawn as two stacks,
    and each route is called once and returns one value per pair."""
    draws = []  # per pair: the A and C top powers, then their seeds
    for rng in (ctx.rng("composition", k) for k in range(ctx.param("num_pairs", 5))):
        draws.append([float(rng.uniform(-1.0, 2.0)) for _ in "AC"] + [int(rng.integers(1 << 30)) for _ in "AC"])
    la, lc, seed_a, seed_c = map(list, zip(*draws))
    A, C = random_amplitude(ctx.n, la, seed_a), random_amplitude(ctx.n, lc, seed_c)
    sp0, sp1 = compose_amplitudes_sp(A, C, ctx.chart, phase_data=ctx.phase_data)
    c0, c1 = compose_amplitudes_closed(A, C, ctx.chart)
    rows = zip(sp0.tolist(), c0.tolist(), sp1.tolist(), c1.tolist())
    return _worst([pair for row in rows for pair in (row[:2], row[2:])])


def check_projector_idempotence(ctx: CheckContext):
    A = szego_amplitude(ctx.chart)
    sp0, sp1 = compose_amplitudes_sp(A, A, ctx.chart, phase_data=ctx.phase_data)
    return _worst([(sp0, A.leading.constant_term()), (sp1, A.subleading)])


def _diffeo_draw(ctx: CheckContext, k: int):
    """(symbol, density, s, kappa) of the k-th subprincipal-invariance draw: the
    symbol at order 4 and the density at order 1, the orders the check reads
    (the density is drawn at ``SYMBOL_ORDER`` and exponentiated after its
    truncation), and kappa at ``SYMBOL_ORDER``, its d bumps drawn as one
    batch of successive draws from the shared stream."""
    d = 2 * ctx.n + 1
    order = SYMBOL_ORDER
    rng = ctx.rng("diffeo", k)
    sym = random_classical_symbol(
        ctx.n, float(rng.uniform(-1, 1)), 2,
        seed=int(rng.integers(1 << 30)), homogeneous=False, order=4,
    )
    lam = random_jet(rng, d, order, (0.0,) * d, real=True, decay=0.4, min_degree=1).scale(0.5).truncated(1).exp()
    s_val = float(rng.uniform(0.5, 2.0))
    bumps = random_jet([rng] * d, d, order, (0.0,) * d, real=True, decay=0.3, min_degree=2)
    kappa = Jet.stack([Jet.displacement(c, d, order, (0.0,) * d) for c in range(d)])
    kappa = kappa + bumps.truncated(3).with_order(order).scale(0.3)
    return sym, lam, s_val, [kappa._like(row) for row in kappa.vector]


def check_subprincipal_invariance(ctx: CheckContext):
    pairs = []
    for k in range(ctx.param("num_diffeos", 20)):
        sym, lam, s_val, kappa = _diffeo_draw(ctx, k)
        # the compared values are constant terms, and a degree never reads a higher one:
        # kappa drops to the symbol's order 4 (the transform's two derivative levels and
        # its d^2 kappa term), the density is drawn at order 1 (the subprincipal value
        # reads degree 1), and kappa is inverted at order 2, all that either transform
        # reads of the inverse
        kappa = [c.truncated(4) for c in kappa]
        psi = invert_map([c.truncated(2) for c in kappa])
        tsym = transform_symbol_under_diffeo(sym, kappa, psi)
        tlam = transform_density(lam, kappa, s_val, psi)
        direct = subprincipal_symbol(sym, lam, s_val)
        transported = subprincipal_symbol(tsym, tlam, s_val)
        pairs.append((transported, direct))
    return _worst(pairs)


def check_p_operator_routes(ctx: CheckContext):
    base = xi_base(ctx.n)
    nv = 2 * (2 * ctx.n + 1)
    draws = range(ctx.param("num_fields", 20))
    # both routes read the fields' second derivatives at most
    fields = random_jet([ctx.rng("hamiltonian", k) for k in draws], nv, 2, base, decay=0.5)
    geometric = p_operator_geometric(ctx.chart, fields).tolist()
    return _worst(list(zip(geometric, p_operator_canonical(fields).tolist())))


def check_christoffel_table(ctx: CheckContext):
    """The Levi frame X is parallel: d_j X_a^l(0) - sum_k X_a^k(0) Gamma^k_{jl}(0)
    against 0 for every (a, j, l), with Gamma^k_{jl} the (j, l, k) entry of
    ``christoffel_symbols`` of that frame."""
    d = ctx.chart.dim
    frame, coframe = levi_frame(ctx.chart, CHART_ORDER)
    gammas = {slot: g.constant_term() for slot, g in christoffel_symbols(frame, coframe).items()}
    pairs = []
    for row in frame:
        at0 = [x.constant_term() for x in row]
        for j in range(d):
            for l in range(d):
                moved = sum(at0[k] * gammas[(j, l, k)] for k in range(d))
                pairs.append((row[l].derivative_at(j) - moved, 0.0))
    return _worst(pairs)


def _apply_field(field: Sequence[Jet], g: Jet) -> Jet:
    """sum_b c_b d_b g for the vector field sum_b c_b d/dx_b, one order below g."""
    low = g.order - 1
    terms = (c.truncated(low) * g.partial(b) for b, c in enumerate(field))
    return sum(terms, Jet.zero(g.num_vars, low, g.base_point))


def check_kohn_point_formula(ctx: CheckContext):
    """Kohn values against the definition -sum_j (Z_j (Zbar_j f))(0), with Z_j
    the chart's frame and Zbar_j its conjugate."""
    d = 2 * ctx.n + 1
    pairs = []
    for k in range(10):
        rng = ctx.rng("kohn", k)
        f = random_jet(rng, d, 4, (0.0,) * d, decay=0.5)
        want = 0.0 + 0.0j
        for z in ctx.chart.frame:
            want -= _apply_field(z, _apply_field([c.conjugate() for c in z], f)).constant_term()
        pairs.append((kohn_laplacian_at0(ctx.chart, f), want))
    return _worst(pairs)


def check_expansion_exact(ctx: CheckContext):
    """``expansion_coeffs`` against ``exact_coefficients`` on the exact phase;
    the t^{p-1} amplitude term g1 adds g1 c0 / gamma(0) = 2 pi^{n+1} g1 to c1."""
    nv = 2 * ctx.n + 2
    pairs = []
    for k in range(10):
        rng = ctx.rng("expansion-exact", k)
        gamma = random_jet(rng, nv, 2, (0.0,) * nv, decay=0.6)
        g1 = complex(*rng.standard_normal(2))
        c0, c1 = exact_coefficients(gamma.graded_items(), ctx.n, 1)
        pairs += zip(expansion_coeffs(ctx.phase_data, gamma, g1), (c0, c1 + 2.0 * math.pi ** (ctx.n + 1) * g1))
    return _worst(pairs)


def check_quadrature_leading(ctx: CheckContext):
    return _worst([(fit[0], ref[0]) for fit, ref in ctx.quadrature_fit()])


def check_quadrature_subleading(ctx: CheckContext):
    return _worst([(fit[1], ref[1]) for fit, ref in ctx.quadrature_fit()])


@dataclass(frozen=True)
class CheckSpec:
    """One check: its function and what it reads of a scenario.

    ``symbol`` is "required" or "unread".  ``chart_models`` is empty for a
    check that never builds the chart (it reads only ``n``, which every check
    accepts in ``CR_DIMENSIONS``).  ``oracle`` says whether the check reads
    the ``oracle`` options.
    """

    fn: Callable[[CheckContext], Tuple[complex, complex]]
    symbol: str = "unread"
    symbol_kinds: Tuple[str, ...] = SYMBOL_KINDS
    chart_models: Tuple[str, ...] = CHART_MODELS
    params: Tuple[str, ...] = ()
    oracle: bool = False


#: the one statement of which checks apply to which scenarios; ``parse_config``
#: rejects every scenario it rules out (the quadrature oracle alone still
#: refuses perturbed charts when it runs)
CHECK_SPECS: Dict[str, CheckSpec] = {
    "b0_leading": CheckSpec(check_b0_leading, symbol="required"),
    "b1_two_routes": CheckSpec(check_b1_two_routes, symbol="required"),
    "b1_reference": CheckSpec(check_b1_reference, symbol="required", symbol_kinds=("identity", "multiplication")),
    "composition_two_routes": CheckSpec(check_composition_two_routes, params=("num_pairs",)),
    "projector_idempotence": CheckSpec(check_projector_idempotence),
    "subprincipal_invariance": CheckSpec(check_subprincipal_invariance, chart_models=(), params=("num_diffeos",)),
    "p_operator_routes": CheckSpec(check_p_operator_routes, chart_models=("heisenberg",), params=("num_fields",)),
    "christoffel_table": CheckSpec(check_christoffel_table),
    "kohn_point_formula": CheckSpec(check_kohn_point_formula),
    "expansion_exact": CheckSpec(check_expansion_exact, chart_models=("heisenberg",)),
    "quadrature_leading": CheckSpec(check_quadrature_leading, params=("num_amplitudes",), oracle=True),
    "quadrature_subleading": CheckSpec(check_quadrature_subleading, params=("num_amplitudes",), oracle=True),
}

#: check id -> function; ``run_scenarios`` looks each check up here when it runs it
CHECKS: Dict[str, Callable[[CheckContext], Tuple[complex, complex]]] = {
    check_id: spec.fn for check_id, spec in CHECK_SPECS.items()
}


# -- run / emit ------------------------------------------------------------------------------


def run_scenarios(
    config: dict,
    name_filter: Optional[str] = None,
    timings: bool = True,
) -> List[ExpansionReport]:
    """Run every scenario's checks with one cache for the run.

    A comparison outside its tolerance is recorded as a failed record; a
    check that raises aborts the run and its error propagates.
    """
    seed = config.get("seed", 0)
    oracle_opts = config.get("oracle", {})
    env = {"version": __version__, "seed": str(seed)}
    cache = RunCache()
    reports: List[ExpansionReport] = []
    for scenario in config["scenarios"]:
        if name_filter and not fnmatch.fnmatch(scenario.name, name_filter):
            continue
        ctx = CheckContext(scenario, seed, oracle_opts, cache)
        records = []
        for check_id in scenario.checks:
            t0 = time.perf_counter()
            a, b = CHECKS[check_id](ctx)
            dt = time.perf_counter() - t0 if timings else 0.0
            records.append(_record(check_id, a, b, scenario.atol, scenario.rtol, dt))
        reports.append(
            ExpansionReport(scenario=scenario.name, records=tuple(records), environment=env)
        )
    reports.sort(key=lambda r: r.scenario)
    return reports


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


#: the report fields of a check record: (name, text form)
_RECORD_FIELDS = (
    ("check_id", str),
    ("route_a", _fmt_complex),
    ("route_b", _fmt_complex),
    ("abs_deviation", _fmt_float),
    ("rel_deviation", _fmt_float),
    ("tolerance", _fmt_float),
    ("passed", bool),
    ("wall_time_s", _fmt_float),
)


def _record_doc(r: CheckRecord) -> dict:
    return {name: fmt(getattr(r, name)) for name, fmt in _RECORD_FIELDS}


def emit_report(reports: Sequence[ExpansionReport], fmt: str = "structured") -> bytes:
    """Serialize reports byte-stably.

    "structured" is JSON with numeric leaves rendered as 17-significant-digit
    strings (so round-trip parsing reproduces every value bit-exactly);
    "csv" is one header row plus one row per check record.
    """
    if fmt == "structured":
        payload = [
            {
                "scenario": rep.scenario,
                "environment": rep.environment,
                "records": [_record_doc(r) for r in rep.records],
            }
            for rep in reports
        ]
        text = json.dumps({"reports": payload}, indent=2, sort_keys=False)
        return (text + "\n").encode("utf-8")
    if fmt == "csv":
        lines = [",".join(["scenario"] + [name for name, _ in _RECORD_FIELDS])]
        for rep in reports:
            for r in rep.records:
                cells = [json.dumps(v) if isinstance(v, bool) else v for v in _record_doc(r).values()]
                lines.append(",".join([rep.scenario] + cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ConfigError(f"unknown report format {fmt!r} (expected 'structured' or 'csv')")


# -- built-in configuration ---------------------------------------------------------------------


def default_config_doc() -> dict:
    """The built-in 'default-suite' configuration document (full check suite)."""
    scenarios = [
        {
            "name": "geometry-tables",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["christoffel_table", "kohn_point_formula"],
            "tolerances": {"absolute": 1e-10, "relative": 0.0},
        },
        {
            "name": "geometry-tables-n2",
            "chart": {"model": "heisenberg", "n": 2},
            "checks": ["christoffel_table", "kohn_point_formula"],
            "tolerances": {"absolute": 1e-10, "relative": 0.0},
        },
        {
            "name": "cotangent-operators",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["p_operator_routes"],
            "tolerances": {"absolute": 1e-12, "relative": 0.0},
        },
        {
            "name": "subprincipal-invariance",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["subprincipal_invariance"],
            "tolerances": {"absolute": 1e-10, "relative": 0.0},
        },
        {
            "name": "identity-symbol",
            "chart": {"model": "heisenberg", "n": 1},
            "symbol": {"kind": "identity"},
            "checks": ["b0_leading", "b1_two_routes", "projector_idempotence"],
            "tolerances": {"absolute": 1e-10, "relative": 1e-12},
        },
        {
            "name": "composition-cross-route",
            "chart": {"model": "heisenberg", "n": 1},
            "checks": ["composition_two_routes"],
            "tolerances": {"absolute": 0.0, "relative": 1e-10},
            "params": {"num_pairs": 25},
        },
        {
            "name": "composition-cross-route-curved",
            "chart": {"model": "perturbed", "n": 1, "r_synth": 0.7, "seed": 3},
            "checks": ["composition_two_routes", "projector_idempotence"],
            "tolerances": {"absolute": 0.0, "relative": 1e-10},
            "params": {"num_pairs": 25},
        },
    ]
    for n in CR_DIMENSIONS:
        scenarios.append(
            {
                "name": f"expansion-exact-n{n}",
                "chart": {"model": "heisenberg", "n": n},
                "checks": ["expansion_exact"],
                "tolerances": {"absolute": 0.0, "relative": 1e-12},
            }
        )
        suffix = "" if n == 1 else f"-n{n}"
        for name, check, rtol in (
            ("quadrature-oracle", "quadrature_leading", 1e-2),
            ("quadrature-oracle-subleading", "quadrature_subleading", 5e-2),
        ):
            scenarios.append(
                {
                    "name": name + suffix,
                    "chart": {"model": "heisenberg", "n": n},
                    "checks": [check],
                    "tolerances": {"absolute": 0.0, "relative": rtol},
                    "params": {"num_amplitudes": 5},
                }
            )
    for k in range(10):
        scenarios.append(
            {
                "name": f"multiplication-{k:02d}",
                "chart": {"model": "heisenberg", "n": 1},
                "symbol": {"kind": "multiplication", "seed": 100 + k},
                "checks": ["b0_leading", "b1_two_routes", "b1_reference"],
                "tolerances": {"absolute": 1e-12, "relative": 1e-10},
            }
        )
    charts = [{"model": "heisenberg", "n": 1}]
    for i, r in enumerate((0.3, -0.3, 0.7, -0.7, 1.1)):
        charts.append({"model": "perturbed", "n": 1, "r_synth": r, "seed": 10 + i})
    orders = (-1.0, 0.0, 0.5, 1.0)
    sym_id = 0
    for m in orders:
        for k in range(10):
            chart = charts[sym_id % len(charts)]
            scenarios.append(
                {
                    "name": f"homogeneous-m{m:+.1f}-{k:02d}",
                    "chart": chart,
                    "symbol": {
                        "kind": "random-homogeneous",
                        "order_m": m,
                        "num_components": 2,
                        "seed": 1000 + sym_id,
                    },
                    "checks": ["b0_leading", "b1_two_routes"],
                    "tolerances": {"absolute": 1e-12, "relative": 1e-9},
                }
            )
            sym_id += 1
    return {"seed": 0, "scenarios": scenarios}


def default_config() -> dict:
    return parse_config(default_config_doc())
