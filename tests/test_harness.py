import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from crkernel.errors import ConfigError, OracleFitError
from crkernel.harness import (
    CHECK_SPECS,
    CR_DIMENSIONS,
    SYMBOL_KINDS,
    default_config,
    default_config_doc,
    emit_report,
    parse_config,
    run_scenarios,
)
from crkernel import cli


def small_config(**overrides):
    doc = {
        "seed": 0,
        "scenarios": [
            {
                "name": "geo",
                "chart": {"model": "heisenberg", "n": 1},
                "checks": ["christoffel_table", "kohn_point_formula"],
                "tolerances": {"absolute": 1e-10, "relative": 0.0},
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_empty_scenarios_empty_reports():
    cfg = parse_config({"scenarios": []})
    assert run_scenarios(cfg) == []


def test_duplicate_scenario_name_rejected():
    doc = small_config()
    doc["scenarios"] = doc["scenarios"] * 2
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(doc)


def test_unknown_keys_rejected():
    doc = small_config()
    doc["plotting"] = True
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(doc)
    doc = small_config()
    doc["scenarios"][0]["chart"]["foo"] = 1
    with pytest.raises(ConfigError, match=r"scenarios\[0\].chart"):
        parse_config(doc)
    doc = small_config()
    doc["scenarios"][0]["chart"]["jet_order"] = 6  # charts are built at a fixed order
    with pytest.raises(ConfigError, match=re.escape("config.scenarios[0].chart: unknown keys ['jet_order']")):
        parse_config(doc)


def test_unknown_check_rejected():
    doc = small_config()
    doc["scenarios"][0]["checks"] = ["no_such_check"]
    with pytest.raises(ConfigError, match="unknown check"):
        parse_config(doc)


def test_tolerances_must_be_positive():
    doc = small_config()
    doc["scenarios"][0]["tolerances"] = {"absolute": 0.0, "relative": 0.0}
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize(
    "path,value",
    [
        (("oracle", "nodes_per_axis"), "abc"),
        (("oracle", "nodes_per_axis"), [48, 48]),
        (("oracle", "nodes_per_axis"), [48.0, 48, 160, 160]),
        (("oracle", "t_samples"), "x"),
        (("oracle", "t_samples"), [60.0, "x"]),
        (("oracle", "cutoff_radius"), "big"),
        (("oracle",), [1]),
        (("seed",), -1),
        (("seed",), True),
        (("jet_order",), 6.0),
        (("scenarios", 0, "chart"), "heisenberg"),
        (("scenarios", 0, "chart", "r_synth"), "x"),
        (("scenarios", 0, "chart", "seed"), -3),
        (("scenarios", 0, "chart", "n"), "six"),
        (("scenarios", 0, "symbol"), "identity"),
        (("scenarios", 0, "symbol", "num_components"), 0),
        (("scenarios", 0, "symbol", "order_m"), "half"),
        (("scenarios", 0, "symbol", "seed"), 1.5),
        (("scenarios", 0, "tolerances"), 1e-9),
        (("scenarios", 0, "tolerances", "relative"), "tight"),
        (("scenarios", 0, "params", "num_amplitudes"), 0),
        (("scenarios", 0, "checks"), [{"id": "quadrature_leading"}]),
        (("oracle", "t_samples"), []),
        (("oracle", "t_samples"), [60.0, 65.0, 70.0]),
        (("oracle", "t_samples"), [10.0, 60.0, 65.0, 70.0]),
        (("oracle", "t_samples"), [60.0, 65.0, 70.0, 90.0]),
        (("oracle", "nodes_per_axis"), []),
        (("oracle", "nodes_per_axis"), [32, 48, 160, 160]),
        (("oracle", "nodes_per_axis"), [48, 48, 160, 47]),
        (("jet_order",), 5),  # the legacy key accepts only the integer 6
        (("jet_order",), 7),
        (("jet_order",), "6"),
        (("jet_order",), True),
        (("scenarios", 0, "name"), "a,b"),  # CSV cells are written unquoted
        (("scenarios", 0, "name"), "a\nb"),
        (("scenarios", 0, "name"), '"q"'),
        (("oracle", "cutoff_radius"), 0.0),  # the box must keep Im(phase) >= 0
        (("oracle", "cutoff_radius"), 2.0),
    ],
)
def test_malformed_values_rejected(path, value):
    doc = small_config()
    doc["oracle"] = {"nodes_per_axis": [48, 48, 160, 160]}
    scen = doc["scenarios"][0]
    # every field the cases below touch is read by a check, so each case is
    # rejected for its own value (the oracle refuses the perturbed chart only
    # when it runs)
    scen["chart"] = {"model": "perturbed", "n": 1, "r_synth": 0.3, "seed": 1}
    scen["checks"] = ["quadrature_leading", "b0_leading"]
    scen["symbol"] = {"kind": "random-homogeneous", "order_m": 0.5}
    scen["params"] = {"num_amplitudes": 1}
    parse_config(doc)  # the unmodified document is valid
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    where = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    with pytest.raises(ConfigError, match=re.escape(where)):
        parse_config(doc)


def test_malformed_value_exits_two(tmp_path, capsys):
    doc = small_config()
    doc["scenarios"][0]["symbol"] = {"kind": "identity", "num_components": 0}
    assert cli.main(["--config", write_config(tmp_path, doc)]) == 2


def test_p_operator_routes_rejected_on_perturbed_chart():
    doc = small_config()
    doc["scenarios"][0]["chart"] = {"model": "perturbed", "n": 1, "r_synth": 0.3}
    doc["scenarios"][0]["checks"] = ["p_operator_routes"]
    with pytest.raises(ConfigError, match="p_operator_routes"):
        parse_config(doc)


@pytest.mark.parametrize("check", ["b0_leading", "b1_two_routes", "b1_reference"])
def test_pipeline_checks_need_a_symbol(check):
    doc = small_config()
    doc["scenarios"][0]["checks"] = [check]
    with pytest.raises(ConfigError, match="need a symbol"):
        parse_config(doc)


def test_b1_reference_rejected_on_homogeneous_symbol():
    doc = small_config()
    doc["scenarios"][0]["symbol"] = {"kind": "random-homogeneous", "order_m": 0.5}
    doc["scenarios"][0]["checks"] = ["b1_reference"]
    with pytest.raises(ConfigError, match="b1_reference"):
        parse_config(doc)


@pytest.mark.parametrize("key,value", [("order_m", 0.5), ("num_components", 5)])
def test_homogeneous_only_symbol_keys_rejected(key, value):
    for kind in ("identity", "multiplication"):
        doc = small_config()
        doc["scenarios"][0]["symbol"] = {"kind": kind, key: value}
        with pytest.raises(ConfigError, match=key):
            parse_config(doc)


def test_symbol_no_check_reads_rejected():
    doc = small_config()
    doc["scenarios"][0]["symbol"] = {"kind": "identity"}
    with pytest.raises(ConfigError, match="no check of the scenario reads a symbol"):
        parse_config(doc)


@pytest.mark.parametrize(
    "chart,match",
    [
        ({"model": "perturbed", "n": 1, "r_synth": 0.3}, "builds a perturbed chart"),
        ({"n": 1, "r_synth": 0.3}, "apply to perturbed charts only"),
        ({"model": "heisenberg", "n": 1, "seed": 4}, "apply to perturbed charts only"),
    ],
)
def test_chart_fields_no_check_reads_rejected(chart, match):
    doc = small_config()
    doc["scenarios"][0]["chart"] = chart
    doc["scenarios"][0]["checks"] = ["subprincipal_invariance"]
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)
    doc["scenarios"][0]["chart"] = {"model": "heisenberg", "n": 1}  # an explicit exact model is fine
    parse_config(doc)


def test_params_key_no_check_reads_rejected():
    doc = small_config()
    doc["scenarios"][0]["checks"] = ["composition_two_routes"]
    doc["scenarios"][0]["params"] = {"num_pair": 3}
    with pytest.raises(ConfigError, match=r"params: unknown keys \['num_pair'\]"):
        parse_config(doc)
    doc["scenarios"][0]["params"] = {"num_pairs": 3}
    parse_config(doc)
    doc["scenarios"][0]["checks"] = ["kohn_point_formula"]
    doc["scenarios"][0]["params"] = {"num_samples": 3}  # a fixed count, not a setting
    with pytest.raises(ConfigError, match=r"params: unknown keys \['num_samples'\]"):
        parse_config(doc)


#: the one dimension rule's message, for a chart at n = 6
N_CAP_MESSAGE = "chart.n: must be at most 5; at n = 6 the (x, y) and (x, xi) jets are (26, 4), past the jet index's"


@pytest.mark.parametrize("check", ["quadrature_leading", "quadrature_subleading"])
def test_quadrature_rejected_outside_the_oracle_dimensions(check):
    doc = small_config()
    doc["scenarios"][0]["chart"] = {"model": "heisenberg", "n": 6}
    doc["scenarios"][0]["checks"] = [check]
    with pytest.raises(ConfigError, match=re.escape(N_CAP_MESSAGE)):
        parse_config(doc)
    doc["scenarios"][0]["chart"]["n"] = 2
    parse_config(doc)


def test_oracle_options_no_check_reads_rejected():
    doc = small_config(oracle={"nodes_per_axis": [], "cutoff_radius": 7.0})
    doc["scenarios"][0]["checks"] = ["expansion_exact"]
    with pytest.raises(ConfigError, match="config.oracle: no check of the config reads"):
        parse_config(doc)
    doc["oracle"] = {}
    parse_config(doc)


def test_legacy_jet_order_key_accepts_only_six(tmp_path, capsys):
    # older configs write the old default; it parses and changes nothing
    doc = default_config_doc()
    assert "jet_order" not in doc
    some = "homogeneous-m+0.5-*"  # every chart model and a drawn symbol
    without = emit_report(run_scenarios(parse_config(doc), name_filter=some, timings=False))
    doc["jet_order"] = 6
    assert emit_report(run_scenarios(parse_config(doc), name_filter=some, timings=False)) == without
    assert cli.main(["--config", write_config(tmp_path, small_config(jet_order=7))]) == 2
    assert "config error: config.jet_order: the work orders are fixed" in capsys.readouterr().err


def test_reports_deterministic_and_filterable():
    cfg = parse_config(small_config())
    blob1 = emit_report(run_scenarios(cfg, timings=False))
    blob2 = emit_report(run_scenarios(cfg, timings=False))
    assert blob1 == blob2
    assert run_scenarios(cfg, name_filter="nomatch-*") == []
    assert len(run_scenarios(cfg, name_filter="ge*")) == 1


def test_structured_round_trip_bit_exact():
    # json, complex and float read every field of the structured report back bit for bit
    def bits(value):
        if isinstance(value, complex):
            return value.real.hex(), value.imag.hex()
        return value.hex() if isinstance(value, float) else value

    scenarios = small_config()["scenarios"] + [_homogeneous_scenario("homogeneous", 0.5, 11)]
    reports = run_scenarios(parse_config(small_config(scenarios=scenarios)), timings=False)
    docs = json.loads(emit_report(reports, "structured"))["reports"]
    assert [doc["scenario"] for doc in docs] == ["geo", "homogeneous"]
    read = {"route_a": complex, "route_b": complex, "abs_deviation": float, "rel_deviation": float,
            "tolerance": float, "wall_time_s": float}
    for doc, report in zip(docs, reports):
        assert len(doc["records"]) == len(report.records)
        for rec, orig in zip(doc["records"], report.records):
            assert list(rec) == list(vars(orig))
            for name, text in rec.items():
                assert bits(read.get(name, lambda v: v)(text)) == bits(getattr(orig, name)), name


def test_csv_header_and_rows():
    cfg = parse_config(small_config())
    blob = emit_report(run_scenarios(cfg, timings=False), "csv")
    lines = blob.decode().strip().splitlines()
    assert lines[0] == (
        "scenario,check_id,route_a,route_b,abs_deviation,rel_deviation,"
        "tolerance,passed,wall_time_s"
    )
    assert len(lines) == 3
    assert lines[1].startswith("geo,christoffel_table,")


def test_empty_reports_still_valid_documents():
    assert json.loads(emit_report([], "structured")) == {"reports": []}
    assert emit_report([], "csv").decode().strip().count("\n") == 0


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        emit_report([], "yaml")


def test_multiplication_reference_check_runs():
    doc = small_config()
    doc["scenarios"][0]["symbol"] = {"kind": "multiplication", "seed": 3}
    doc["scenarios"][0]["checks"] = ["b0_leading", "b1_two_routes", "b1_reference"]
    doc["scenarios"][0]["tolerances"] = {"absolute": 1e-12, "relative": 1e-10}
    reports = run_scenarios(parse_config(doc), timings=False)
    assert reports[0].all_passed


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "chart", [{"model": "heisenberg"}, {"model": "perturbed", "r_synth": 0.7, "seed": 3}], ids=["exact", "perturbed"]
)
def test_geometry_rows_hold_by_definition(chart, n):
    # the Kohn row compares the point formula with -sum_j Z_j Zbar_j through the
    # chart's frame, the Christoffel row the symbols with the parallel Levi frame:
    # definitions that hold on any chart, to rounding
    doc = small_config()
    doc["scenarios"][0]["chart"] = dict(chart, n=n)
    (report,) = run_scenarios(parse_config(doc), timings=False)
    deviations = {r.check_id: r.abs_deviation for r in report.records}
    assert sorted(deviations) == ["christoffel_table", "kohn_point_formula"]
    assert max(deviations.values()) <= 1e-14, deviations


def test_pipeline_runs_once_per_scenario(monkeypatch):
    import crkernel.harness as harness

    calls = []
    original = harness.toeplitz_b1_pipeline

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "toeplitz_b1_pipeline", counting)
    doc = small_config()
    doc["scenarios"][0]["symbol"] = {"kind": "multiplication", "seed": 3}
    doc["scenarios"][0]["checks"] = ["b0_leading", "b1_two_routes", "b1_reference"]
    doc["scenarios"][0]["tolerances"] = {"absolute": 1e-12, "relative": 1e-10}
    reports = run_scenarios(parse_config(doc), timings=False)
    assert len(reports[0].records) == 3
    assert len(calls) == 1


def test_subprincipal_invariance_inverts_each_diffeo_once(monkeypatch):
    import crkernel.harness as harness
    import crkernel.symbols as symbols

    calls = []
    original = symbols.invert_map

    def counting(kappa):
        calls.append(kappa[0].order)
        return original(kappa)

    monkeypatch.setattr(harness, "invert_map", counting)
    monkeypatch.setattr(symbols, "invert_map", counting)
    doc = small_config()
    doc["scenarios"][0]["checks"] = ["subprincipal_invariance"]
    doc["scenarios"][0]["params"] = {"num_diffeos": 2}
    reports = run_scenarios(parse_config(doc), timings=False)
    assert reports[0].records[0].passed
    assert calls == [2, 2]  # once per diffeomorphism, at the order the transforms read


def test_subprincipal_invariance_at_order_4_equals_the_draws_at_order_6():
    from crkernel.harness import CheckContext, RunCache, _diffeo_draw, _worst, check_subprincipal_invariance
    from crkernel.symbols import (
        invert_map,
        random_classical_symbol,
        subprincipal_symbol,
        transform_density,
        transform_symbol_under_diffeo,
    )

    doc = small_config()
    doc["scenarios"][0]["checks"] = ["subprincipal_invariance"]
    doc["scenarios"][0]["params"] = {"num_diffeos": 4}
    ctx = CheckContext(parse_config(doc)["scenarios"][0], 0, {}, RunCache())
    pairs = []
    for k in range(4):
        sym4, lam, s_val, kappa = _diffeo_draw(ctx, k)
        assert lam.order == 1 and kappa[0].order == 6 and sym4.components[0].order == 4
        # the order-6 symbol from the same seed: its order-4 prefix is the draw
        rng = ctx.rng("diffeo", k)
        order_m, seed = float(rng.uniform(-1, 1)), int(rng.integers(1 << 30))
        sym = random_classical_symbol(ctx.n, order_m, 2, seed=seed, homogeneous=False, order=6)
        for c4, c6 in zip(sym4.components, sym.components):
            assert c4.vector.tobytes() == c6.truncated(4).vector.tobytes()
        psi = invert_map(kappa)
        tsym = transform_symbol_under_diffeo(sym, kappa, psi)
        tlam = transform_density(lam, kappa, s_val, psi)
        pairs.append((subprincipal_symbol(tsym, tlam, s_val), subprincipal_symbol(sym, lam, s_val)))
    assert check_subprincipal_invariance(ctx) == _worst(pairs)


def test_checks_read_exactly_their_spec_params(monkeypatch):
    from crkernel.harness import CheckContext

    asked = []

    def recording(self, key, default):
        asked.append(key)
        return 1

    monkeypatch.setattr(CheckContext, "param", recording)
    for check_id, spec in CHECK_SPECS.items():
        asked.clear()
        scenario = {"name": check_id, "chart": {"n": 1}, "checks": [check_id]}
        if spec.symbol == "required":
            scenario["symbol"] = {"kind": "identity"}
        run_scenarios(parse_config({"scenarios": [scenario]}), timings=False)
        assert tuple(asked) == spec.params, check_id


def _homogeneous_scenario(name, order_m, seed):
    return {
        "name": name,
        "chart": {"model": "heisenberg", "n": 1},
        "symbol": {"kind": "random-homogeneous", "order_m": order_m, "seed": seed},
        "checks": ["b0_leading", "b1_two_routes"],
        "tolerances": {"absolute": 1e-12, "relative": 1e-9},
    }


def _scenario(name, chart, checks, **extra):
    return {
        "name": name,
        "chart": chart,
        "checks": checks,
        "tolerances": {"absolute": 1e-10, "relative": 1e-2},
        **extra,
    }


def test_run_cache_builds_each_chart_once_per_run(monkeypatch):
    import crkernel.harness as harness
    import crkernel.stationary as stationary

    calls = []
    names = ("heisenberg_chart", "perturbed_chart", "build_phase_data", "oracle_sweep", "numeric_expansion_oracle")
    for module, name in [(harness, name) for name in names] + [(stationary, "hessian_algebra")]:

        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    flat = {"model": "heisenberg", "n": 1}
    curved = {"model": "perturbed", "n": 1, "r_synth": 0.7, "seed": 3}
    quadrature = {"params": {"num_amplitudes": 1}}
    doc = {
        "seed": 0,
        "oracle": {"t_samples": [60.0, 65.0, 70.0, 75.0]},
        "scenarios": [
            _scenario("leading", flat, ["quadrature_leading"], **quadrature),
            _scenario("subleading", flat, ["quadrature_subleading"], **quadrature),
            _scenario("flat", flat, ["expansion_exact", "christoffel_table"]),
            _scenario("curved-a", curved, ["projector_idempotence"]),
            _scenario("curved-b", curved, ["composition_two_routes"], params={"num_pairs": 1}),
        ],
    }
    config = parse_config(doc)
    # the exact chart also serves as the perturbed chart's base, and the
    # perturbed chart's quartic leaves the exact chart's Hessian algebra
    once = {
        "heisenberg_chart": 1,
        "perturbed_chart": 1,
        "build_phase_data": 2,
        "hessian_algebra": 1,
        "oracle_sweep": 1,
        "numeric_expansion_oracle": 1,
    }
    first = run_scenarios(config, timings=False)
    assert Counter(calls) == once
    second = run_scenarios(config, timings=False)  # a new run builds everything again
    assert Counter(calls) == {name: 2 * count for name, count in once.items()}
    assert emit_report(first) == emit_report(second)


class _Recording:
    """A module whose attributes are the module's, but for the given overrides."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@pytest.fixture(scope="module")
def default_run():
    """The run cache of a default-suite run, the size of every matrix
    ``crkernel.stationary`` inverted during the run, and every ``Substitution``
    ``crkernel.pipeline`` built."""
    import numpy as np

    import crkernel.harness as harness
    import crkernel.pipeline as pipeline
    import crkernel.stationary as stationary

    caches, inverted, built = [], [], []

    class RecordingCache(harness.RunCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    class RecordingSubstitution(pipeline.Substitution):
        def __init__(self, inner):
            super().__init__(inner)
            built.append(self)

    linalg = _Recording(np.linalg, inv=lambda a: inverted.append(len(a)) or np.linalg.inv(a))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "RunCache", RecordingCache)
        m.setattr(stationary, "np", _Recording(np, linalg=linalg))
        m.setattr(pipeline, "Substitution", RecordingSubstitution)
        reports = run_scenarios(default_config(), timings=False)
    assert all(rep.all_passed for rep in reports)
    (cache,) = caches
    return cache, inverted, built


def _field_bits(value):
    import numpy as np

    from crkernel.jets import Jet

    if isinstance(value, Jet):
        return value.num_vars, value.order, value.base_point, value.vector.tobytes()
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value


def test_run_phase_data_equals_a_fresh_build_per_chart(default_run):
    # charts of one n share the exact chart's Hessian algebra, and every field
    # equals the one build_phase_data forms for the chart alone
    import dataclasses

    from crkernel.harness import ChartSpec, RunCache
    from crkernel.stationary import build_phase_data

    cache, _, _ = default_run
    assert {spec.n for spec in cache.phase_data} == set(CR_DIMENSIONS)
    assert any(spec.model == "perturbed" for spec in cache.phase_data)
    for spec, data in cache.phase_data.items():
        fresh = build_phase_data(RunCache().chart(spec))
        for field in dataclasses.fields(data):
            got, want = getattr(data, field.name), getattr(fresh, field.name)
            assert _field_bits(got) == _field_bits(want), (spec, field.name)
        assert data.q is cache.phase_data[ChartSpec(n=spec.n)].q


def test_default_suite_inverts_one_hessian_per_n(default_run):
    _, inverted, _ = default_run
    assert sorted(inverted) == [2 * n + 2 for n in CR_DIMENSIONS]


def test_default_suite_prepares_each_chart_map_once(default_run):
    # every chart of one n gives byte-equal phase-gradient and contact-graph
    # maps (a perturbed phase leaves the normal form from degree 4, and a
    # perturbed chart keeps its base chart's contact form), so the two-route
    # scenarios, all at n = 1, build one Substitution of each
    cache, _, built = default_run
    assert len(cache.substitutions) == 2
    assert sorted(map(id, built)) == sorted(map(id, cache.substitutions.values()))
    assert sorted((sub.num_inner, sub._powers.shape[1]) for sub in built) == [(6, 10), (6, 28)]


def test_hessian_algebra_is_formed_per_call_outside_a_run(monkeypatch):
    # no cache outlives a call or a run: a module-level one would hide a
    # patched numpy (test_broken_branch_invariant_is_a_numerical_error) and
    # the mutation gate's in-process mutants
    import crkernel.stationary as stationary
    from crkernel.charts import heisenberg_chart

    formed = []
    original = stationary.hessian_algebra
    monkeypatch.setattr(stationary, "hessian_algebra", lambda hess: formed.append(len(hess)) or original(hess))
    chart = heisenberg_chart(1)
    stationary.build_phase_data(chart)
    stationary.build_phase_data(chart)
    assert formed == [4, 4]


def test_composition_draws_each_amplitude_batch_with_one_reindex(monkeypatch):
    import crkernel.harness as harness
    from crkernel.jets import Jet

    per_draw, inside = [], []
    draw, reindex = harness.random_amplitude, Jet.reindex

    def drawing(n, top_power, seed):
        inside.append(0)
        out = draw(n, top_power, seed)
        per_draw.append((out.leading.rows, inside.pop()))
        return out

    def counting(self, *args):
        if inside:
            inside[-1] += 1
        return reindex(self, *args)

    monkeypatch.setattr(harness, "random_amplitude", drawing)
    monkeypatch.setattr(Jet, "reindex", counting)
    doc = small_config()
    doc["scenarios"][0]["checks"] = ["composition_two_routes"]
    doc["scenarios"][0]["params"] = {"num_pairs": 5}
    assert run_scenarios(parse_config(doc), timings=False)[0].all_passed
    assert per_draw == [(5, 1), (5, 1)]  # the A batch and the C batch


def test_quadrature_amplitudes_share_one_moment_table_per_t_sample(monkeypatch):
    import crkernel.harness as harness
    import crkernel.stationary as stationary

    calls = Counter()
    for module, name in ((stationary, "oscillatory_monomial_moments"), (harness, "numeric_expansion_oracle")):

        def counting(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    t_samples = [60.0, 65.0, 70.0, 75.0]
    doc = {
        "seed": 0,
        "oracle": {"t_samples": t_samples},
        "scenarios": [_scenario("leading", {"n": 1}, ["quadrature_leading", "quadrature_subleading"])],
    }
    reports = run_scenarios(parse_config(doc), timings=False)
    assert all(r.passed for r in reports[0].records)
    # five amplitudes: one fit each, one moment table per t sample for all of them
    assert calls == {"numeric_expansion_oracle": 5, "oscillatory_monomial_moments": len(t_samples)}


def test_b1_scenarios_run_at_n4_and_n5():
    # scenario symbols are drawn at the degree the b1 routes read; drawn at
    # SYMBOL_ORDER, an n = 5 symbol jet has too many monomials to index
    scenarios = [
        {
            "name": f"{kind}-n{n}",
            "chart": {"n": n},
            "symbol": {"kind": kind, "seed": 5},
            "checks": ["b0_leading", "b1_two_routes"],
            "tolerances": {"absolute": 1e-12, "relative": 1e-9},
        }
        for n in (4, 5)
        for kind in SYMBOL_KINDS
    ]
    reports = run_scenarios(parse_config({"scenarios": scenarios}), timings=False)
    assert len(reports) == 6 and all(r.all_passed for r in reports)


def test_homogeneous_record_does_not_depend_on_earlier_scenarios():
    last = _homogeneous_scenario("last", 0.5, 11)
    alone = run_scenarios(parse_config(small_config(scenarios=[last])), timings=False)
    first = _homogeneous_scenario("first", -1.0, 4)
    after = run_scenarios(parse_config(small_config(scenarios=[first, last])), timings=False)
    assert emit_report(after[1:]) == emit_report(alone)
    # so does every default-suite record: each scenario run alone, and the
    # suite in reverse order, give the full run's bytes
    config = default_config()
    full = run_scenarios(config, timings=False)
    scenarios = sorted(config["scenarios"], key=lambda s: s.name)
    assert [rep.scenario for rep in full] == [s.name for s in scenarios]
    for scenario, report in zip(scenarios, full):
        alone = run_scenarios(dict(config, scenarios=[scenario]), timings=False)
        assert emit_report(alone) == emit_report([report]), scenario.name
    backwards = run_scenarios(dict(config, scenarios=config["scenarios"][::-1]), timings=False)
    assert emit_report(backwards) == emit_report(full)


def test_default_config_covers_every_check_kind():
    cfg = default_config()
    seen = {c for s in cfg["scenarios"] for c in s.checks}
    assert set(CHECK_SPECS) <= seen
    # the rows that witness the dimension constants run at every n
    for check in ("quadrature_leading", "quadrature_subleading", "expansion_exact"):
        ns = {s.chart.n for s in cfg["scenarios"] if check in s.checks}
        assert ns == set(CR_DIMENSIONS), check


def test_subprincipal_invariance_runs_at_n5():
    tolerances = {"absolute": 1e-10, "relative": 0.0}
    scenario = _scenario("n5", {"n": 5}, ["subprincipal_invariance"], tolerances=tolerances, params={"num_diffeos": 1})
    (report,) = run_scenarios(parse_config({"scenarios": [scenario]}), timings=False)
    assert report.all_passed


def test_subprincipal_draws_grow_no_basis_past_the_chart_order():
    # a fresh interpreter runs a two-route scenario, whose chart builds the (6, 4)
    # basis, then an n = 1 invariance check, as a routes run does; an order-6
    # symbol draw after the chart grew the 6-variable basis to order 8
    doc = {"seed": 7, "scenarios": [
        _homogeneous_scenario("two-route", 0.5, 1),
        _scenario("subprincipal", {"n": 1}, ["subprincipal_invariance"], params={"num_diffeos": 1}),
    ]}
    code = (
        "import json, sys, crkernel.jets as jets; from crkernel.harness import parse_config, run_scenarios; "
        "run_scenarios(parse_config(json.loads(sys.argv[1]))); print(jets._BASES[6].order)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    args = [sys.executable, "-c", code, json.dumps(doc)]
    out = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) <= 6


def test_default_suite_grows_no_table_past_what_it_reads():
    # a fresh interpreter runs the default suite and records every basis it
    # builds: none above order 6 (the contraction weights' q^3), and none
    # indexed above degree 4 (the chart order)
    code = (
        "import crkernel.jets as jets; from crkernel.harness import default_config, run_scenarios; "
        "built, init = [], jets._Basis.__init__; "
        "jets._Basis.__init__ = lambda self, *args: built.append(self) or init(self, *args); "
        "run_scenarios(default_config(), timings=False); "
        "print(max(b.order for b in built), max(b._indexed for b in built))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    order, indexed = map(int, out.stdout.split())
    assert order <= 6 and indexed <= 4


# -- CLI ------------------------------------------------------------------------------------


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_pass_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "report.json"
    code = cli.main(["--config", path, "--strict", "--out", str(out), "--no-timings"])
    assert code == 0
    assert json.loads(out.read_text())["reports"][0]["scenario"] == "geo"


def test_cli_config_error_exit_two(tmp_path, capsys):
    path = write_config(tmp_path, {"nonsense": 1})
    assert cli.main(["--config", path]) == 2
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{ not json")
    assert cli.main(["--config", str(bad_json)]) == 2
    assert cli.main(["--config", "/no/such/file.json"]) == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{\x00")
    assert cli.main(["--config", str(binary)]) == 2
    assert "config error" in capsys.readouterr().err
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["--config", str(nested)]) == 2
    assert "nests too deeply" in capsys.readouterr().err
    wide = {
        "oracle": {"cutoff_radius": 3.0},
        "scenarios": [_scenario("quad", {"n": 1}, ["quadrature_leading"], params={"num_amplitudes": 1})],
    }
    assert cli.main(["--config", write_config(tmp_path, wide)]) == 2
    err = capsys.readouterr().err
    assert "config.oracle.cutoff_radius: cutoff radius must lie in (0, 2) to keep Im(phase) >= 0" in err


@pytest.mark.parametrize("check,n", [(check, 6) for check in CHECK_SPECS])
def test_cli_rejects_dimensions_beyond_the_jet_index_cap(tmp_path, capsys, check, n):
    # every check meets the one rule on chart.n before its own rules: a phase
    # or symbol jet at (26, 4) would fail only when run, with exit 3
    doc = {"scenarios": [_scenario("capped", {"n": n}, [check])]}
    assert cli.main(["--config", write_config(tmp_path, doc)]) == 2
    assert N_CAP_MESSAGE in capsys.readouterr().err


def test_cli_unwritable_out_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write report ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_strict_failure_exit_one(tmp_path, capsys):
    doc = small_config()
    doc["scenarios"][0]["checks"] = ["kohn_point_formula"]
    doc["scenarios"][0]["tolerances"] = {"absolute": 1e-30, "relative": 0.0}
    path = write_config(tmp_path, doc)
    assert cli.main(["--config", path]) == 0  # non-strict records the failure
    assert cli.main(["--config", path, "--strict"]) == 1


def test_cli_numerical_error_exit_three(tmp_path, capsys):
    # the oracle's moment sweep refuses a perturbed chart's phase only when it runs
    doc = {
        "seed": 0,
        "scenarios": [
            {
                "name": "quad",
                "chart": {"model": "perturbed", "n": 1, "r_synth": 0.7, "seed": 3},
                "checks": ["quadrature_leading"],
                "tolerances": {"absolute": 0.0, "relative": 1e-2},
                "params": {"num_amplitudes": 1},
            }
        ],
    }
    path = write_config(tmp_path, doc)
    assert cli.main(["--config", path]) == 3
    err = capsys.readouterr().err
    assert "numerical error: quadrature oracle supports the exact phase s u_{2n} + i (1 + s/2)|u'|^2 only" in err


def test_broken_branch_invariant_is_a_numerical_error(tmp_path, monkeypatch, capsys):
    # a square root on the wrong branch must stop the run, not flip the sign of b0
    import numpy
    import crkernel.stationary as stationary

    class OtherBranch:
        def __getattr__(self, name):
            return getattr(numpy, name)

        @staticmethod
        def sqrt(x):
            return -numpy.sqrt(x)

    monkeypatch.setattr(stationary, "np", OtherBranch())
    doc = small_config()
    doc["scenarios"][0]["symbol"] = {"kind": "identity"}
    doc["scenarios"][0]["checks"] = ["b0_leading"]
    assert cli.main(["--config", write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert "numerical error: determinant square root does not lie in the right half plane" in err


def test_cli_kit_error_exit_three(tmp_path, monkeypatch, capsys):
    # channels calibrated for curvature R + 1 on a chart of curvature R miss the
    # consistency identity by |(i/2)(R - (R + 1))| = 0.5 whatever they draw; the
    # chart's ChartError is not a NumericalError but must still exit 3
    import crkernel.harness as harness
    from crkernel.charts import CONSISTENCY_TOL, random_perturbation

    monkeypatch.setattr(harness, "random_perturbation", lambda n, r, seed: random_perturbation(n, r + 1.0, seed))
    doc = small_config()
    scen = doc["scenarios"][0]
    scen["chart"] = {"model": "perturbed", "n": 1, "r_synth": 0.7, "seed": 1}
    scen["symbol"] = {"kind": "identity"}
    scen["checks"] = ["b0_leading"]
    assert cli.main(["--config", write_config(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert "kit error: ChartError: curvature consistency identity violated (residual 5.000e-01)" in err
    assert float(re.search(r"residual ([^)]+)\)", err).group(1)) > 1e9 * CONSISTENCY_TOL


def test_cli_nan_consistency_residual_exit_three(tmp_path, capsys):
    # r_synth = 1e308 overflows the quartic channel to a NaN residual, which
    # must fail the consistency identity rather than slip past the comparison
    doc = small_config()
    scen = doc["scenarios"][0]
    scen["chart"] = {"model": "perturbed", "n": 1, "r_synth": 1e308, "seed": 1}
    scen["symbol"] = {"kind": "identity"}
    scen["checks"] = ["b0_leading", "b1_two_routes"]
    assert cli.main(["--config", write_config(tmp_path, doc), "--no-timings"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kit error: ChartError: curvature consistency identity violated (residual nan)" in captured.err


def test_cli_filter_and_csv(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    code = cli.main(["--config", path, "--format", "csv", "--filter", "geo", "--no-timings"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("scenario,check_id")
    assert cli.main(["--config", path, "--strict", "--filter", "goe", "--no-timings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --filter 'goe' matches no scenario\n"


def test_cli_seed_and_jet_order_overrides(tmp_path, capsys):
    # the seed can be overridden; the jet order is fixed and has no option
    path = write_config(tmp_path, small_config())
    assert cli.main(["--config", path, "--seed", "7", "--no-timings"]) == 0
    env = json.loads(capsys.readouterr().out)["reports"][0]["environment"]
    assert env == {"version": env["version"], "seed": "7"}
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", path, "--jet-order", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jet-order 6" in capsys.readouterr().err


#: sha256 of ``verify --no-timings`` on the default suite.  A change that moves
#: rounding on purpose updates it and reports the moved values in CHANGES.md.
DEFAULT_SUITE_SHA256 = "93670e27b060144c22d492cbb867dc889b823c03b33d81f65b3e6f723935037f"


#: sha256 of every (A, B) pair the default suite's checks compare, not only each
#: record's worst: one "A.real A.imag B.real B.imag" line per pair at 17 digits
DEFAULT_SUITE_PAIRS_SHA256 = "e402281b2058ed8e426e9bca696cf0b6d277a517fd321636d8b0db30e3214e8b"


def test_default_suite_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    # in-process, after other tests have filled the jet caches: a record must not
    # depend on what ran before it
    import crkernel.harness as harness

    pairs = []

    def recording(candidates, _worst=harness._worst):
        candidates = list(candidates)
        pairs.extend(candidates)
        return _worst(candidates)

    def recorded(fn):  # a check that calls no _worst compares one pair
        def check(ctx):
            pairs.append(fn(ctx))
            return pairs[-1]

        return check

    monkeypatch.setattr(harness, "_worst", recording)
    for check_id, fn in list(harness.CHECKS.items()):
        monkeypatch.setitem(harness.CHECKS, check_id, recorded(fn))
    out = tmp_path / "report.json"
    assert cli.main(["--out", str(out), "--no-timings"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_SUITE_SHA256
    text = "".join(f"{a.real:.17g} {a.imag:.17g} {b.real:.17g} {b.imag:.17g}\n" for a, b in
                   (map(complex, pair) for pair in pairs))
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SUITE_PAIRS_SHA256, len(pairs)


def _cpu_dispatch():
    """numpy's dispatch targets and the features of this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return __cpu_dispatch__, __cpu_features__


def _avx512_targets():
    """The AVX-512 targets that numpy dispatches to on this CPU."""
    dispatch, features = _cpu_dispatch()
    return [t for t in dispatch if (t == "X86_V4" or t.startswith("AVX512")) and features.get(t)]


def test_default_suite_without_avx512_kernels(tmp_path):
    # numpy's AVX-512 exp, sin and cos may round otherwise than its AVX2 ones.
    # Only the quadrature oracle reads them (its nodes and moments), so every
    # other record keeps its bytes, and the oracle's values move by rounding only.
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
    out = tmp_path / "report.json"
    assert cli.main(["--out", str(out), "--no-timings"]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    child = subprocess.run(
        [sys.executable, "-m", "crkernel.cli", "--no-timings"], env=env, capture_output=True, check=True
    )
    here, there = json.loads(out.read_bytes())["reports"], json.loads(child.stdout)["reports"]
    assert [r["scenario"] for r in here] == [r["scenario"] for r in there]
    quadrature = 0
    for mine, theirs in zip(here, there):
        for a, b in zip(mine["records"], theirs["records"], strict=True):
            if a["check_id"] not in ("quadrature_leading", "quadrature_subleading"):
                assert a == b, mine["scenario"]
                continue
            quadrature += 1
            assert a["passed"] and b["passed"]
            for key in ("route_a", "route_b"):
                assert abs(complex(a[key]) - complex(b[key])) <= 1e-11 * abs(complex(a[key])), mine["scenario"]
    assert quadrature == 10


def test_default_suite_under_sandybridge_blas_kernels(tmp_path):
    # OPENBLAS_CORETYPE=Sandybridge makes OpenBLAS run the AVX kernels of an
    # older core in place of the ones it picks for this CPU.  No record reads a
    # BLAS result that they round otherwise, so every record keeps its bytes.
    # (The Prescott kernels still move the four records that pass through
    # stationary.hessian_algebra's np.linalg.inv and det.)
    if not _cpu_dispatch()[1].get("AVX"):
        pytest.skip("this CPU cannot run OpenBLAS's Sandybridge kernels")
    out = tmp_path / "report.json"
    assert cli.main(["--out", str(out), "--no-timings"]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_CORETYPE="Sandybridge")
    child = subprocess.run(
        [sys.executable, "-m", "crkernel.cli", "--no-timings"], env=env, capture_output=True, check=True
    )
    here, there = json.loads(out.read_bytes())["reports"], json.loads(child.stdout)["reports"]
    for mine, theirs in zip(here, there, strict=True):
        assert mine == theirs, mine["scenario"]
    assert child.stdout == out.read_bytes()


def test_cli_overrides_go_through_parse_config(tmp_path, capsys):
    doc = small_config()
    doc["scenarios"][0]["symbol"] = {"kind": "identity"}
    doc["scenarios"][0]["checks"] = ["b1_two_routes"]
    path = write_config(tmp_path, doc)
    assert cli.main(["--config", path, "--seed", "-1"]) == 2
    assert "config.seed: must be an integer >= 0" in capsys.readouterr().err


QUADRATURE_LEAK_DOC = {
    "seed": 0,
    "oracle": {"t_samples": [60.0, 65.0, 70.0, 75.0]},
    "scenarios": [
        _scenario("flat", {"model": "heisenberg", "n": 1}, ["quadrature_leading"], params={"num_amplitudes": 1}),
        _scenario(
            "curved",
            {"model": "perturbed", "n": 1, "r_synth": 0.7, "seed": 3},
            ["quadrature_leading"],
            params={"num_amplitudes": 1},
        ),
    ],
}


def test_quadrature_memo_is_keyed_by_chart():
    # The flat scenario runs first and fits; the perturbed one in the same run
    # must still reach the oracle and be refused, rather than read the flat
    # chart's fits.
    with pytest.raises(OracleFitError):
        run_scenarios(parse_config(QUADRATURE_LEAK_DOC))


# -- README ---------------------------------------------------------------------------------


def render_check_table():
    """The README's check table, rendered from CHECK_SPECS."""
    rows = [
        "| check | symbol | chart models | params |",
        "|---|---|---|---|",
    ]
    for check_id, spec in CHECK_SPECS.items():
        symbol = "—" if spec.symbol == "unread" else spec.symbol
        if spec.symbol != "unread" and spec.symbol_kinds != SYMBOL_KINDS:
            symbol += " (" + ", ".join(spec.symbol_kinds) + ")"
        models = ", ".join(spec.chart_models) or "not built"
        params = ", ".join(f"`{p}`" for p in spec.params) or "—"
        rows.append(f"| `{check_id}` | {symbol} | {models} | {params} |")
    return rows


def test_readme_check_table_is_rendered_from_check_specs():
    want = render_check_table()
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    assert want[0] in lines, "README lacks the check table header"
    start = lines.index(want[0])
    end = lines.index("", start)
    assert lines[start:end] == want, "README check table is stale; it should read:\n" + "\n".join(want)


@pytest.mark.parametrize("num_pairs", [1, 4, 9])
def test_composition_check_calls_each_route_once(monkeypatch, num_pairs):
    # work guard: the drawn pairs are stacked, so one check calls each route once
    import crkernel.harness as harness

    calls = []
    for name in ("compose_amplitudes_sp", "compose_amplitudes_closed"):

        def counting(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    curved = {"model": "perturbed", "n": 1, "r_synth": 0.7, "seed": 3}
    doc = {"scenarios": [_scenario("pairs", curved, ["composition_two_routes"], params={"num_pairs": num_pairs})]}
    (report,) = run_scenarios(parse_config(doc), timings=False)
    assert report.all_passed
    assert sorted(calls) == ["compose_amplitudes_closed", "compose_amplitudes_sp"]
