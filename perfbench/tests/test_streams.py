"""Tests of the benchmark's query generators and references.

Run from the root of a checkout: ``python -m pytest perfbench/tests``.
"""

import itertools
import math

import pytest

import streams
from streams import WORKLOADS, catalogue, rounds


def _take(workload, seed, count=3):
    return list(itertools.islice(rounds(workload, seed), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_stream(workload):
    assert _take(workload, 7) == _take(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_different_streams(workload):
    streams_by_seed = {seed: _take(workload, seed) for seed in range(5)}
    assert len({repr(s) for s in streams_by_seed.values()}) == 5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_is_catalogue_plus_repeats(workload):
    base = catalogue(workload)
    for queries in _take(workload, 3):
        fresh = [q for q in queries if not q.repeat]
        assert sorted(q.key for q in fresh) == sorted(q.key for q in base)
        repeats = [q for q in queries if q.repeat]
        assert len(repeats) == streams.REPEATS_PER_ROUND[workload]
        assert len({q.key for q in repeats}) == len(repeats)
        for repeat in repeats:
            position = queries.index(repeat)
            earlier = [q.key for q in queries[:position]]
            assert repeat.key in earlier


def _p3_queries():
    for workload in ("adhoc-checks", "adhoc-sweeps", "large-models"):
        yield from catalogue(workload)
    yield from (q for probes in streams.PROBES.values() for q in probes)


def _on_grid(value, step):
    return math.isclose(value / step, round(value / step), abs_tol=1e-9)


@pytest.mark.parametrize("query", list(_p3_queries()),
                         ids=lambda q: q.key)
def test_bounds_are_multiples_of_the_step(query):
    step = (query.knob if query.engine == "discretization" and query.knob
            else streams.DEFAULT_KNOB["discretization"])
    for value in query.times + query.rewards:
        assert value > 0 and _on_grid(value, step)


@pytest.fixture(scope="module")
def models():
    from repro.models import adhoc, workloads
    built = {"adhoc": adhoc.adhoc_model()}
    for name, (call, _, _) in streams.LARGE_MODELS.items():
        built[name] = eval(call, {}, vars(workloads))
    return built


@pytest.mark.parametrize("query", list(_p3_queries()),
                         ids=lambda q: q.key)
def test_preflight_admits_every_query(query, models):
    from repro.analysis import QueryProfile, engine_compatibility
    from repro.logic import ast
    from repro.logic.parser import parse_formula
    from repro.mc.checker import ModelChecker
    from repro.mc.transform import until_reduction
    from workloads import make_engine

    model = models[query.model]
    checker = ModelChecker(model, engine=make_engine(query.engine,
                                                     query.knob))
    phi, psi = streams.OPERANDS[query.model]
    reduced = until_reduction(model, set(checker.satisfaction_set(phi)),
                              set(checker.satisfaction_set(psi)))
    for t in query.times:
        for r in query.rewards:
            formula = parse_formula(
                query.p3_formula().replace(
                    f"[0,{query.times[0]:g}][0,{query.rewards[0]:g}]",
                    f"[0,{t:g}][0,{r:g}]"))
            profile = QueryProfile.from_formula(
                ast.Prob("<", 1.0, formula.path))
            errors = [d for d in engine_compatibility(checker.engine,
                                                      reduced, profile)
                      if d.severity.label == "error"]
            assert not errors, [d.code for d in errors]


def _references():
    import workloads
    adhoc_checks = workloads.AdhocChecks()
    adhoc_checks.build()
    sweeps = workloads.AdhocSweeps()
    sweeps.build()
    cli = workloads.CliCold()
    cli.build()
    large = workloads.LargeModels()
    large.build()
    for workload in (adhoc_checks, sweeps, cli, large):
        for query in catalogue(workload.name):
            yield query, workload.reference(query)


def test_every_reference_is_away_from_zero_and_one():
    checked = 0
    for query, (values, accuracy) in _references():
        # Column 0 is the checked state (the initial state, or the
        # designated grid state): one value per (t, r) cell.
        for value in values[:, 0]:
            assert 1e-3 <= value <= 1 - 1e-3, (query.key, value)
            checked += 1
        assert accuracy < 0.05
    assert checked > 0


def test_tolerances_follow_the_stated_accuracy():
    assert streams.engine_tolerance("sericola", 1e-6, 0.5) == 1e-6
    assert streams.engine_tolerance("sericola", None, 0.5) == 1e-9
    # Table 3: k = 64 is 0.17 % off at the case-study point.
    assert streams.engine_tolerance("erlang", 64, 0.5) == pytest.approx(
        streams.SAFETY * 0.0017 * 0.5)
    # Table 4 has no d = 1/32; first order in d from d = 1/64.
    assert streams.engine_tolerance(
        "discretization", 1 / 32, 0.5) == pytest.approx(
        2 * streams.engine_tolerance("discretization", 1 / 64, 0.5))


def test_benchmark_json_names_the_reported_metrics():
    import json
    from pathlib import Path

    import run
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        run.LAYER_UNITS
    assert [m["name"] for m in declared["end_to_end"]] == [
        "setup_s", "ops_per_s", "latency_p50_ms", "cpu_ms_per_op",
        "peak_rss_mb", "max_abs_err"]
