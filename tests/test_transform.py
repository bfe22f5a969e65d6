"""Unit tests for the Theorem-1 reduction and the duality transform."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmc import ModelBuilder
from repro.ctmc.mrm import MarkovRewardModel
from repro.errors import RewardError
from repro.mc.transform import (amalgamated_until_reduction, dual_model,
                                until_reduction)
from repro.models.adhoc import adhoc_model
from repro.models.workloads import grid_mrm, random_mrm


@pytest.fixture
def diamond():
    """a -> {goal, bad, b}; b -> goal.  phi = {a, b}, psi = {goal}."""
    builder = ModelBuilder()
    builder.add_state("a", labels=("phi",), reward=1.0)
    builder.add_state("b", labels=("phi",), reward=2.0)
    builder.add_state("goal", labels=("psi",), reward=3.0)
    builder.add_state("bad", reward=4.0)
    builder.add_transition("a", "b", 1.0)
    builder.add_transition("a", "goal", 2.0)
    builder.add_transition("a", "bad", 1.0)
    builder.add_transition("b", "goal", 5.0)
    builder.add_transition("goal", "a", 7.0)
    builder.add_transition("bad", "a", 7.0)
    return builder.build(initial_state="a")


class TestUntilReduction:
    def test_decided_states_become_absorbing(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.is_absorbing(2)
        assert reduced.is_absorbing(3)
        assert not reduced.is_absorbing(0)

    def test_decided_states_lose_reward(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.reward(2) == 0.0
        assert reduced.reward(3) == 0.0
        assert reduced.reward(0) == 1.0
        assert reduced.reward(1) == 2.0

    def test_transient_transitions_preserved(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.rate(0, 1) == 1.0
        assert reduced.rate(1, 2) == 5.0

    def test_indices_and_labels_preserved(self, diamond):
        reduced = until_reduction(diamond, {0, 1}, {2})
        assert reduced.num_states == diamond.num_states
        assert reduced.states_with("psi") == frozenset({2})

    def test_original_untouched(self, diamond):
        until_reduction(diamond, {0, 1}, {2})
        assert not diamond.is_absorbing(2)
        assert diamond.reward(2) == 3.0

    def test_phi_and_psi_overlap(self, diamond):
        # States in both phi and psi are still absorbed (psi wins).
        reduced = until_reduction(diamond, {0, 1, 2}, {2})
        assert reduced.is_absorbing(2)


def loop_until_reduction(model, phi, psi):
    """Reference: the row-by-row LIL construction of Theorem 1."""
    n = model.num_states
    absorbing = set(psi) | (set(range(n)) - set(phi) - set(psi))
    rates = model.rate_matrix.copy().tolil()
    rewards = model.rewards.copy()
    impulses = (model.impulse_matrix.copy().tolil()
                if model.has_impulse_rewards else None)
    for s in absorbing:
        rates.rows[s] = []
        rates.data[s] = []
        rewards[s] = 0.0
        if impulses is not None:
            impulses.rows[s] = []
            impulses.data[s] = []
    return MarkovRewardModel(rates.tocsr(),
                             rewards=rewards,
                             labels=model.labels_as_dict(),
                             initial_distribution=model.initial_distribution,
                             state_names=model.state_names,
                             impulse_rewards=(impulses.tocsr()
                                              if impulses is not None
                                              else None))


def csr_arrays(matrix):
    return [(array.dtype, array.tobytes())
            for array in (matrix.indptr, matrix.indices, matrix.data)]


def assert_same_model(actual, expected):
    assert csr_arrays(actual.rate_matrix) == csr_arrays(
        expected.rate_matrix)
    assert actual.rewards.tobytes() == expected.rewards.tobytes()
    assert actual.has_impulse_rewards == expected.has_impulse_rewards
    if expected.has_impulse_rewards:
        assert csr_arrays(actual.impulse_matrix) == csr_arrays(
            expected.impulse_matrix)
    assert actual.labels_as_dict() == expected.labels_as_dict()
    assert actual.fingerprint == expected.fingerprint


def impulse_model():
    """random_mrm(12) with impulses of several sizes on half its
    transitions (integer and fractional phase advances alike)."""
    model = random_mrm(12, seed=5)
    coo = model.rate_matrix.tocoo()
    sizes = (0.25, 1.0, 0.6, 2.0)
    impulses = {(int(a), int(b)): sizes[i % len(sizes)]
                for i, (a, b) in enumerate(zip(coo.row, coo.col))
                if i % 2 == 0}
    return model.with_impulse_rewards(impulses)


def _case_study():
    model = adhoc_model()
    phi = set(model.states_with("call_idle")) | set(
        model.states_with("doze"))
    return model, phi, set(model.states_with("call_initiated"))


def _labelled(model):
    return (model, set(model.states_with("green")),
            set(model.states_with("red")))


def _grid():
    model = grid_mrm(20, 20)
    return (model, set(range(model.num_states)) - {5, 77},
            set(model.states_with("goal")))


#: (model, phi, psi) builders shared with ``tests/test_erlang.py``.
REDUCTION_CASES = {
    "case-study": _case_study,
    **{f"random-{seed}": (lambda seed=seed: _labelled(
        random_mrm(30, seed=seed))) for seed in range(5)},
    "grid-20x20": _grid,
    "impulses": lambda: _labelled(impulse_model()),
    "empty-phi": lambda: (random_mrm(15, seed=1), set(), {2, 3}),
    "empty-psi": lambda: (random_mrm(15, seed=2), {0, 1, 4, 9}, set()),
    "phi-within-psi": lambda: (random_mrm(15, seed=3), {1, 2}, {1, 2, 7}),
}


class TestVectorisedReduction:
    @pytest.mark.parametrize("case", sorted(REDUCTION_CASES))
    def test_matches_loop_construction(self, case):
        model, phi, psi = REDUCTION_CASES[case]()
        assert_same_model(until_reduction(model, phi, psi),
                          loop_until_reduction(model, phi, psi))

    @pytest.mark.parametrize("case", ["impulses", "grid-20x20"])
    def test_input_untouched(self, case):
        model, phi, psi = REDUCTION_CASES[case]()
        fingerprint = model.fingerprint
        arrays = csr_arrays(model.rate_matrix)
        impulses = csr_arrays(model.impulse_matrix)
        rewards = model.rewards.tobytes()
        until_reduction(model, phi, psi)
        assert csr_arrays(model.rate_matrix) == arrays
        assert csr_arrays(model.impulse_matrix) == impulses
        assert model.rewards.tobytes() == rewards
        assert model.fingerprint == fingerprint

    def test_unsorted_input_is_canonicalised(self):
        # Row 0 lists its columns out of order and column 2 twice.
        unsorted = sp.csr_matrix(
            (np.array([3.0, 1.0, 0.5, 0.25, 2.0]),
             np.array([2, 1, 2, 0, 0]),
             np.array([0, 3, 4, 5])), shape=(3, 3))
        assert not unsorted.has_sorted_indices
        model = MarkovRewardModel(unsorted, rewards=[1.0, 2.0, 0.0])
        twin = MarkovRewardModel(unsorted.toarray(),
                                 rewards=[1.0, 2.0, 0.0])
        assert model.fingerprint == twin.fingerprint
        assert csr_arrays(model.rate_matrix) == csr_arrays(
            twin.rate_matrix)
        until_reduction(model, {0, 1}, {2})
        assert model.fingerprint == MarkovRewardModel(
            unsorted, rewards=[1.0, 2.0, 0.0]).fingerprint
        assert model.rate(0, 2) == 3.5


class TestAmalgamation:
    def test_case_study_shape(self, adhoc_reduced):
        # "three transient and two absorbing states" (Section 5.4).
        model = adhoc_reduced.model
        assert model.num_states == 5
        absorbing = [s for s in range(5) if model.is_absorbing(s)]
        assert len(absorbing) == 2
        assert adhoc_reduced.goal_state in absorbing

    def test_case_study_uniformization_rate(self, adhoc_reduced):
        # lambda * t = 19.5 * 24 = 468 reproduces Table 2's N column.
        assert adhoc_reduced.model.max_exit_rate == pytest.approx(19.5)

    def test_rates_into_amalgamated_states_accumulate(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        model = reduction.model
        goal = reduction.goal_state
        source = reduction.state_map[0]
        assert model.rate(source, goal) == 2.0

    def test_probabilities_match_unamalgamated(self, diamond):
        from repro.algorithms import SericolaEngine
        engine = SericolaEngine(epsilon=1e-11)
        t, r = 1.5, 2.0
        plain = until_reduction(diamond, {0, 1}, {2})
        full = engine.joint_probability_vector(plain, t, r, [2])
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        small = engine.joint_probability_vector(
            reduction.model, t, r, [reduction.goal_state])
        lifted = reduction.lift(small, diamond.num_states)
        assert np.allclose(lifted[[0, 1]], full[[0, 1]], atol=1e-9)

    def test_lift_roundtrip(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        vector = np.arange(reduction.model.num_states, dtype=float)
        lifted = reduction.lift(vector, diamond.num_states)
        for original, reduced in reduction.state_map.items():
            assert lifted[original] == vector[reduced]

    def test_empty_psi(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, set())
        assert reduction.goal_state is None

    def test_initial_distribution_mapped(self, diamond):
        reduction = amalgamated_until_reduction(diamond, {0, 1}, {2})
        alpha = reduction.model.initial_distribution
        assert alpha[reduction.state_map[0]] == 1.0


class TestDuality:
    def test_rates_divided_by_reward(self, diamond):
        dual = dual_model(diamond)
        assert dual.rate(0, 1) == pytest.approx(1.0 / 1.0)
        assert dual.rate(1, 2) == pytest.approx(5.0 / 2.0)
        assert dual.rate(3, 0) == pytest.approx(7.0 / 4.0)

    def test_rewards_inverted(self, diamond):
        dual = dual_model(diamond)
        assert dual.reward(1) == pytest.approx(0.5)
        assert dual.reward(3) == pytest.approx(0.25)

    def test_involution(self, diamond):
        double = dual_model(dual_model(diamond))
        assert np.allclose(double.rate_matrix.toarray(),
                           diamond.rate_matrix.toarray())
        assert np.allclose(double.rewards, diamond.rewards)

    def test_zero_reward_transient_state_rejected(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=0.0)
        builder.add_state("b", reward=1.0)
        builder.add_transition("a", "b", 1.0)
        with pytest.raises(RewardError, match="positive rewards"):
            dual_model(builder.build())

    def test_zero_reward_absorbing_state_allowed(self):
        builder = ModelBuilder()
        builder.add_state("a", reward=2.0)
        builder.add_state("sink", reward=0.0)
        builder.add_transition("a", "sink", 1.0)
        dual = dual_model(builder.build())
        assert dual.rate(0, 1) == pytest.approx(0.5)
        assert dual.reward(1) == 0.0

    def test_duality_swaps_time_and_reward(self, diamond):
        """P(phi U^{<=t}_{<=r} psi) on M == P(phi U^{<=r}_{<=t} psi)
        on the dual -- the theorem the P2 procedure rests on."""
        from repro.algorithms import SericolaEngine
        engine = SericolaEngine(epsilon=1e-11)
        reduced = until_reduction(diamond, {0, 1}, {2})
        dual = dual_model(reduced)
        t, r = 1.3, 2.1
        original = engine.joint_probability_vector(reduced, t, r, [2])
        swapped = engine.joint_probability_vector(dual, r, t, [2])
        assert np.allclose(original[[0, 1]], swapped[[0, 1]], atol=1e-9)
