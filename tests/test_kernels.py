"""The :mod:`repro.kernels` backend layer.

Covers backend selection (explicit ``kernel=`` knob, the
``REPRO_KERNEL`` environment variable, auto-detection and the
numba-absent fallback), the NumPy kernels against naive per-row
reference loops (including the ``shift >= cells`` and clamp edge
cases), the shift-plan caching in ``matrix_cache``, the
``final_density_batch`` telemetry, and -- when numba is importable --
hypothesis cross-backend agreement to ``1e-12`` on random MRMs with
impulse rewards.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.algorithms import (DiscretizationEngine, ErlangEngine,
                              SericolaEngine, clear_caches)
from repro.algorithms.cache import matrix_cache
from repro.ctmc import ModelBuilder
from repro.errors import ModelError, NumericalError
from repro.kernels import (build_shift_plan, get_backend,
                           numba_available, reset_backend_cache)
from repro.models import workloads
from repro.obs import OBS

CROSS_BACKEND_TOLERANCE = 1e-12


@pytest.fixture(autouse=True)
def fresh_backends(monkeypatch):
    """Isolate every test from the ambient env var and memoisation."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    reset_backend_cache()
    yield
    reset_backend_cache()


# ---------------------------------------------------------------------------
# Backend selection


class TestBackendSelection:
    def test_env_var_selects_numpy(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.default_backend_name() == "numpy"
        assert get_backend(None).name == "numpy"

    def test_env_var_reaches_engines(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert DiscretizationEngine(step=0.5).kernel == "numpy"
        assert SericolaEngine().kernel == "numpy"
        assert ErlangEngine(phases=4).kernel == "numpy"

    def test_auto_detection(self):
        expected = "numba" if numba_available() else "numpy"
        assert kernels.default_backend_name() == expected
        assert expected in kernels.available_backends()
        assert "numpy" in kernels.available_backends()

    def test_unknown_env_var_warns_and_falls_through(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "vulkan")
        with pytest.warns(RuntimeWarning, match="REPRO_KERNEL"):
            name = kernels.default_backend_name()
        assert name in ("numpy", "numba")

    def test_unknown_backend_name_raises(self):
        with pytest.raises(NumericalError, match="unknown kernel"):
            get_backend("vulkan")
        with pytest.raises(NumericalError):
            DiscretizationEngine(step=0.5, kernel="vulkan")

    def test_instance_passthrough_and_memoisation(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend
        assert get_backend("numpy") is backend

    def test_numba_absent_falls_back_to_numpy(self, monkeypatch):
        # Blocking the import (sys.modules[name] = None) makes both
        # find_spec and ``from numba import njit`` fail, whether or
        # not numba is actually installed.
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(sys.modules, "repro.kernels.numba_backend",
                            raising=False)
        reset_backend_cache()
        assert not numba_available()
        assert kernels.available_backends() == ["numpy", "sparse",
                                                "dense"]
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("numba")
        assert backend.name == "numpy"

    def test_env_numba_without_numba_warns_once_resolved(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(sys.modules, "repro.kernels.numba_backend",
                            raising=False)
        reset_backend_cache()
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = DiscretizationEngine(step=0.5)
        assert engine.kernel == "numpy"

    def test_kernel_in_cache_tokens(self):
        disc = DiscretizationEngine(step=0.25, kernel="numpy")
        assert "numpy" in disc._cache_token()
        assert "numpy" in SericolaEngine(kernel="numpy")._cache_token()
        assert "numpy" in ErlangEngine(phases=4,
                                       kernel="numpy")._cache_token()


# ---------------------------------------------------------------------------
# NumPy kernels vs naive reference loops


def naive_shift_down(src, shifts, clamp):
    rows, cells = src.shape
    dst = np.zeros_like(src)
    for i in range(rows):
        v = int(shifts[i])
        for k in range(cells):
            if k + v < cells:
                dst[i, k] = src[i, k + v]
        if clamp and v > 0:
            dst[i, 0] += src[i, :min(v, cells)].sum()
    return dst


def naive_shift_up(src, shifts, clamp):
    rows, cells = src.shape
    dst = np.zeros_like(src)
    for i in range(rows):
        v = int(shifts[i])
        for k in range(cells):
            if k - v >= 0:
                dst[i, k] = src[i, k - v]
            elif clamp:
                dst[i, k] = src[i, 0]
    return dst


def naive_scan(stay, move, inputs, start):
    """The recurrence in exact rational arithmetic, rounded once."""
    stay, move = Fraction(stay), Fraction(move)
    out = np.empty_like(inputs)
    for i in range(inputs.shape[0]):
        y = Fraction(start[i])
        for k in range(inputs.shape[1]):
            y = move * Fraction(inputs[i, k]) + stay * y
            out[i, k] = float(y)
    return out


def _all_backends():
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    names.extend(["sparse", "dense"])
    return names


class TestShiftKernels:
    #: Displacements covering zero, interior, boundary and overflow.
    SHIFTS = np.array([0, 1, 3, 7, 8, 11], dtype=np.int64)
    CELLS = 8

    @pytest.fixture
    def src(self):
        rng = np.random.default_rng(42)
        return rng.uniform(0.0, 1.0, size=(len(self.SHIFTS), self.CELLS))

    @pytest.mark.parametrize("backend_name", _all_backends())
    @pytest.mark.parametrize("clamp", [False, True])
    def test_shift_down_matches_naive(self, src, clamp, backend_name):
        backend = get_backend(backend_name)
        plan = build_shift_plan(self.SHIFTS)
        dst = np.empty_like(src)
        backend.shift_down(src, dst, plan, clamp)
        np.testing.assert_allclose(
            dst, naive_shift_down(src, self.SHIFTS, clamp),
            rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("backend_name", _all_backends())
    @pytest.mark.parametrize("clamp", [False, True])
    def test_shift_up_matches_naive(self, src, clamp, backend_name):
        backend = get_backend(backend_name)
        plan = build_shift_plan(self.SHIFTS)
        dst = np.empty_like(src)
        backend.shift_up(src, dst, plan, clamp)
        np.testing.assert_allclose(
            dst, naive_shift_up(src, self.SHIFTS, clamp),
            rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("backend_name", _all_backends())
    def test_first_order_scan_matches_naive(self, backend_name):
        backend = get_backend(backend_name)
        rng = np.random.default_rng(7)
        for stay, length, rows in itertools.product(
                (0.0, 0.375, 1.0 - 1e-12), (0, 1, 600), (1, 6)):
            inputs = rng.uniform(0.0, 1.0, size=(rows, length))
            start = rng.uniform(0.5, 1.0, size=rows)
            move = 1.0 - stay
            got = backend.first_order_scan(stay, move, inputs, start)
            assert got.shape == (rows, length)
            # 1e-14, or the forward-error bound of a K-step two-term
            # recurrence in double precision (three roundings per step
            # compound along the scan) when that is larger: at stay =
            # 1 - 1e-12 the plain multiply-add loop drifts ~3e-14 over
            # 600 steps.
            rtol = max(1e-14, (2 * length + 3) * np.finfo(float).eps / 2)
            np.testing.assert_allclose(
                got, naive_scan(stay, move, inputs, start),
                rtol=rtol, atol=0.0,
                err_msg=f"stay={stay} K={length} rows={rows}")

    def test_shift_plan_expand_maps_rows_to_batches(self):
        plan = build_shift_plan(np.array([2, 0], dtype=np.int64))
        wide = plan.expand(3)
        assert wide.shifts.tolist() == [2, 2, 2, 0, 0, 0]
        groups = dict((value, rows.tolist()) for value, rows in wide.groups)
        assert groups == {0: [3, 4, 5], 2: [0, 1, 2]}


# ---------------------------------------------------------------------------
# Engine integration: caching and telemetry


class TestEngineIntegration:
    def test_shift_plan_cached_per_model_and_step(self, flip_flop):
        clear_caches()
        engine = DiscretizationEngine(step=0.25, kernel="numpy")
        indicator = np.array([1.0, 0.0])
        engine.joint_probability_from(flip_flop, 1.0, 0.5, indicator, 0)
        key = ("disc-shift-plan", flip_flop.fingerprint, 0.25)
        plan = matrix_cache.get(key)
        assert plan is not None
        assert plan.shifts.tolist() == [2, 0]
        # A second run reuses the same plan object.
        engine.joint_probability_from(flip_flop, 1.0, 0.5, indicator, 1)
        assert matrix_cache.get(key) is plan

    def test_final_density_batch_telemetry(self, flip_flop):
        clear_caches()
        engine = DiscretizationEngine(step=0.25)
        with OBS.capture(reset_metrics=True):
            engine.final_density_batch(flip_flop, 1.0, 1.0, [0, 1])
            roots = list(OBS.tracer.roots)
            snapshot = OBS.metrics.snapshot()
        assert [s.name for s in roots] == ["final_density_batch"]
        # The engine is unpinned ("auto"); the histogram is labelled
        # with the backend the run actually resolved to.
        assert engine.kernel == "auto"
        label = (f'{{engine="discretization",'
                 f'kernel="{engine.last_kernel}"}}')
        histogram = snapshot["repro_matvec_block_seconds"][label]
        assert histogram["count"] > 0
        gauge = snapshot["repro_kernel_selected"]
        assert gauge[label] == 1.0

    def test_batch_matches_scalar_density(self, three_level_chain):
        clear_caches()
        engine = DiscretizationEngine(step=0.25, kernel="numpy")
        batch = engine.final_density_batch(three_level_chain, 1.0, 2.0,
                                           [0, 2])
        for index, state in enumerate((0, 2)):
            single = engine.final_density(three_level_chain, 1.0, 2.0,
                                          state)
            np.testing.assert_allclose(batch[index], single,
                                       rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Cross-backend agreement (requires numba)


def _random_impulse_mrm(num_states: int, seed: int):
    """A connected random MRM with integer rate and impulse rewards."""
    rng = np.random.default_rng(seed)
    builder = ModelBuilder()
    for s in range(num_states):
        builder.add_state(f"s{s}", reward=float(rng.integers(0, 3)))
    for s in range(num_states):
        targets = rng.permutation(num_states)
        for dst in targets[:2]:
            if int(dst) != s:
                builder.add_transition(
                    s, int(dst), float(rng.uniform(0.2, 2.0)),
                    impulse=float(rng.integers(0, 2)))
    for s in range(num_states):
        builder.add_transition(s, (s + 1) % num_states,
                               float(rng.uniform(0.2, 2.0)))
    return builder.build(initial_state=0)


class TestSparseBackendAgreement:
    """The CSR-pinned backend must match numpy to <= 1e-12 everywhere
    (always runnable: scipy is a hard dependency)."""

    @settings(max_examples=15, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=7),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_discretization_with_impulses(self, num_states, seed):
        try:
            model = _random_impulse_mrm(num_states, seed)
        except ModelError:
            # The random generator may close the ring over a transition
            # it already drew with a different impulse; skip the draw.
            assume(False)
        # A step that divides t = 1.0 and keeps every stay probability
        # positive, however fast the drawn exit rates are.
        step = 1.0 / max(4, int(np.ceil(model.max_exit_rate / 0.9)))
        indicator = np.ones(model.num_states)
        indicator[0] = 0.0
        values = []
        for backend in ("numpy", "sparse", "dense"):
            clear_caches()
            engine = DiscretizationEngine(step=step, kernel=backend)
            values.append(engine.joint_probability_from(
                model, 1.0, 2.0, indicator, 0))
        assert abs(values[1] - values[0]) <= CROSS_BACKEND_TOLERANCE
        assert abs(values[2] - values[0]) <= CROSS_BACKEND_TOLERANCE

    @settings(max_examples=10, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_sericola_random_models(self, num_states, seed):
        model = workloads.random_mrm(num_states, seed=seed)
        target = [model.num_states - 1]
        vectors = []
        for backend in ("numpy", "sparse"):
            clear_caches()
            engine = SericolaEngine(epsilon=1e-8, kernel=backend)
            vectors.append(engine.joint_probability_vector(
                model, 1.5, 1.0, target))
        assert np.max(np.abs(vectors[0] - vectors[1])) \
            <= CROSS_BACKEND_TOLERANCE

    def test_erlang_case(self, flip_flop):
        values = []
        for backend in ("numpy", "sparse"):
            clear_caches()
            engine = ErlangEngine(phases=16, kernel=backend)
            values.append(engine.joint_probability_from(
                flip_flop, 1.0, 1.0, np.array([0.0, 1.0]), 0))
        assert abs(values[0] - values[1]) <= CROSS_BACKEND_TOLERANCE

    def test_auto_selects_sparse_on_large_sparse_models(self):
        sparse_backend = kernels.select_for_model(
            kernels.SPARSE_AUTO_MIN_STATES, 4 * kernels.SPARSE_AUTO_MIN_STATES)
        assert sparse_backend.name == "sparse"
        small = kernels.select_for_model(8, 20)
        assert small.name in ("numpy", "numba")
        # Dense matrices stay on the dense-loop backends whatever |S|.
        n = kernels.SPARSE_AUTO_MIN_STATES
        dense_model = kernels.select_for_model(n, n * n)
        assert dense_model.name in ("numpy", "numba")


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestCrossBackendAgreement:
    @settings(max_examples=15, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=7),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_discretization_with_impulses(self, num_states, seed):
        model = _random_impulse_mrm(num_states, seed)
        indicator = np.ones(model.num_states)
        indicator[0] = 0.0
        values = []
        for backend in ("numpy", "numba"):
            clear_caches()
            engine = DiscretizationEngine(step=0.25, kernel=backend)
            values.append(engine.joint_probability_from(
                model, 1.0, 2.0, indicator, 0))
        assert abs(values[0] - values[1]) <= CROSS_BACKEND_TOLERANCE

    @settings(max_examples=10, deadline=None)
    @given(num_states=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_sericola_random_models(self, num_states, seed):
        model = workloads.random_mrm(num_states, seed=seed)
        target = [model.num_states - 1]
        vectors = []
        for backend in ("numpy", "numba"):
            clear_caches()
            engine = SericolaEngine(epsilon=1e-8, kernel=backend)
            vectors.append(engine.joint_probability_vector(
                model, 1.5, 1.0, target))
        assert np.max(np.abs(vectors[0] - vectors[1])) \
            <= CROSS_BACKEND_TOLERANCE

    def test_erlang_case(self, flip_flop):
        values = []
        for backend in ("numpy", "numba"):
            clear_caches()
            engine = ErlangEngine(phases=16, kernel=backend)
            values.append(engine.joint_probability_from(
                flip_flop, 1.0, 1.0, np.array([0.0, 1.0]), 0))
        assert abs(values[0] - values[1]) <= CROSS_BACKEND_TOLERANCE
