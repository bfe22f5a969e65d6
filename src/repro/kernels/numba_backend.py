"""Optional numba ``@njit`` kernel backend.

Importing this module requires numba; :func:`repro.kernels.get_backend`
guards the import and falls back to the NumPy backend when numba is
absent.  Each kernel is a straight per-row loop compiled with
``@njit(cache=True)``.  The arithmetic mirrors the NumPy backend --
the first-order recurrence is the same two-term ``move * x[k] + stay *
y`` update that the NumPy backend's banded triangular solve performs,
up to a possibly fused multiply-add -- so the two backends agree
bit-for-bit on the shift kernels and to well below ``1e-12`` elsewhere.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from repro.kernels.base import KernelBackend, SericolaPlan, ShiftPlan


@njit(cache=True)
def _shift_down(src: np.ndarray, dst: np.ndarray, shifts: np.ndarray,
                clamp: bool) -> None:
    num_rows, num_cells = src.shape
    for i in range(num_rows):
        v = shifts[i]
        if v == 0:
            for c in range(num_cells):
                dst[i, c] = src[i, c]
        elif v < num_cells:
            for c in range(num_cells - v):
                dst[i, c] = src[i, c + v]
            for c in range(num_cells - v, num_cells):
                dst[i, c] = 0.0
            if clamp:
                folded = 0.0
                for c in range(v):
                    folded += src[i, c]
                dst[i, 0] += folded
        else:
            for c in range(num_cells):
                dst[i, c] = 0.0
            if clamp:
                total = 0.0
                for c in range(num_cells):
                    total += src[i, c]
                dst[i, 0] = total


@njit(cache=True)
def _shift_up(src: np.ndarray, dst: np.ndarray, shifts: np.ndarray,
              clamp: bool) -> None:
    num_rows, num_cells = src.shape
    for i in range(num_rows):
        v = shifts[i]
        if v == 0:
            for c in range(num_cells):
                dst[i, c] = src[i, c]
        elif v < num_cells:
            for c in range(num_cells - 1, v - 1, -1):
                dst[i, c] = src[i, c - v]
            head = src[i, 0] if clamp else 0.0
            for c in range(v):
                dst[i, c] = head
        else:
            head = src[i, 0] if clamp else 0.0
            for c in range(num_cells):
                dst[i, c] = head


@njit(cache=True)
def _scan(stay: float, move: float, inputs: np.ndarray,
          start: np.ndarray, out: np.ndarray) -> None:
    num_rows, length = inputs.shape
    for i in range(num_rows):
        y = start[i]
        for k in range(length):
            y = move * inputs[i, k] + stay * y
            out[i, k] = y


@njit(cache=True)
def _triangular(pb: np.ndarray, new_b: np.ndarray, u_next: np.ndarray,
                levels: np.ndarray, cls: np.ndarray, n: int) -> None:
    num_states = pb.shape[0]
    m = levels.shape[0] - 1
    for s in range(num_states):
        j = cls[s]
        value = levels[j]
        # Pass 1 rows (rho(s) >= rho_g): ascending g, ascending k.
        for g in range(1, j + 1):
            lo = levels[g - 1]
            hi = levels[g]
            stay = (value - hi) / (value - lo)
            move = (hi - lo) / (value - lo)
            y = u_next[s] if g == 1 else new_b[s, n, g - 2]
            new_b[s, 0, g - 1] = y
            for k in range(n):
                y = move * pb[s, k, g - 1] + stay * y
                new_b[s, k + 1, g - 1] = y
        # Pass 2 rows (rho(s) <= rho_{g-1}): descending g, descending k.
        for g in range(m, j, -1):
            lo = levels[g - 1]
            hi = levels[g]
            stay = (lo - value) / (hi - value)
            move = (hi - lo) / (hi - value)
            y = 0.0 if g == m else new_b[s, 0, g]
            new_b[s, n, g - 1] = y
            for k in range(n - 1, -1, -1):
                y = move * pb[s, k, g - 1] + stay * y
                new_b[s, k, g - 1] = y


class NumbaBackend(KernelBackend):
    """``@njit``-compiled implementation of the kernel contract."""

    name = "numba"

    def shift_down(self, src: np.ndarray, dst: np.ndarray,
                   plan: ShiftPlan, clamp: bool) -> None:
        _shift_down(np.ascontiguousarray(src), dst, plan.shifts, clamp)

    def shift_up(self, src: np.ndarray, dst: np.ndarray,
                 plan: ShiftPlan, clamp: bool) -> None:
        _shift_up(np.ascontiguousarray(src), dst, plan.shifts, clamp)

    def first_order_scan(self, stay: float, move: float,
                         inputs: np.ndarray,
                         start: np.ndarray) -> np.ndarray:
        out = np.empty(inputs.shape)
        _scan(stay, move, np.ascontiguousarray(inputs, dtype=float),
              np.ascontiguousarray(start, dtype=float), out)
        return out

    def sericola_triangular(self, pb: np.ndarray, new_b: np.ndarray,
                            u_next: np.ndarray, plan: SericolaPlan,
                            n: int) -> None:
        _triangular(np.ascontiguousarray(pb), new_b,
                    np.ascontiguousarray(u_next, dtype=float),
                    plan.levels, plan.cls, n)
