"""The pure-NumPy kernel backend (the always-available baseline).

Every loop body is expressed over whole reward-value groups: the
shift kernels gather/scatter one contiguous slice per distinct
displacement (no full-array zeroing -- only the vacated tail of each
group is cleared), and each first-order recurrence runs as one
unit-lower-bidiagonal triangular solve in LAPACK's banded ``dtbtrs``
(an O(K) forward substitution in Fortran, all rows at once as
right-hand sides).  ``scipy.linalg`` is already loaded by
:mod:`repro.numerics.linear`, so the scan adds nothing to import time.
This backend defines the reference semantics; the numba backend must
agree to ``<= 1e-12``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs

from repro.kernels.base import KernelBackend, SericolaPlan, ShiftPlan


class NumpyBackend(KernelBackend):
    """Vectorised NumPy/SciPy implementation of the kernel contract."""

    name = "numpy"

    def shift_down(self, src: np.ndarray, dst: np.ndarray,
                   plan: ShiftPlan, clamp: bool) -> None:
        num_cells = src.shape[1]
        for value, rows in plan.groups:
            if value == 0:
                dst[rows] = src[rows]
            elif value < num_cells:
                dst[rows, :num_cells - value] = src[rows, value:]
                dst[rows, num_cells - value:] = 0.0
                if clamp:
                    dst[rows, 0] += src[rows, :value].sum(axis=1)
            else:
                dst[rows] = 0.0
                if clamp:
                    dst[rows, 0] = src[rows].sum(axis=1)

    def shift_up(self, src: np.ndarray, dst: np.ndarray,
                 plan: ShiftPlan, clamp: bool) -> None:
        num_cells = src.shape[1]
        for value, rows in plan.groups:
            if value == 0:
                dst[rows] = src[rows]
            elif value < num_cells:
                dst[rows, value:] = src[rows, :num_cells - value]
                if clamp:
                    dst[rows, :value] = src[rows, 0][:, None]
                else:
                    dst[rows, :value] = 0.0
            elif clamp:
                dst[rows] = src[rows, 0][:, None]
            else:
                dst[rows] = 0.0

    def first_order_scan(self, stay: float, move: float,
                         inputs: np.ndarray,
                         start: np.ndarray) -> np.ndarray:
        # L y = move * x with unit diagonal and -stay on the first
        # subdiagonal; y[-1] = start enters as stay * start in row 0.
        # An empty right-hand side corrupts dtbtrs' heap, so return early.
        if inputs.size == 0:
            return np.array(inputs, dtype=float)
        band = np.empty((2, inputs.shape[1]))
        band[0] = 1.0
        band[1] = -stay
        rhs = move * inputs.T
        rhs[0] += stay * start
        output, _ = dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=1)
        return output.T

    def sericola_triangular(self, pb: np.ndarray, new_b: np.ndarray,
                            u_next: np.ndarray, plan: SericolaPlan,
                            n: int) -> None:
        levels = plan.levels
        classes = plan.classes
        m = len(levels) - 1
        # Pass 1 (ascending g): rows with rho(i) >= rho_g, ascending k.
        for g in range(1, m + 1):
            lo_level, hi_level = levels[g - 1], levels[g]
            boundary = u_next if g == 1 else new_b[:, n, g - 2]
            for j in range(g, m + 1):
                rows = classes[j]
                if rows.size == 0:
                    continue
                value = levels[j]
                stay = (value - hi_level) / (value - lo_level)
                move = (hi_level - lo_level) / (value - lo_level)
                start = boundary[rows]
                new_b[rows, 0, g - 1] = start
                new_b[rows, 1:, g - 1] = self.first_order_scan(
                    stay, move, pb[rows, :, g - 1], start)
        # Pass 2 (descending g): rows with rho(i) <= rho_{g-1},
        # descending k.
        for g in range(m, 0, -1):
            lo_level, hi_level = levels[g - 1], levels[g]
            for j in range(0, g):
                rows = classes[j]
                if rows.size == 0:
                    continue
                value = levels[j]
                stay = (lo_level - value) / (hi_level - value)
                move = (hi_level - lo_level) / (hi_level - value)
                tail = (np.zeros(rows.size) if g == m
                        else np.array(new_b[rows, 0, g]))
                new_b[rows, n, g - 1] = tail
                scanned = self.first_order_scan(
                    stay, move, pb[rows, ::-1, g - 1], tail)
                new_b[rows, :n, g - 1] = scanned[:, ::-1]
