"""Terminal-set sizing: ellipsoid levels, outer boxes, and the level search.

The terminal region at step i is the sublevel set {x : x' P(i) x <= c(i)}.
Checking state/input feasibility on the ellipsoid directly is nonlinear, so
each ellipsoid gets an outer box aligned with the eigenvectors of P, an array
of its 2^n corners: feasibility of all corners under the terminal controller
certifies feasibility of the whole set. c(i) is the first level of the
sequence c0, c0/shrink, ... whose corners pass. The box scales with sqrt(c),
so unit_spreads reduces each step to one row, the per-column reach of its
unit-level box and of that box's inputs; shrink_level bisects the sequence,
cached per (c0, shrink), on that row. compute_c_schedule makes one stacked
eigh, which checks every P and serves both the rows and the boxes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

C_MIN = 1e-12  # the level search's floor: no level below it is accepted


@functools.cache
def _corners(n: int) -> np.ndarray:
    """The 2^n sign vectors of an n-box, in itertools.product order."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


@dataclass(frozen=True)
class TerminalConstraints:
    """Componentwise limits checked at the box corners.

    e_max bounds |x_i|; u_max bounds the input of the terminal controller
    u = u_ref + K x componentwise. Unbounded entries may be np.inf.
    """

    e_max: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e_max", np.asarray(self.e_max, dtype=float).reshape(-1))
        object.__setattr__(self, "u_max", np.asarray(self.u_max, dtype=float).reshape(-1))


def _eigh(P):
    """eigh of one P (n, n) or of a stack (L, n, n). Raises ValueError if a
    P is not positive definite, naming its step."""
    lam, V = np.linalg.eigh(np.asarray(P, dtype=float))
    bad = np.flatnonzero(lam[..., 0] <= 0)
    if bad.size:
        raise ValueError("P must be positive definite"
                         + (f" (step {bad[0]})" if lam.ndim == 2 else ""))
    return lam, V


def _box(lam, V, c):
    """Corners (..., 2^n, n) of the box with semi-axes sqrt(c / lam) along
    the eigenvectors V: the tight eigen-aligned box around {x : x' P x <= c}."""
    semi = np.sqrt(c / lam)[..., None, :]
    return _corners(lam.shape[-1]) * semi @ np.swapaxes(V, -1, -2)


def outer_box(P, c) -> np.ndarray:
    """Corners (2^n, n) of the tight eigen-aligned box around the ellipsoid
    {x : x' P x <= c}, P symmetric positive definite and c > 0; for a stack
    P (L, n, n) and c (L,), the stack (L, 2^n, n) of their boxes."""
    c = np.asarray(c, dtype=float)[..., None]
    if np.min(c) <= 0:
        raise ValueError("level c must be positive")
    return _box(*_eigh(P), c)


def vertices_feasible(box, cons: TerminalConstraints, K, u_ref) -> bool:
    """All corners (2^n, n) of box inside the state box and, through
    u = u_ref + K x, the input box."""
    if np.any(np.abs(box) > cons.e_max[None, :]):
        return False
    u = u_ref[None, :] + box @ np.asarray(K, dtype=float).T
    return bool(np.all(np.abs(u) <= cons.u_max[None, :]))


class NoTerminalLevel(ValueError):
    """No level of the sequence at or above c_min passes the corner check."""


def unit_spreads(P, K) -> np.ndarray:
    """Per-column max |entry| of the unit-level box (c = 1) around
    {x : x' P x <= 1} and of its inputs K x: shape (..., n + m) for one P
    (n, n) and K (m, n), or a stack P (L, n, n) and K (L, m, n), in one eigh.
    Raises ValueError if a P is not positive definite, naming its step."""
    return _spreads(*_eigh(P), K)


def _spreads(lam, V, K):  # unit_spreads from P's eigh
    unit_vertices = _box(lam, V, 1.0)
    unit_inputs = unit_vertices @ np.swapaxes(np.asarray(K, dtype=float), -1, -2)
    return np.abs(np.concatenate([unit_vertices, unit_inputs], axis=-1)).max(axis=-2)


@functools.lru_cache(maxsize=8)
def _sequence(c0: float, shrink: float) -> list:
    """Levels c0, c0/shrink, (c0/shrink)/shrink, ...; searches append to it."""
    return [float(c0)]


def shrink_level(spread, cons: TerminalConstraints, u_ref, c0: float = 10.0,
                 shrink: float = 1.01, c_min: float = C_MIN):
    """Largest c in the sequence c0, c0/shrink, c0/shrink^2, ... whose outer
    box passes vertices_feasible, given the box's unit_spreads row. Raises
    NoTerminalLevel if none at or above c_min does.

    The box scales with r = sqrt(c) and its corners come in exact +-pairs,
    so, rounding being monotone, some corner fails exactly when
    |offset| + m r > limit in some column: m the column's spread, offset 0
    and limit e_max for a state, |u_ref| and u_max for an input. That check
    only tightens as c grows: if c_min fails, every level above it does, and
    otherwise a bisection of the sequence (in the floats the repeated
    division gives, cached per (c0, shrink) and grown until its last level
    passes) finds the first level that passes.
    """
    offset = [0.0] * cons.e_max.size + [abs(float(u)) for u in u_ref]
    checks = list(zip(map(float, spread), offset, cons.e_max.tolist() + cons.u_max.tolist()))

    def passes(c):
        r = math.sqrt(c)
        for m, a, limit in checks:
            if a + m * r > limit:
                return False
        return True

    if passes(c_min):
        levels = _sequence(c0, shrink)
        while not passes(levels[-1]):
            levels.append(levels[-1] / shrink)
        c = levels[bisect.bisect_left(levels, True, key=passes)]
        if c >= c_min:
            return c
    raise NoTerminalLevel(f"no level at or above c_min = {c_min:g} passes the corner check")


def compute_c_schedule(schedule, cons: TerminalConstraints, inputs, c0: float = 10.0,
                       shrink: float = 1.01, c_min: float = C_MIN):
    """Per-timestep terminal levels and their outer boxes.

    schedule is a TerminalSchedule (P indexed 0..T_end, K 0..T_end-1; the
    final step reuses the last gain). inputs (L, 2) holds the reference input
    per timestep for the input check. Returns a list of (c, box), each box
    the corners outer_box(P(i), c) gives; one eigh over the P stack serves
    the spreads and the boxes. Raises ValueError naming the first step whose
    P is not positive definite, and NoTerminalLevel the first step that has
    no level.
    """
    inputs = np.asarray(inputs, dtype=float)
    lam, V = _eigh(schedule.P)
    spreads = _spreads(lam, V, schedule.K_at(np.arange(len(schedule.P))))
    cs = []
    for i, (spread, u_ref) in enumerate(zip(spreads.tolist(), inputs.tolist())):
        try:
            cs.append(shrink_level(spread, cons, u_ref, c0, shrink, c_min))
        except NoTerminalLevel as e:
            raise NoTerminalLevel(f"step {i}: {e}") from None
    return list(zip(cs, _box(lam, V, np.array(cs)[:, None])))
