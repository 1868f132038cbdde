"""Terminal-set sizing: ellipsoid levels, outer hexahedra, and the level search.

The terminal region at step i is the sublevel set {x : x' P(i) x <= c(i)}.
Checking state/input feasibility on the ellipsoid directly is nonlinear, so
each ellipsoid gets an outer box aligned with the eigenvectors of P: its 8
corners over-approximate the ellipsoid, and feasibility of all corners under
the terminal controller certifies feasibility of the whole set. c(i) is the
first level of the sequence c0, c0/shrink, ... whose corners pass: shrink_level
bisects that sequence, cached per (c0, shrink), on the exact corner check, and
compute_c_schedule builds the boxes of a whole schedule in one stacked eigh.
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
class TerminalEllipsoid:
    """Sublevel set {x : x' P x <= c} with P symmetric PD; stacked, P (L, n, n), c (L, 1)."""

    P: np.ndarray
    c: float

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        Pt = np.swapaxes(P, -1, -2)
        if not np.allclose(P, Pt, atol=1e-9):
            raise ValueError("P must be symmetric")
        if np.min(np.linalg.eigvalsh(P)) <= 0:
            raise ValueError("P must be positive definite")
        if np.min(self.c) <= 0:
            raise ValueError("level c must be positive")
        object.__setattr__(self, "P", 0.5 * (P + Pt))


@dataclass(frozen=True)
class OuterPolyhedron:
    """Eigenvector-aligned box around an ellipsoid, stored as its 8 vertices."""

    vertices: np.ndarray  # (8, n), or (L, 8, n) for the boxes of a stack

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim not in (2, 3) or V.shape[-2] != 2 ** V.shape[-1]:
            raise ValueError("expected 2^n vertices of dimension n")
        object.__setattr__(self, "vertices", V)


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


def outer_polyhedron(ell: TerminalEllipsoid) -> OuterPolyhedron:
    """Tight eigen-aligned box: semi-axes sqrt(c / eigenvalue) per direction
    (of a stack of ellipsoids, the stack of their boxes)."""
    lam, V = np.linalg.eigh(ell.P)
    semi = np.sqrt(ell.c / lam)[..., None, :]
    return OuterPolyhedron(_corners(lam.shape[-1]) * semi @ np.swapaxes(V, -1, -2))


def vertices_feasible(poly: OuterPolyhedron, cons: TerminalConstraints, K, u_ref) -> bool:
    """All corners inside the state box and, through u = u_ref + K x, the
    input box."""
    V = poly.vertices
    if np.any(np.abs(V) > cons.e_max[None, :]):
        return False
    u = u_ref[None, :] + V @ np.asarray(K, dtype=float).T
    return bool(np.all(np.abs(u) <= cons.u_max[None, :]))


@functools.lru_cache(maxsize=8)
def _sequence(c0: float, shrink: float) -> list:
    """Levels c0, c0/shrink, (c0/shrink)/shrink, ...; searches append to it."""
    return [float(c0)]


def shrink_level(P, cons: TerminalConstraints, K, u_ref, c0: float = 10.0,
                 shrink: float = 1.01, c_min: float = C_MIN):
    """Largest c in the sequence c0, c0/shrink, c0/shrink^2, ... whose outer
    box passes vertices_feasible. Raises ValueError if none above c_min does.

    The box scales with r = sqrt(c) and its corners come in exact +-pairs,
    so, rounding being monotone, some corner fails exactly when
    |offset| + m r > limit in some column: m the column's max |entry| on the
    unit-level box, offset 0 and limit e_max for a state, |u_ref| and u_max
    for an input. That check only tightens as c grows, so a bisection of the
    sequence (in the floats the repeated division gives, cached per
    (c0, shrink) and grown until its last level passes or falls below c_min)
    finds the first level that passes.
    """
    lam, Vec = np.linalg.eigh(np.asarray(P, dtype=float))
    if lam[0] <= 0:
        raise ValueError("P must be positive definite")
    unit_vertices = _corners(lam.shape[0]) * np.sqrt(1.0 / lam) @ Vec.T  # box at c = 1
    unit_inputs = unit_vertices @ np.asarray(K, dtype=float).T
    spread = np.abs(np.hstack([unit_vertices, unit_inputs])).max(axis=0).tolist()
    offset = [0.0] * lam.shape[0] + np.abs(np.asarray(u_ref, dtype=float)).ravel().tolist()
    checks = list(zip(spread, offset, cons.e_max.tolist() + cons.u_max.tolist()))

    def passes(c):
        r = math.sqrt(c)
        for m, a, limit in checks:
            if a + m * r > limit:
                return False
        return True

    levels = _sequence(c0, shrink)
    while not passes(levels[-1]) and levels[-1] >= c_min:
        levels.append(levels[-1] / shrink)
    i = bisect.bisect_left(levels, True, key=passes)
    if i == len(levels) or levels[i] < c_min:
        raise ValueError("terminal level shrank below c_min without becoming feasible")
    return levels[i]


def compute_c_schedule(schedule, cons: TerminalConstraints, inputs, c0: float = 10.0,
                       shrink: float = 1.01, c_min: float = C_MIN):
    """Per-timestep terminal levels and their outer boxes.

    schedule is a TerminalSchedule (P indexed 0..T_end, K 0..T_end-1; the
    final step reuses the last gain). inputs (L, 2) holds the reference input
    per timestep for the input check. Returns a list of (c, OuterPolyhedron),
    the boxes outer_polyhedron gives, built in one eigh over the P stack.
    """
    inputs = np.asarray(inputs, dtype=float)
    cs = [shrink_level(P, cons, schedule.K_at(i), inputs[i], c0, shrink, c_min)
          for i, P in enumerate(schedule.P)]
    boxes = outer_polyhedron(TerminalEllipsoid(schedule.P, np.array(cs)[:, None]))
    return [(c, OuterPolyhedron(v)) for c, v in zip(cs, boxes.vertices)]
