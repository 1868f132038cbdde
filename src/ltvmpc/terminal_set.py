"""Terminal-set sizing: ellipsoid levels, outer hexahedra, and the shrink loop.

The terminal region at step i is the sublevel set {x : x' P(i) x <= c(i)}.
Checking state/input feasibility on the ellipsoid directly is nonlinear, so
each ellipsoid gets an outer box aligned with the eigenvectors of P: its 8
corners over-approximate the ellipsoid, and feasibility of all corners under
the terminal controller certifies feasibility of the whole set. c(i) is the
first level of the sequence c0, c0/shrink, ... whose corners pass;
shrink_level locates it from a closed-form bound on the box radius and
confirms it with the corner check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TerminalEllipsoid:
    """Sublevel set {x : x' P x <= c} with P symmetric PD."""

    P: np.ndarray
    c: float

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if not np.allclose(P, P.T, atol=1e-9):
            raise ValueError("P must be symmetric")
        if np.min(np.linalg.eigvalsh(P)) <= 0:
            raise ValueError("P must be positive definite")
        if self.c <= 0:
            raise ValueError("level c must be positive")
        object.__setattr__(self, "P", 0.5 * (P + P.T))


@dataclass(frozen=True)
class OuterPolyhedron:
    """Eigenvector-aligned box around an ellipsoid, stored as its 8 vertices."""

    vertices: np.ndarray  # (8, n)

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] != 2 ** V.shape[1]:
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
    """Tight eigen-aligned box: semi-axes sqrt(c / eigenvalue) per direction."""
    lam, V = np.linalg.eigh(ell.P)
    semi = np.sqrt(ell.c / lam)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=lam.shape[0])))
    vertices = corners * semi @ V.T
    return OuterPolyhedron(vertices)


def vertices_feasible(poly: OuterPolyhedron, cons: TerminalConstraints, K, u_ref) -> bool:
    """All corners inside the state box and, through u = u_ref + K x, the
    input box."""
    V = poly.vertices
    if np.any(np.abs(V) > cons.e_max[None, :]):
        return False
    u = u_ref[None, :] + V @ np.asarray(K, dtype=float).T
    return bool(np.all(np.abs(u) <= cons.u_max[None, :]))


def _radius_bound(limit, spread) -> float:
    """Largest r with r * spread <= limit in every column. A zero-spread
    column does not depend on r: it allows any r or none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(spread > 0, limit / spread, np.where(limit >= 0, np.inf, -np.inf))
    return float(np.min(r, initial=np.inf))


def shrink_level(P, cons: TerminalConstraints, K, u_ref, c0: float = 10.0,
                 shrink: float = 1.01, c_min: float = 1e-12):
    """Largest c in the sequence c0, c0/shrink, c0/shrink^2, ... whose outer
    box passes vertices_feasible. Raises ValueError if none above c_min does.

    The box scales with r = sqrt(c), and its corners come in +-pairs, so the
    corner checks hold exactly for r <= r_max, where r_max is the per-column
    minimum of e_max / max|vertex| and (u_max - |u_ref|) / max|K vertex| on
    the unit-level box. The sequence is walked in plain floats up to the
    first c with sqrt(c) <= r_max; that c is then confirmed with the exact
    corner predicate, stepping forward while it fails and back while the
    previous level passes, since rounding at the boundary can differ from
    the bound. The result is the same c the divide-until-feasible loop finds.
    """
    lam, Vec = np.linalg.eigh(np.asarray(P, dtype=float))
    if np.min(lam) <= 0:
        raise ValueError("P must be positive definite")
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=lam.shape[0])))
    unit_vertices = corners * np.sqrt(1.0 / lam) @ Vec.T  # box at c = 1
    unit_inputs = unit_vertices @ np.asarray(K, dtype=float).T
    u_ref = np.asarray(u_ref, dtype=float).reshape(-1)

    def corners_pass(c):
        r = np.sqrt(c)
        ok_state = not np.any(np.abs(unit_vertices) * r > cons.e_max[None, :])
        ok_input = not np.any(np.abs(u_ref[None, :] + unit_inputs * r) > cons.u_max[None, :])
        return ok_state and ok_input

    r_max = min(_radius_bound(cons.e_max, np.max(np.abs(unit_vertices), axis=0)),
                _radius_bound(cons.u_max - np.abs(u_ref), np.max(np.abs(unit_inputs), axis=0)))
    levels = [float(c0)]  # the sequence walked so far
    while math.sqrt(levels[-1]) > r_max and levels[-1] / shrink >= c_min:
        levels.append(levels[-1] / shrink)
    for i in itertools.count(len(levels) - 1):
        if i == len(levels):
            levels.append(levels[-1] / shrink)
        if levels[i] < c_min:
            raise ValueError("terminal level shrank below c_min without becoming feasible")
        if corners_pass(levels[i]):
            break
    while i > 0 and corners_pass(levels[i - 1]):
        i -= 1
    return levels[i]


def compute_c_schedule(schedule, cons: TerminalConstraints, inputs, c0: float = 10.0,
                       shrink: float = 1.01, c_min: float = 1e-12):
    """Per-timestep terminal levels and their outer boxes.

    schedule is a TerminalSchedule (P indexed 0..T_end, K 0..T_end-1; the
    final step reuses the last gain). inputs (L, 2) holds the reference input
    per timestep for the input check. Returns a list of (c, OuterPolyhedron).
    """
    inputs = np.asarray(inputs, dtype=float)
    out = []
    for i in range(len(schedule.P)):
        K = schedule.K_at(i)
        c = shrink_level(schedule.P[i], cons, K, inputs[i], c0=c0, shrink=shrink, c_min=c_min)
        poly = outer_polyhedron(TerminalEllipsoid(schedule.P[i], c))
        out.append((c, poly))
    return out
