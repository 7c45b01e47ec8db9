"""Brute-force LP oracle: vertex enumeration plus a recession-ray check.

Independent of the simplex implementation under test.  Every candidate
vertex comes from solving a square system of active constraints; the
unbounded check enumerates vertices of the recession cone normalized to
sum(d) = 1, which is legitimate because all variables are bounded below.
`residuals` measures how far a candidate point breaks each kind of
constraint.
"""
from __future__ import annotations

import itertools

import numpy as np

from margin_forge.simplex import LpProblem

_TOL = 1e-8


def _hyperplanes(problem: LpProblem):
    n = problem.n_vars
    planes = []
    for a, b in zip(problem.a_ge, problem.b_ge):
        planes.append((a, b))
    for a, b in zip(problem.a_eq, problem.b_eq):
        planes.append((a, b))
    eye = np.eye(n)
    for j in range(n):
        planes.append((eye[j], 0.0))
    if problem.upper is not None:
        for j in range(n):
            planes.append((eye[j], problem.upper[j]))
    return planes


def _is_feasible(problem: LpProblem, x: np.ndarray) -> bool:
    if problem.a_ge.shape[0] and np.any(problem.a_ge @ x < problem.b_ge - _TOL):
        return False
    if problem.a_eq.shape[0] and np.any(np.abs(problem.a_eq @ x - problem.b_eq) > _TOL):
        return False
    if np.any(x < -_TOL):
        return False
    if problem.upper is not None and np.any(x > problem.upper + _TOL):
        return False
    return True


def feasible_vertices(problem: LpProblem) -> list[np.ndarray]:
    n = problem.n_vars
    planes = _hyperplanes(problem)
    vertices = []
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo], dtype=float)
        b = np.array([planes[i][1] for i in combo], dtype=float)
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] < 1e-8 * max(1.0, sv[0]):
            continue
        x = np.linalg.solve(A, b)
        if _is_feasible(problem, x):
            vertices.append(x)
    return vertices


def _recession_section(problem: LpProblem) -> LpProblem:
    # directions d >= 0 with a_ge d >= 0, a_eq d = 0, d_j = 0 where x_j is
    # bounded above, normalized onto sum(d) = 1
    n = problem.n_vars
    fixed = np.eye(n) if problem.upper is not None else np.zeros((0, n))
    a_eq = np.vstack([problem.a_eq, np.ones((1, n)), fixed])
    b_eq = np.concatenate([np.zeros(problem.a_eq.shape[0]), [1.0], np.zeros(fixed.shape[0])])
    return LpProblem(problem.objective, a_ge=problem.a_ge,
                     b_ge=np.zeros(problem.a_ge.shape[0]), a_eq=a_eq, b_eq=b_eq)


def oracle_solve(problem: LpProblem) -> tuple[str, float | None]:
    """Return (status, optimal objective value or None)."""
    vertices = feasible_vertices(problem)
    if not vertices:
        return "infeasible", None
    rays = feasible_vertices(_recession_section(problem))
    if any(problem.objective @ d > 1e-9 for d in rays):
        return "unbounded", None
    best = max(float(problem.objective @ v) for v in vertices)
    return "optimal", best


def random_lp(rng: np.random.Generator) -> LpProblem:
    """Small random LP with integer data; statuses vary across draws."""
    n = int(rng.integers(1, 5))
    n_rows = int(rng.integers(1, 9))
    c = rng.integers(-5, 6, size=n).astype(float)
    a_ge = np.empty((n_rows, n))
    b_ge = np.empty(n_rows)
    for i in range(n_rows):
        a_ge[i] = rng.integers(-4, 5, size=n)
        if not np.any(a_ge[i]):
            a_ge[i, int(rng.integers(0, n))] = 1.0
        # rhs biased low so rows are more often satisfiable
        b_ge[i] = rng.integers(-8, 4)
    a_eq = b_eq = None
    if rng.random() < 0.3:
        a_eq = rng.integers(-3, 4, size=(1, n)).astype(float)
        if not np.any(a_eq):
            a_eq[0, 0] = 1.0
        b_eq = np.array([float(rng.integers(0, 5))])
    upper = None
    if rng.random() < 0.6:
        upper = rng.integers(1, 10, size=n).astype(float)
    return LpProblem(c, a_ge=a_ge, b_ge=b_ge, a_eq=a_eq, b_eq=b_eq, upper=upper)


def residuals(problem: LpProblem, x: np.ndarray) -> dict[str, float]:
    """Worst-case constraint violations of a candidate point; "lower" is x >= 0."""
    out = {"ge": 0.0, "eq": 0.0, "lower": float(np.max(np.clip(-x, 0.0, None))),
           "upper": 0.0}
    if problem.a_ge.shape[0]:
        out["ge"] = float(np.max(np.clip(problem.b_ge - problem.a_ge @ x, 0.0, None)))
    if problem.a_eq.shape[0]:
        out["eq"] = float(np.max(np.abs(problem.a_eq @ x - problem.b_eq)))
    if problem.upper is not None:
        out["upper"] = float(np.max(np.clip(x - problem.upper, 0.0, None)))
    return out
