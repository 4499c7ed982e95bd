"""Dense two-phase simplex for tiny equality-form LPs.

Solves  min c'x  s.t.  A x = b, x >= 0  on problems with at most a few dozen
variables (tie-breaking LPs). Bland's rule guards against cycling; phase one
drives artificial variables out and drops redundant rows. Returns a vertex
(basic feasible) solution.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-10    # pivot, ratio-tie and phase-1 residual tolerance

class LPInfeasibleError(Exception):
    """Phase-one optimum left a residual: the constraints are inconsistent."""


class LPUnboundedError(Exception):
    pass


def _bland_step(T, basis, allowed):
    """One simplex pivot using Bland's rule; returns False at optimality."""
    obj = T[-1, :-1]
    enter = -1
    for j in allowed:
        if obj[j] < -_TOL:
            enter = j
            break
    if enter < 0:
        return False
    col = T[:-1, enter]
    rhs = T[:-1, -1]
    best_ratio, leave = None, -1
    for i in range(len(basis)):
        if col[i] > _TOL:
            ratio = rhs[i] / col[i]
            # ties resolved toward the smallest basis index (anti-cycling)
            if (best_ratio is None or ratio < best_ratio - _TOL
                    or (abs(ratio - best_ratio) <= _TOL
                        and basis[i] < basis[leave])):
                best_ratio, leave = ratio, i
    if leave < 0:
        raise LPUnboundedError("objective unbounded below")
    _pivot(T, basis, leave, enter)
    return True


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def solve_lp(c, A, b):
    """Return (x, objective) for min c'x, Ax = b, x >= 0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    A = A.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: [A | I | b] with artificial basis, minimize the artificial sum
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    allowed = range(n)                      # artificials never re-enter
    while _bland_step(T, basis, allowed):
        pass
    if T[-1, -1] < -np.sqrt(_TOL):
        raise LPInfeasibleError(
            f"phase-1 residual {-T[-1, -1]:.3e} (constraints inconsistent)")

    # clear leftover artificials from the basis (degenerate rows)
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if abs(T[i, j]) > _TOL), None)
            if piv is None:
                continue                    # redundant row, drop it
            _pivot(T, basis, i, piv)
        keep.append(i)
    T = np.vstack([T[keep][:, list(range(n)) + [n + m]], np.zeros(n + 1)])
    basis = [basis[i] for i in keep]

    # phase 2: original costs expressed over the current basis
    T[-1, :n] = c
    for i, j in enumerate(basis):
        T[-1] -= T[-1, j] * T[i]
    while _bland_step(T, basis, range(n)):
        pass

    x = np.zeros(n)
    for i, j in enumerate(basis):
        x[j] = T[i, -1]
    return x, float(c @ x)
