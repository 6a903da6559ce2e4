"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: the
eigenvalue oracle expands the characteristic polynomial through sums of
principal minors (LU determinants) and finds its roots through the
companion matrix, never touching symmetric eigensolvers; the network
integrator is classical RK4 written out stage by stage over each node's
own ``h`` and ``g`` closures and the coupling sum edge by edge.
"""

import itertools
import math

import numpy as np


def char_poly_coefficients(matrix):
    """Coefficients of det(xI - A), highest power first, via brute-force
    sums of k x k principal minors. Intended for small matrices."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    for k in range(1, n + 1):
        total = 0.0
        for rows in itertools.combinations(range(n), k):
            sub = a[np.ix_(rows, rows)]
            total += float(np.linalg.det(sub))
        coeffs.append(((-1.0) ** k) * total)
    return np.array(coeffs)


def eigenvalues_brute(matrix):
    """All eigenvalues through the characteristic polynomial, ascending."""
    coeffs = char_poly_coefficients(matrix)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def lambda2_brute(laplacian_matrix):
    """Second-smallest eigenvalue of a Laplacian via the polynomial oracle."""
    vals = eigenvalues_brute(laplacian_matrix)
    return float(vals[1])


def rk4_reference_scalar(rate, forcing_amp, x0, t_end):
    """Closed form for x' = -rate*x + forcing_amp*cos(t), x(0) = x0."""
    r = float(rate)
    k = forcing_amp / (1.0 + r * r)
    c0 = x0 - k * r
    t = float(t_end)
    return c0 * np.exp(-r * t) + k * (r * np.cos(t) + np.sin(t))


def _past_row(rows, dt, s):
    """The stored network state at time s ≤ the last stored step: x(0) for
    s ≤ 0; else, with u = s/dt and i = ⌊u⌋, row i when u − i ≤ 1e-9 and
    row i + (u − i)·(row i+1 − row i) otherwise."""
    if s <= 0.0:
        return rows[0]
    u = s / dt
    i = math.floor(u)
    frac = u - i
    if frac <= 1e-9:
        return rows[i]
    return rows[i] + frac * (rows[i + 1] - rows[i])


def _node_history(rows, dt, node, dim):
    """Node ``node``'s history callable: each past time in s, a scalar or an
    array, read by :func:`_past_row`; shape s.shape + (dim,)."""
    def history(s):
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape + (dim,))
        for at, time in np.ndenumerate(s):
            out[at] = _past_row(rows, dt, float(time))[node * dim:(node + 1) * dim]
        return out

    return history


def rk4_network(fields, weights, coupling, x0, dt, n_steps, sgn, threshold=math.inf):
    """Classical RK4 at fixed step on the coupled network, node by node:
    x_i' = h_i(t, x_i) + g_i(t, x_i) + c·Σ_j w_ij·Γ(x_j − x_i) under
    linear coupling, or + c·Σ_j w_ij·η(x_j − x_i) under nonlinear
    coupling, with each field's own ``h`` and ``g`` (``sgn`` the relay's
    sign) and c = ``coupling.c``.  A delayed field reads the stored rows
    through its history callable: the constant pre-history x(0) before
    t = 0, and linear interpolation between stored steps after it
    (:func:`_past_row`), so every delay must be at least ``dt``.  Stops
    before the first state whose max|x| is not ≤ ``threshold``.  Returns
    the states, (steps + 1, N·dim)."""
    n_nodes, dim = len(fields), fields[0].dim
    weights = np.asarray(weights, dtype=float)
    rows = [np.asarray(x0, dtype=float).reshape(-1)]
    histories = [_node_history(rows, dt, i, dim) for i in range(n_nodes)]

    def rate(t, x):
        x = x.reshape(n_nodes, dim)
        out = np.zeros((n_nodes, dim))
        for i, field in enumerate(fields):
            out[i] = field.h(t, x[i]) + field.g(t, x[i], histories[i], sgn)
            for j in np.flatnonzero(weights[i]):
                diff = x[j] - x[i]
                if coupling.variant == "linear":
                    out[i] += coupling.c * weights[i, j] * coupling.gamma * diff
                else:
                    out[i] += coupling.c * weights[i, j] * coupling.eta(diff)
        return out.reshape(-1)

    for k in range(n_steps):
        t, x = k * dt, rows[-1]
        k1 = rate(t, x)
        k2 = rate(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = rate(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = rate(t + dt, x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(x).max() <= threshold:
            break
        rows.append(x)
    return np.array(rows)
