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

import mpmath
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


def chua_family_optimum(alpha, beta, slopes, gamma, lam2, c, margin=1e-6, points=400):
    """c̃ and the largest decay margin over the double-scroll certificates,
    at 200 bits, as floats (c̃ = inf or margin = -inf when no member qualifies).

    Each u = p1/p2 (p2 = 1, p3 = 1/β) gets its best ρ from the monotonicity of
    w1(ρ) = k·u + ρ(α·u + 1)/2 (increasing) and w2(ρ) = (α·u + 1)/(2ρ) − 1
    (decreasing): for c̃, the balance w1 = w2 when both are coupled, else
    the least ρ with w2 ≤ −margin·S or the greatest with w1 ≤ −margin·S; for
    the decay margin, the balance of the two coupling-shifted terms.  The
    scores are read on a log grid of ``points`` over ten decades past the
    kinks (kinks included), then each grid cell beside the best point is
    refined by golden-section search in log u to 1e-20.
    """
    with mpmath.workprec(200):
        mpf = mpmath.mpf
        alpha, beta, c, lam2 = mpf(alpha), mpf(beta), mpf(c), mpf(lam2)
        k = -alpha * (1 + mpf(min(slopes)))
        gamma = [mpf(g) for g in gamma]
        on = [g > 0 for g in gamma]

        def parts(u):
            a, scale = alpha * u + 1, max(u, 1, 1 / beta)
            least = min(p * g for p, g, o in zip((u, 1, 1 / beta), gamma, on) if o)
            return a, scale, margin * scale, least

        def gain_score(u):
            a, _, mu, least = parts(u)
            lo = a / (2 * (1 - mu)) if not on[1] else mpf(0)
            hi = 2 * (-mu - k * u) / a if not on[0] else mpmath.inf
            if (not on[1] and mu >= 1) or hi <= 0 or lo > hi:
                return mpmath.inf
            if on[0] and on[1]:
                b = k * u + 1
                rho = (mpmath.sqrt(a * a + b * b) - b) / a
            else:
                rho = lo if on[0] else hi
            w = [k * u + rho * a / 2, a / (2 * rho) - 1, mpf(0)]
            return max(max(wi for wi, o in zip(w, on) if o), 0) / (lam2 * least)

        def margin_score(u):  # minus the unit-scaled decay margin; inf where it is ≤ 0
            a, scale, _, least = parts(u)
            shift = c * lam2 * least
            s1, s2 = (shift if on[0] else 0), (shift if on[1] else 0)
            b = k * u + 1 - s1 + s2
            rho = (mpmath.sqrt(a * a + b * b) - b) / a
            top = max(k * u + rho * a / 2 - s1, a / (2 * rho) - 1 - s2, -shift) / scale
            return top if top < 0 else mpmath.inf

        kinks = [mpf(1), 1 / beta]
        if on[0]:
            kinks += [g * p / gamma[0] for g, p, o in zip(gamma[1:], (1, 1 / beta), on[1:]) if o]
        lo, hi = mpmath.log(min(kinks)) - 23, mpmath.log(max(kinks)) + 23
        grid = sorted([lo + (hi - lo) * i / (points - 1) for i in range(points)]
                      + [mpmath.log(x) for x in kinks])
        best = []
        for score in (gain_score, margin_score):
            values = [score(mpmath.exp(t)) for t in grid]
            i = min(range(len(grid)), key=values.__getitem__)
            found = values[i]
            for left, right in ((max(i - 1, 0), i), (i, min(i + 1, len(grid) - 1))):
                found = min(found, _golden_min(lambda t: score(mpmath.exp(t)), grid[left], grid[right]))
            best.append(found)
        return float(best[0]), -float(best[1])


def _golden_min(f, a, b, tol=1e-20):
    """The least f seen by golden-section search on [a, b], endpoints included."""
    ratio = (mpmath.sqrt(5) - 1) / 2
    found = min(f(a), f(b))
    x1, x2 = b - ratio * (b - a), a + ratio * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = f(x2)
    return min(found, f1, f2)
