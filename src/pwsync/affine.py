"""RK4's exact step on an affine system in row-state form.

On x' = x·Jᵀ + f(t), with states as rows, one classical RK4 step is
affine: x_{k+1} = x_k·M + g_k, with M = R(dt·Jᵀ) RK4's stability function
and g_k the step's forcing row.  These helpers build M and the stage
matrices beside it, the weights by which a term entering one stage
reaches the next state and the later stages, and the forcing rows of a
block of steps, each from a few batched products.  :mod:`pwsync.sim`
steps linear regions and chains the stage terms of dense runs with them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["affine_step", "stage_weights", "forcing_weights", "affine_forcing", "stage_forcing"]


def affine_step(jac_t, dt: float, gather):
    """RK4 on x' = x·Jᵀ + f(t) (row states) is exactly affine: with
    A = dt·Jᵀ, x_{k+1} = x_k·M + g_k, where M = I + A + A²/2 + A³/6 + A⁴/24
    is RK4's stability function R(A) and g_k the step's forcing row
    (:func:`affine_forcing`, :func:`stage_forcing`).  The four stage
    states are x_k·Pᵢ plus their own forcing terms, P₁ = I, P₂ = I + A/2,
    P₃ = I + A/2 + A²/4 and P₄ = I + A + A²/2 + A³/4.

    Returns the step [M | P₂G | P₃G | P₄G | G] (B, n, n + 4K) for a dense
    gather G (n, K), whose product with x_k is x_{k+1} and the gathers X·G
    of the four stage states before forcing (stage 1's last: it carries no
    forcing).  For ``gather`` None it returns the step [M | P₂ | P₃ | P₄]
    (B, n, 4n) of the next state and the stage states themselves.  Every
    polynomial is in Horner form, so no power of A is kept."""
    a = dt * jac_t
    eye = np.eye(a.shape[-1])
    m = eye + a / 4.0
    m = eye + a @ m / 3.0
    m = eye + a @ m / 2.0
    m = eye + a @ m
    if gather is None:
        p2 = eye + a / 2.0
        p3 = eye + a @ p2 / 2.0
        return np.concatenate([m, p2, p3, eye + a @ p3], axis=-1)
    gather = np.broadcast_to(gather, a.shape[:-1] + gather.shape[-1:])
    p2 = gather + a @ gather / 2.0
    p3 = gather + a @ p2 / 2.0
    return np.concatenate([m, p2, p3, gather + a @ p3, gather], axis=-1)


def stage_weights(a, dt: float, gather):
    """RK4's response on x' = x·Jᵀ + u (row states, A = dt·Jᵀ) to a term u
    that enters stage r alone, r = 1, …, 4: the weights W_r (B, n, n + 3K)
    by which u reaches x_{k+1} and the gathers X₂G, X₃G, X₄G of the later
    stages (stage 4's (B, n, n): it reaches x_{k+1} alone).  Stage 1's
    term reaches x_{k+1} through dt/6·(I + A + A²/2 + A³/4) and X₂, X₃, X₄
    through dt/2·I, dt/4·A, dt/4·A²; stage 2's through dt/6·(2I + A +
    A²/2) and X₃, X₄ through dt/2·I, dt/2·A; stage 3's through dt/6·(2I +
    A) and X₄ through dt·I; stage 4's through dt/6·I.  The forcing f_k
    enters stage 1, f_{k+½} stages 2 and 3 and f_{k+1} stage 4
    (:func:`affine_forcing`); a dense triple's kernel output enters the
    stage whose gather it reads, through S·W_r (the chained step of
    :mod:`pwsync.sim`)."""
    eye = np.eye(a.shape[-1])
    gather = np.broadcast_to(gather, a.shape[:-1] + gather.shape[-1:])
    ag, zero, sixth = a @ gather, np.zeros(gather.shape), dt / 6.0
    first = eye + a @ (eye + a @ (0.5 * eye + a / 4.0))
    second = 2.0 * eye + a @ (eye + a / 2.0)
    third = 2.0 * eye + a
    return [np.concatenate(blocks, axis=-1) for blocks in (
        [sixth * first, 0.5 * dt * gather, 0.25 * dt * ag, 0.25 * dt * (a @ ag)],
        [sixth * second, zero, 0.5 * dt * gather, 0.5 * dt * ag],
        [sixth * third, zero, zero, dt * gather])] + [np.broadcast_to(sixth * eye, a.shape)]


def forcing_weights(weights):
    """The weights of f_k and f_{k+½} in the first n + 3K columns of the
    step [M | P₂G | P₃G | P₄G | G], (B, 2, n, n + 3K): W₁ and W₂ + W₃ of
    :func:`stage_weights` (f_{k+1} adds dt/6·f to x_{k+1})."""
    first, second, third, _ = weights
    return np.stack([first, second + third], axis=1)


def affine_forcing(f, weights, sixth: float):
    """The forcing rows of the step [M | P₂G | P₃G | P₄G | G] for a block
    of m steps, g_j = f_j·W₁ + f_{j+½}·(W₂ + W₃) + f_{j+1}·dt/6 in its
    first n columns and the forcing of stages 2-4's gathers in the next
    3K, with f the forcing rows (B, 2m + 1, n) at the block's stage times
    and ``weights`` those of :func:`forcing_weights`: shape (B, m, 1, n +
    3K), two batched products per block."""
    g = f[:, :-1:2] @ weights[:, 0]
    g += f[:, 1::2] @ weights[:, 1]
    g[..., :f.shape[-1]] += sixth * f[:, 2::2]
    return g[:, :, None]


def stage_forcing(f, jac_t, dt: float, gather=None):
    """The forcing rows of the step (:func:`affine_step`) for a block of m
    steps: RK4's stages on x' = x·Jᵀ + f(t) from x = 0, with f the forcing
    rows (B, 2m + 1, n) at the block's stage times.  Returns g_j, the
    forcing of x_{j+1}, then that of stages 2-4, their states or, with a
    dense gather G (n, K), their gathers: shape (B, m, 1, 4n) or (B, m, 1,
    n + 3K), from three or four batched products per block and no
    weights."""
    half, f_half = 0.5 * dt, f[:, 1::2]
    k1 = f[:, :-1:2]
    x2 = half * k1
    k2 = x2 @ jac_t + f_half
    x3 = half * k2
    k3 = x3 @ jac_t + f_half
    x4 = dt * k3
    k4 = x4 @ jac_t + f[:, 2::2]
    stages = np.stack([x2, x3, x4], axis=-2)
    if gather is not None:
        stages = stages @ gather
    g = dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return np.concatenate([g, stages.reshape(g.shape[:2] + (-1,))], axis=-1)[:, :, None]
