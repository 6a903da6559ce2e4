import math

import numpy as np
import pytest

from pwsync.dynamics import (
    AffineDecomposedField,
    ChuaParams,
    IkedaParams,
    KuramotoParams,
    RelayParams,
    chua_field,
    chua_fields,
    decay_field,
    hard_sgn,
    ikeda_field,
    kuramoto_error_field,
    relay_field,
    saturated_sgn,
)

RELAY_B_NORM = math.sqrt(6.0)


def test_hard_sgn_zero_convention():
    assert hard_sgn(0.0) == 0.0
    assert hard_sgn(-3.2) == -1.0
    assert hard_sgn(0.7) == 1.0


def test_saturated_sgn_boundary_layer():
    sgn = saturated_sgn(1e-2)
    assert sgn(1.0) == 1.0
    assert sgn(-1.0) == -1.0
    assert abs(sgn(5e-3) - 0.5) < 1e-12
    assert sgn(0.0) == 0.0
    with pytest.raises(ValueError):
        saturated_sgn(0.0)


def test_saturated_sgn_equals_clip():
    width = 1e-2
    sgn = saturated_sgn(width)
    rng = np.random.default_rng(4)
    y = np.concatenate([rng.normal(scale=2e-2, size=500),
                        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-2, -1e-2, 5e-324]])
    got = sgn(y)
    expected = np.clip(y / width, -1.0, 1.0)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    for v in (0.0, -0.0, math.inf, -math.inf, math.nan, 3e-3):
        one, ref = sgn(v), np.clip(v / width, -1.0, 1.0)
        assert np.array_equal(one, ref, equal_nan=True) and np.signbit(one) == np.signbit(ref)


def test_chua_smooth_part_known_point():
    f = chua_field(ChuaParams(), node_index=0, n_nodes=10)
    out = f.h(0.0, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(out, [0.7, 2.0, 0.0], atol=1e-12)


def test_chua_smooth_part_is_odd_symmetric():
    f = chua_field(ChuaParams(), node_index=3, n_nodes=10)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=3) * 3.0
        assert np.allclose(f.h(0.0, x), -f.h(0.0, -x), atol=1e-12)


def test_chua_forcing_square_wave():
    f = chua_field(ChuaParams(), node_index=0, n_nodes=4)
    x = np.zeros(3)
    early = f.g(0.5, x, None, hard_sgn)
    assert np.allclose(early, [1.0, 0.0, 0.0], atol=0.0)
    late = f.g(math.pi + 0.5, x, None, hard_sgn)
    assert np.allclose(late, [-1.0, 0.0, 0.0], atol=0.0)
    shifted = chua_field(ChuaParams(), node_index=2, n_nodes=4)
    assert shifted.g(0.5, x, None, hard_sgn)[0] == -1.0


def test_chua_batch_matches_rowwise():
    f = chua_field(ChuaParams(), node_index=1, n_nodes=10)
    rng = np.random.default_rng(9)
    batch = rng.normal(size=(8, 3)) * 2.0
    stacked = f.h(1.3, batch)
    rows = np.array([f.h(1.3, row) for row in batch])
    assert np.allclose(stacked, rows, atol=1e-14)


def test_relay_field_pieces():
    f = relay_field(RelayParams())
    A = np.asarray(RelayParams().a_matrix)
    x = np.array([0.4, -1.0, 2.0])
    assert np.allclose(f.h(0.0, x), A @ x, atol=1e-14)
    g_pos = f.g(0.0, x, None, hard_sgn)
    assert np.allclose(g_pos, [-1.0, 2.0, -1.0], atol=0.0)
    g_neg = f.g(0.0, -x, None, hard_sgn)
    assert np.allclose(g_neg, [1.0, -2.0, 1.0], atol=0.0)
    g_zero = f.g(0.0, np.array([0.0, 5.0, -5.0]), None, hard_sgn)
    assert np.allclose(g_zero, [0.0, 0.0, 0.0], atol=0.0)
    assert abs(f.M - RELAY_B_NORM) < 1e-15


def test_relay_m_override():
    f = relay_field(RelayParams(m_override=2.0))
    assert f.M == 2.0


def test_relay_batch_gradient_sign():
    f = relay_field(RelayParams())
    batch = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    out = f.g(0.0, batch, None, hard_sgn)
    assert np.allclose(out[0], [-1.0, 2.0, -1.0], atol=0.0)
    assert np.allclose(out[1], [1.0, -2.0, 1.0], atol=0.0)


def test_ikeda_field_annotations():
    f = ikeda_field(IkedaParams(a=1.2, b=3.0, tau=0.8))
    assert f.delay == 0.8
    assert f.M == 3.0
    assert f.h_gain == 1.2
    assert np.allclose(f.w_identity, [-1.2], atol=0.0)
    assert f.h(0.0, np.array([2.0]))[0] == pytest.approx(-2.4)
    with pytest.raises(ValueError):
        ikeda_field(IkedaParams(a=-1.0))


def test_kuramoto_error_field():
    f = kuramoto_error_field(KuramotoParams(omega=1.5), omega_mean=0.5)
    x = np.array([0.3])
    assert np.allclose(f.h(2.0, x), [0.0], atol=0.0)
    assert np.allclose(f.g(2.0, x, None, hard_sgn), [1.0], atol=0.0)
    assert f.M == 1.0
    assert np.allclose(f.w_identity, [0.0], atol=0.0)


def test_field_validation():
    ok = lambda t, x: np.zeros(np.shape(x))
    g = lambda t, x, history, sgn: np.zeros(np.shape(x))
    with pytest.raises(ValueError):
        AffineDecomposedField(dim=0, h=ok, g=g, M=1.0)
    with pytest.raises(ValueError):
        AffineDecomposedField(dim=1, h=ok, g=g, M=-1.0)
    with pytest.raises(ValueError):
        AffineDecomposedField(dim=1, h=ok, g=g, M=math.inf)
    with pytest.raises(ValueError):
        AffineDecomposedField(dim=1, h=ok, g=g, M=1.0, delay=0.0)
    with pytest.raises(ValueError):
        AffineDecomposedField(dim=2, h=ok, g=g, M=1.0, w_identity=np.array([1.0]))


def test_w_identity_is_read_only():
    f = ikeda_field(IkedaParams())
    with pytest.raises(ValueError):
        f.w_identity[0] = 5.0


@pytest.mark.parametrize("key", ["delay", "h_gain", "h0_norm"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_field_rejects_non_finite_annotations(key, bad):
    ok = lambda t, x: np.zeros(np.shape(x))
    g = lambda t, x, history, sgn: np.zeros(np.shape(x))
    with pytest.raises(ValueError, match=key):
        AffineDecomposedField(dim=1, h=ok, g=g, M=1.0, **{key: bad})
    with pytest.raises(ValueError, match="w_identity"):
        AffineDecomposedField(dim=2, h=ok, g=g, M=1.0, w_identity=np.array([-1.0, bad]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_family_check_rejects_non_finite_parameters(bad):
    # nan slips past a bare `a <= 0` test; each family checks finiteness first
    builders = [
        lambda: ikeda_field(IkedaParams(a=bad)),
        lambda: ikeda_field(IkedaParams(tau=bad)),
        lambda: chua_field(ChuaParams(alpha=bad), 0, 2),
        lambda: chua_field(ChuaParams(slope_a=bad), 0, 2),
        lambda: relay_field(RelayParams(a_matrix=((bad, 0.0), (0.0, -1.0)),
                                        b_vector=(1.0, 0.0), c_vector=(1.0, 0.0))),
        lambda: kuramoto_error_field(KuramotoParams(omega=bad), 0.0),
        lambda: decay_field(bad),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="must be finite"):
            build()


def _annotations(f):
    w = None if f.w_identity is None else f.w_identity.tolist()
    return (f.dim, f.M, f.delay, f.h_gain, f.h0_norm, w, f.label, f.family, f.params)


def test_a_chua_network_built_at_once_equals_its_nodes_built_one_by_one():
    p = ChuaParams(alpha=9.0, slope_a=-1.2)
    assert [_annotations(f) for f in chua_fields(p, 4)] == [
        _annotations(chua_field(p, i, 4)) for i in range(4)]
