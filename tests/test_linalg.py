import numpy as np

from pwsync.linalg import spectral_norm, symmetric_part

from oracles import eigenvalues_brute

N_RANDOM_TRIALS = 60
MAX_SIZE = 6
AGREEMENT_TOL = 1e-9


def test_diagonal_matrix_eigenvalues_are_sorted_entries():
    # the oracle is the reference for every spectrum in the suite
    d = np.diag([3.0, -1.0, 2.5, 0.0])
    vals = eigenvalues_brute(d)
    assert np.allclose(vals, [-1.0, 0.0, 2.5, 3.0], atol=1e-14)


def test_known_two_by_two():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert abs(spectral_norm(a) - 3.0) < 1e-14


def test_random_symmetric_against_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(N_RANDOM_TRIALS):
        n = int(rng.integers(2, MAX_SIZE + 1))
        raw = rng.normal(size=(n, n))
        sym = 0.5 * (raw + raw.T)
        ref = float(np.max(np.abs(eigenvalues_brute(sym))))
        assert abs(spectral_norm(sym) - ref) < AGREEMENT_TOL


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.normal(size=(n, m))
        mine = spectral_norm(a)
        ref = float(np.linalg.svd(a, compute_uv=False)[0])
        assert abs(mine - ref) < 1e-9 * max(1.0, ref)


def test_spectral_norm_of_known_matrix():
    a = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert abs(spectral_norm(a) - 4.0) < 1e-12


def test_symmetric_part():
    a = np.array([[1.0, 4.0], [0.0, 2.0]])
    s = symmetric_part(a)
    assert np.allclose(s, [[1.0, 2.0], [2.0, 2.0]], atol=1e-15)
    assert np.allclose(s, s.T, atol=0.0)
