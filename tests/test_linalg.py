import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlift.linalg import clip_psd, herm


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.integers(1, 6),
    count=st.integers(1, 5),
)
def test_stacked_clip_psd_matches_per_matrix_calls(seed, q, count):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, q, q)) + 1j * rng.standard_normal((count, q, q))
    together = clip_psd(stack)
    assert together.shape == stack.shape
    for a, c in zip(stack, together):
        assert np.max(np.abs(c - clip_psd(a))) <= 1e-15


def test_stacked_herm_matches_per_matrix_calls():
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    together = herm(stack)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(together[idx], herm(stack[idx]))
        assert np.array_equal(together[idx], (stack[idx] + stack[idx].conj().T) / 2)


def test_clip_psd_is_the_eigenvalue_clip():
    a = np.diag([2.0, -1.0, 0.5]).astype(complex)
    u = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
    clipped = clip_psd(u @ a @ u.T)
    assert np.allclose(clipped, u @ np.diag([2.0, 0.0, 0.5]) @ u.T, atol=1e-14)
