import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlift.linalg import clip_psd, herm, opnorm, opnorms


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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    shape=st.sampled_from(["row", "column", "square"]),
    exponent=st.integers(-150, 150),
)
def test_opnorm_is_the_stacked_norm(seed, d, shape, exponent):
    rng = np.random.default_rng(seed)
    dims = {"row": (1, d), "column": (d, 1), "square": (d, d)}[shape]
    stack = (rng.standard_normal((3, *dims)) + 1j * rng.standard_normal((3, *dims))) * 10.0**exponent
    norms = opnorms(stack)
    assert norms.shape == (3,)
    for a, norm in zip(stack, norms):
        # Bit for bit: a norm taken alone is the one taken in a stack.
        assert opnorm(a) == norm
        reference = np.linalg.norm(a, 2)
        assert abs(norm - reference) <= 1e-15 * reference


def test_opnorms_of_rows_and_columns_take_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("a row or column norm took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert opnorm(np.array([[3.0, 4.0j]])) == 5.0
    assert opnorm(np.array([[3.0], [-4.0]])) == 5.0
    assert opnorm(np.array([[-0.5j]])) == 0.5
    # ``hypot`` neither overflows nor underflows where squares would.
    assert opnorm(np.array([[3e300, 4e300]])) == 5e300
    assert opnorm(np.array([[3e-300], [4e-300j]])) == 5e-300
    assert np.array_equal(opnorms(np.zeros((0, 2, 1))), np.zeros(0))
    assert np.array_equal(opnorms(np.ones((2, 3, 0))), np.zeros(2))
    assert opnorm(np.zeros((0, 0))) == 0.0
    # A NaN entry raises for a row or a column as for a square matrix.
    monkeypatch.undo()
    for a in (np.array([[np.nan, 1.0]]), np.array([[1.0], [np.nan]]), np.array([[np.nan, 0], [0, 1]])):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.norm(a, 2)
        with pytest.raises(np.linalg.LinAlgError):
            opnorm(a)
    assert opnorm(np.array([[np.inf, 1.0]])) == np.inf
