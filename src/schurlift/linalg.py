"""Small dense-matrix helpers shared across the package.

Everything works on complex ndarrays; Hermitian inputs are symmetrized
before eigendecompositions so round-off never flips a branch.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositive

#: Relative eigenvalue cut below which ``checked_sqrt`` counts no rank.
SQRT_RANK_TOL = 1e-12

#: Default ``base`` of ``psd_fails``.
PSD_BASE_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def complex_pairs(a) -> list:
    """Nested lists of ``[re, im]`` float pairs, one per entry of a complex
    array: the JSON form of complex numbers in reports (``-0.0`` kept)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2 of a matrix or of each matrix in a stack."""
    return (a + np.swapaxes(a, -1, -2).conj()) / 2.0


def opnorms(a: np.ndarray) -> np.ndarray:
    """Operator 2-norms of a stack of matrices ``(..., d_out, d_in)``.

    A row or a column (``min(d_out, d_in) == 1``) takes the Euclidean norm
    of its entries, as a chain of ``hypot`` with no SVD, so it neither
    overflows nor underflows; its last bit may differ from the largest
    singular value's.  Other shapes take the largest singular value of the
    stacked SVD.  Empty matrices have norm 0.  A NaN norm raises
    ``LinAlgError`` for every shape, as the SVD of a NaN entry does.
    """
    a = np.asarray(a)
    shape = a.shape[-2:]
    if 0 in shape:
        return np.zeros(a.shape[:-2])
    if min(shape) > 1:
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    norms = np.hypot.reduce(np.abs(a.reshape(*a.shape[:-2], shape[0] * shape[1])), axis=-1)
    if np.isnan(norms).any():
        raise np.linalg.LinAlgError("norm of a matrix with a NaN entry")
    return norms


def opnorm(a: np.ndarray) -> float:
    """Operator 2-norm of one matrix: ``opnorms`` of the one-matrix stack, so
    that a norm taken alone and one taken in a stack agree bit for bit."""
    return float(opnorms(np.asarray(a)[None])[0])


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(herm(a))[0])


def psd_fails(w: np.ndarray, base: float = PSD_BASE_TOL) -> bool:
    """The package's one PSD test, on the spectrum ``w`` of a Hermitian
    matrix: ``min w < -base * (1 + max |w|)``.  An empty spectrum passes."""
    return bool(w.size and w.min() < -base * (1.0 + np.abs(w).max()))


def checked_sqrt(square: np.ndarray, context: str):
    """PSD square root of a square that must pass ``psd_fails``.

    One eigendecomposition gives the bottom eigenvalue that is checked,
    the norm ``max |lambda|`` that scales the tolerance, and the root.
    Raises ``NotPositive`` naming ``context`` otherwise.  Eigenvalues
    below ``SQRT_RANK_TOL * max(lambda_max, 1)`` count no rank (they are
    round-off from differences of products), and negative ones are
    clipped.  Returns ``(root, rank, range_basis, min_eig, norm)``, where
    ``range_basis`` has the ``rank`` leading eigenvectors as columns and
    ``norm`` is ``max |lambda|``, the operator norm of the square.
    """
    w, v = np.linalg.eigh(herm(square))
    w, v = w[::-1], v[:, ::-1]
    lam_min = float(w[-1]) if w.size else 0.0
    lam_max = float(w[0]) if w.size else 0.0
    if psd_fails(w):
        raise NotPositive(lam_min, context=context)
    rank = int(np.count_nonzero(w > SQRT_RANK_TOL * max(lam_max, 1.0)))
    root = (v * np.sqrt(np.where(w > 0.0, w, 0.0))) @ v.conj().T
    return herm(root), rank, v[:, :rank], lam_min, max(lam_max, -lam_min)


def clip_psd(a: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping), of a
    matrix or of each matrix in a stack ``(..., q, q)``."""
    w, v = np.linalg.eigh(herm(a))
    w = np.where(w > 0.0, w, 0.0)
    return herm((v * w[..., None, :]) @ np.swapaxes(v, -1, -2).conj())


def snap_unitary(u: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor) of a square matrix."""
    a, _, bh = np.linalg.svd(u)
    return a @ bh


def pick_blocks(values, kernel: np.ndarray, identity_kernel: np.ndarray | None = None) -> np.ndarray:
    """Block matrix ``[c_ab I - k_ab V_a V_b*]`` from stacked values ``V_a``.

    ``kernel`` holds the scalars ``k_ab``; ``identity_kernel`` holds
    ``c_ab`` and defaults to ``kernel``.  All products ``V_a V_b*`` come
    from one matrix product of the stacked values.
    """
    values = np.asarray(values, dtype=complex)
    count, d, _ = values.shape
    flat = values.reshape(count * d, -1)
    products = (flat @ flat.conj().T).reshape(count, d, count, d)
    if identity_kernel is None:
        identity_kernel = kernel
    eye = np.eye(d)[None, :, None, :]
    out = identity_kernel[:, None, :, None] * eye - kernel[:, None, :, None] * products
    return out.reshape(count * d, count * d)
