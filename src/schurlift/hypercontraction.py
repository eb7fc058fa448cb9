"""Hereditary calculus for commuting tuples.

Covers the completely positive map of a tuple, the ball and polydisc
hereditary operators, defect data with PSD square roots, the joint
eigenbasis of a commuting tuple, and the purity gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHypercontraction, NotPositive
from .kernels import BALL, KernelSpec
from .linalg import as_matrix, checked_sqrt, herm, opnorm
from .model_space import TupleOperator

#: Joint eigenvectors whose condition number exceeds this are not trusted.
JOINT_COND_LIMIT = 1e8

#: Off-diagonal allowance of ``V^{-1} T_i V``, relative to ``1 + ||T_i||``.
JOINT_DIAG_TOL = 1e-10

#: Eigenvalues of the generic combination this close, relative to its
#: ``1 + ||.||``, form one cluster for ``joint_eigenbasis`` to split.
JOINT_CLUSTER_TOL = 1e-4

#: A tuple is pure when its spectral radius is below ``1 - PURITY_MARGIN``.
PURITY_MARGIN = 1e-10


def cp_map(t: TupleOperator, a: np.ndarray) -> np.ndarray:
    """The completely positive map ``A -> sum_i T_i A T_i*``."""
    a = as_matrix(a)
    if a.shape != (t.dim, t.dim):
        raise DimensionMismatch(f"operand shape {a.shape} does not match tuple dimension {t.dim}")
    out = np.zeros_like(a)
    for m in t.mats:
        out += m @ a @ m.conj().T
    return out


def hereditary(t: TupleOperator, power, a: np.ndarray) -> np.ndarray:
    """Hereditary operator of the tuple applied to ``a``.

    An integer ``power`` gives the ball's ``(1 - sigma_T)^power``; a weight
    vector gives the polydisc's ``prod_j (1 - C_{T_j})^{power_j}`` with
    ``C_M(A) = M A M*``, applied coordinate by coordinate in index order.
    ``a`` may be one matrix or a stack ``(..., q, q)``.
    """
    out = np.asarray(a, dtype=complex)
    if out.ndim < 2 or out.shape[-2:] != (t.dim, t.dim):
        raise DimensionMismatch(f"operand shape {out.shape} does not match tuple dimension {t.dim}")
    if np.ndim(power) == 0:
        if power < 0:
            raise ValueError(f"power must be nonnegative, got {power}")
        for _ in range(int(power)):
            out = out - sum(m @ out @ m.conj().T for m in t.mats)
        return herm(out)
    powers = tuple(int(g) for g in power)
    if len(powers) != t.n:
        raise DimensionMismatch(f"weight vector {powers} does not match tuple length {t.n}")
    if min(powers) < 0:
        raise ValueError(f"weights must be nonnegative, got {powers}")
    for m, g in zip(t.mats, powers):
        for _ in range(g):
            out = out - m @ out @ m.conj().T
    return herm(out)


@dataclass
class DefectData:
    """Hereditary positivity operator, its PSD square root, and their range."""

    defect_square: np.ndarray
    defect: np.ndarray
    range_dim: int
    range_basis: np.ndarray
    min_eig: float

    @property
    def coord_map(self) -> np.ndarray:
        """Coordinates of ``D h`` in an orthonormal basis of the range."""
        return self.range_basis.conj().T @ self.defect


def defect(t: TupleOperator, spec: KernelSpec) -> DefectData:
    """Defect data of the tuple for the spec's geometry.

    Raises ``NotHypercontraction`` when the hereditary operator fails the
    scale-relative PSD test of ``checked_sqrt``, whose one
    eigendecomposition also gives the square root and its range.
    """
    if spec.n != t.n:
        raise DimensionMismatch(f"spec dimension {spec.n} does not match tuple length {t.n}")
    weight = spec.m if spec.geometry == BALL else spec.gamma
    square = hereditary(t, weight, np.eye(t.dim, dtype=complex))
    try:
        root, rank, basis, lam_min, _ = checked_sqrt(square, "defect")
    except NotPositive as exc:
        raise NotHypercontraction(exc.min_eig) from None
    return DefectData(
        defect_square=square,
        defect=root,
        range_dim=rank,
        range_basis=basis,
        min_eig=lam_min,
    )


def _combination(mats, phase: float) -> np.ndarray:
    """``sum_k exp(i phase k) (1 + k / 2) T_k``: fixed generic weights with
    irrational phases and distinct moduli, no random state."""
    k = np.arange(1, len(mats) + 1)
    return sum(w * m for w, m in zip(np.exp(1j * phase * k) * (1.0 + 0.5 * k), mats))


def _checked_eigenbasis(t: TupleOperator, vecs: np.ndarray):
    """``(vecs, lambda)`` if ``vecs`` passes the self-check, else ``None``."""
    if np.linalg.cond(vecs) > JOINT_COND_LIMIT:
        return None
    lam = np.empty((t.dim, t.n), dtype=complex)
    for i, m in enumerate(t.mats):
        conj = np.linalg.solve(vecs, m @ vecs)
        lam[:, i] = np.diag(conj)
        if opnorm(conj - np.diag(lam[:, i])) > JOINT_DIAG_TOL * (1.0 + opnorm(m)):
            return None
    return vecs, lam


def joint_eigenbasis(t: TupleOperator) -> tuple[np.ndarray, np.ndarray] | None:
    """``(V, lambda)`` with ``T_i = V diag(lambda[:, i]) V^{-1}``, unit-norm
    columns ``V`` and one row ``lambda_a`` per common eigenvector, or
    ``None`` when the tuple fails the self-check: ``V`` well conditioned
    and each ``V^{-1} T_i V`` diagonal within ``JOINT_DIAG_TOL`` relative
    to ``||T_i||``.

    ``V`` are the eigenvectors of a fixed generic combination of the
    ``T_i``.  When they fail the check, each cluster of the combination's
    eigenvalues (within ``JOINT_CLUSTER_TOL``) is split by a second
    combination; for pairs the two separate any two distinct joint eigenvalues.

    The result is kept in ``t.eigenbasis_cache``, where a model tuple brings
    its own, keyed on the identity of ``t.mats``: rebinding ``t.mats``
    recomputes it, while changing a matrix in place is not seen.  The
    returned arrays are shared by every caller and therefore read-only.
    """
    cached = t.eigenbasis_cache
    if cached is not None and cached[0] is t.mats:
        return cached[1]
    basis = _compute_joint_eigenbasis(t)
    if basis is not None:
        for a in basis:
            a.flags.writeable = False
    t.eigenbasis_cache = (t.mats, basis)
    return basis


def _compute_joint_eigenbasis(t: TupleOperator) -> tuple[np.ndarray, np.ndarray] | None:
    """The uncached ``joint_eigenbasis``."""
    combo = _combination(t.mats, np.sqrt(2.0))
    vals, vecs = np.linalg.eig(combo)
    basis = _checked_eigenbasis(t, vecs)
    if basis is not None:
        return basis
    # A cluster's eigenvectors are only right as a span, which every T_i
    # leaves invariant: with an orthonormal basis Q of it, the eigenvectors
    # W of a second combination of the Q* T_i Q give unit-norm columns Q W.
    near = np.abs(vals[:, None] - vals) <= JOINT_CLUSTER_TOL * (1.0 + opnorm(combo))
    for members in np.unique(near[near.sum(axis=1) > 1], axis=0):
        q = np.linalg.qr(vecs[:, members])[0]
        parts = [q.conj().T @ m @ q for m in t.mats]
        vecs[:, members] = q @ np.linalg.eig(_combination(parts, np.sqrt(3.0)))[1]
    return _checked_eigenbasis(t, vecs)


def is_pure(t: TupleOperator, spec: KernelSpec) -> bool:
    """Spectral-radius purity gate.

    Equivalent to iterate decay on finite matrices but immune to slow
    transients near the boundary: the ball uses the spectral radius of the
    completely positive map itself, the polydisc the per-coordinate radii.

    Both read the joint eigenvalues ``lambda`` of ``joint_eigenbasis``.  On
    the ball, commuting matrices triangularize together, so ``sum conj(T_i)
    (x) T_i`` has diagonal ``<lambda_a, lambda_b>`` and spectral radius
    ``max ||lambda_a||^2``; on the polydisc ``T_i`` has ``max_a |lambda_ai|``.
    Tuples without a joint eigenbasis (not diagonalizable, or a cluster the
    second combination does not split) take the eigenvalues of that
    ``q^2 x q^2`` matrix, or of each ``T_i``.
    """
    basis = joint_eigenbasis(t)
    if basis is not None:
        lam = np.abs(basis[1])
        radius = np.max(np.sum(lam**2, axis=1) if spec.geometry == BALL else lam)
    elif spec.geometry == BALL:
        mat = np.zeros((t.dim * t.dim, t.dim * t.dim), dtype=complex)
        for m in t.mats:
            mat += np.kron(m.conj(), m)
        radius = max(abs(np.linalg.eigvals(mat)))
    else:
        radius = max(max(abs(np.linalg.eigvals(m))) for m in t.mats)
    return bool(radius < 1.0 - PURITY_MARGIN)
