"""Finite co-invariant subspaces spanned by kernel functions.

A subspace is spanned by the kernel functions at a list of distinct
interior nodes, tensored with a coefficient space.  All downstream
computation happens in orthonormal coordinates obtained from a Hermitian
eigendecomposition of the Gram matrix, so adjoints and PSD checks are
plain matrix operations.  The compressed shift tuple acts diagonally on
the kernel basis through its adjoint, which is what makes the model
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IllConditioned
from .kernels import KernelSpec, kernel_matrix
from .linalg import as_matrix, block_diag, opnorm

#: Relative eigenvalue floor below which a Gram matrix is rejected.
GRAM_FLOOR = 1e-10

#: Commutator tolerance for tuples, relative to the factor norms.
COMMUTATOR_TOL = 1e-10


@dataclass
class TupleOperator:
    """A commuting tuple of square complex matrices in orthonormal coordinates."""

    mats: tuple[np.ndarray, ...]
    #: ``(mats, joint_eigenbasis(self))`` for the ``mats`` it was found for.
    eigenbasis_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = tuple(as_matrix(m) for m in self.mats)
        if not mats:
            raise ValueError("tuple must contain at least one operator")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape != (dim, dim):
                raise DimensionMismatch(
                    f"tuple entries must be square of equal size, got {[m.shape for m in mats]}"
                )
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                tol = COMMUTATOR_TOL * (1.0 + opnorm(mats[i]) * opnorm(mats[j]))
                if opnorm(comm) > tol:
                    raise ValueError(
                        f"operators {i} and {j} do not commute: ||[T_i,T_j]|| = {opnorm(comm):.3e}"
                    )
        object.__setattr__(self, "mats", mats)

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.mats[i]

    def adjoints(self) -> tuple[np.ndarray, ...]:
        return tuple(m.conj().T for m in self.mats)


@dataclass
class KernelSubspace:
    """Kernel-function span in orthonormal coordinates.

    ``gram`` carries blocks ``K(z_a, z_b) I_d`` (row index ``a``), and
    ``ortho_factor`` is the matrix ``L`` with ``L* G L = I`` mapping
    orthonormal coordinates back to kernel-basis coefficients.
    """

    spec: KernelSpec
    nodes: tuple[tuple[complex, ...], ...]
    gram: np.ndarray
    ortho_factor: np.ndarray
    ortho_factor_inv: np.ndarray
    gram_cond: float
    dim: int = field(init=False)

    def __post_init__(self):
        self.dim = self.gram.shape[0]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def eval_map(self, z) -> np.ndarray:
        """Matrix sending orthonormal coordinates to the function value at ``z``."""
        return self.eval_many([z])[0]

    def eval_many(self, points) -> np.ndarray:
        """``eval_map`` at each point, stacked as ``(k, d, dim)``.

        One ``kernel_matrix`` call gives the kernel rows; each row, tensored
        with ``I_d``, takes one stacked product with ``ortho_factor``.
        """
        d = self.spec.d_coeff
        rows = kernel_matrix(self.spec, points, self.nodes)
        blocks = rows[:, None, :, None] * np.eye(d)[None, :, None, :]
        return blocks.reshape(len(rows), d, self.dim) @ self.ortho_factor

    def coeff_map_at_zero(self) -> np.ndarray:
        """Evaluation at the origin; its Gram reproduces the hereditary defect."""
        d = self.spec.d_coeff
        row = np.hstack([np.eye(d, dtype=complex)] * self.node_count)
        return row @ self.ortho_factor


def build_subspace(spec: KernelSpec, nodes) -> KernelSubspace:
    """Assemble the Gram matrix at the nodes and orthonormalize it.

    Raises ``IllConditioned`` when the smallest Gram eigenvalue falls
    below ``GRAM_FLOOR`` times the largest (coincident or clustered
    nodes), and ``DomainViolation`` for nodes on or outside the boundary.
    """
    node_list = [tuple(z) for z in spec.interior_points(nodes)]
    if not node_list:
        raise ValueError("at least one node is required")
    r = len(node_list)
    for a in range(r):
        for b in range(a + 1, r):
            if node_list[a] == node_list[b]:
                raise ValueError(f"nodes {a} and {b} coincide")

    kernel = kernel_matrix(spec, node_list, node_list)
    gram = np.kron(kernel, np.eye(spec.d_coeff))
    gram = (gram + gram.conj().T) / 2.0

    w, v = np.linalg.eigh(gram)
    w_min, w_max = float(w[0]), float(w[-1])
    if w_min < GRAM_FLOOR * w_max:
        raise IllConditioned(
            f"Gram matrix nearly singular: min eig {w_min:.3e}, max eig {w_max:.3e}",
            min_eig=w_min,
            max_eig=w_max,
        )
    ortho = v * (w**-0.5)
    ortho_inv = (v * (w**0.5)).conj().T
    return KernelSubspace(
        spec=spec,
        nodes=tuple(node_list),
        gram=gram,
        ortho_factor=ortho,
        ortho_factor_inv=ortho_inv,
        gram_cond=w_max / w_min,
    )


def model_tuple(space: KernelSubspace) -> TupleOperator:
    """Compressed coordinate shifts on the span.

    The adjoint of entry ``i`` acts on kernel coefficients by
    ``diag(conj z_.i) (x) I_d``; transported through the orthonormalizing
    factor ``L`` it is ``L^{-1} (diag(conj z_.i) (x) I_d) L``.

    So ``S_i L* = L* (diag(z_.i) (x) I_d)``: the columns of ``L*``, scaled
    to unit norm, are a joint eigenbasis, and the nodes, each ``d`` times,
    the joint eigenvalues.  The tuple carries both as read-only arrays.
    """
    lam = np.repeat(np.asarray(space.nodes, dtype=complex), space.spec.d_coeff, axis=0)
    ortho, ortho_inv = space.ortho_factor, space.ortho_factor_inv
    mats = []
    for i in range(space.spec.n):
        mats.append((ortho_inv @ (lam[:, i, None].conj() * ortho)).conj().T)
    t = TupleOperator(tuple(mats))
    vecs = ortho.conj().T / np.linalg.norm(ortho, axis=1)
    vecs.flags.writeable = lam.flags.writeable = False
    t.eigenbasis_cache = (t.mats, (vecs, lam))
    return t


def np_target_operator(
    domain: KernelSubspace, targets, codomain: KernelSubspace
) -> np.ndarray:
    """Interpolation operator ``X`` from target matrices, in orthonormal coordinates.

    ``X*`` sends the codomain kernel vector at node ``j`` with coefficient
    ``eta`` to the domain kernel vector at the same node with coefficient
    ``W_j* eta``, so ``X`` intertwines the two model tuples exactly by
    construction.  Targets are ``d_codomain x d_domain`` matrices, one per
    node.
    """
    if domain.nodes != codomain.nodes:
        raise DimensionMismatch("domain and codomain must be built on the same nodes")
    d_in = domain.spec.d_coeff
    d_out = codomain.spec.d_coeff
    mats = [as_matrix(w) for w in targets]
    if len(mats) != domain.node_count:
        raise DimensionMismatch(
            f"got {len(mats)} targets for {domain.node_count} nodes"
        )
    for j, w in enumerate(mats):
        if w.shape != (d_out, d_in):
            raise DimensionMismatch(
                f"target {j} has shape {w.shape}, expected {(d_out, d_in)}"
            )
    adj_kernel = block_diag([w.conj().T for w in mats])
    adj = domain.ortho_factor_inv @ adj_kernel @ codomain.ortho_factor
    return adj.conj().T


def multiplier_adjoint_action(
    space: KernelSubspace, values, domain: KernelSubspace | None = None
) -> np.ndarray:
    """Matrix of the compressed multiplier adjoint on the span.

    ``values`` are the multiplier's values ``phi(z_j)`` at the nodes, an array
    ``(node_count, d_space, d_domain)``.  The adjoint of multiplication by
    ``phi`` sends the kernel vector at node ``z_j`` with coefficient ``eta``
    to the kernel vector at ``z_j`` with coefficient ``phi(z_j)* eta``; the
    result is that blockwise action transported to orthonormal coordinates.
    """
    if domain is None:
        domain = space
    if domain.nodes != space.nodes:
        raise DimensionMismatch("spaces must share their nodes")
    expected = (space.node_count, space.spec.d_coeff, domain.spec.d_coeff)
    if values.shape != expected:
        raise DimensionMismatch(f"node values have shape {values.shape}, expected {expected}")
    blocks = list(values.conj().swapaxes(-1, -2))
    return domain.ortho_factor_inv @ block_diag(blocks) @ space.ortho_factor
