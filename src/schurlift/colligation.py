"""Block colligations built from generating identities.

A colligation maps a defect block plus state blocks to a defect block
plus state blocks.  It is pinned down on a spanning family of
input/output vector pairs whose Gram matrices agree (that agreement *is*
the operator identity the construction rests on), and is then completed
deterministically: to a unitary when the dimension bookkeeping permits,
to a partial isometry vanishing off the input span otherwise.  Either
completion keeps the transfer function a Schur-class contraction, and
the lift verification downstream only uses contractivity of the block
rows, so the partial-isometry fallback is operationally sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BalanceViolation, DimensionMismatch, GramMismatch, NotPositive
from .hypercontraction import cp_map
from .linalg import (
    as_matrix,
    herm,
    min_eig,
    opnorm,
    psd_sqrt,
    psd_tolerance,
    snap_partial_isometry,
    snap_unitary,
)
from .model_space import TupleOperator

BALL_ROW = "ball-row"
POLYDISC_DIAGONAL = "polydisc-diag"

UNITARY = "unitary"
PARTIAL_ISOMETRY = "partial-isometry"

#: Default agreement tolerance between input and output Gram matrices.
GRAM_TOL = 1e-9

#: Relative eigenvalue cut when extracting range coordinates.
RANK_TOL = 1e-10


@dataclass
class Colligation:
    """Completed block operator with its partition metadata.

    ``matrix`` maps ``defect_in (+) state blocks`` to
    ``defect_out (+) state blocks``.  The fields after the partition are
    certificates and construction data: the residual of the generating
    pairs under the completed operator, the operator norm, the unitarity
    defect (``None`` for partial isometries), and the coordinate maps the
    builder used (kept for the series diagnostics; not serialized).
    """

    matrix: np.ndarray
    geometry: str
    kind: str
    in_defect_dim: int
    in_state_dims: tuple[int, ...]
    out_defect_dim: int
    out_state_dims: tuple[int, ...]
    generating_residual: float
    norm: float
    unitary_defect: float | None = None
    in_map: np.ndarray | None = field(default=None, repr=False)
    out_target: np.ndarray | None = field(default=None, repr=False)
    state_in_maps: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    state_coord_maps: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    delta_min_eig: float | None = None
    delta_norm: float | None = None

    @property
    def in_dim(self) -> int:
        return self.in_defect_dim + sum(self.in_state_dims)

    @property
    def out_dim(self) -> int:
        return self.out_defect_dim + sum(self.out_state_dims)

    @property
    def block_a(self) -> np.ndarray:
        return self.matrix[: self.out_defect_dim, : self.in_defect_dim]

    @property
    def block_b(self) -> np.ndarray:
        return self.matrix[: self.out_defect_dim, self.in_defect_dim :]

    @property
    def block_c(self) -> np.ndarray:
        return self.matrix[self.out_defect_dim :, : self.in_defect_dim]

    @property
    def block_d(self) -> np.ndarray:
        return self.matrix[self.out_defect_dim :, self.in_defect_dim :]

    def b_blocks(self) -> list[np.ndarray]:
        return _split_columns(self.block_b, self.in_state_dims)

    def d_blocks(self) -> list[np.ndarray]:
        return _split_columns(self.block_d, self.in_state_dims)

    def to_json_dict(self) -> dict:
        entries = [
            [[float(v.real), float(v.imag)] for v in row] for row in self.matrix
        ]
        return {
            "geometry": self.geometry,
            "kind": self.kind,
            "in_defect_dim": self.in_defect_dim,
            "in_state_dims": list(self.in_state_dims),
            "out_defect_dim": self.out_defect_dim,
            "out_state_dims": list(self.out_state_dims),
            "entries": entries,
        }


def _split_columns(mat: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    out = []
    start = 0
    for d in dims:
        out.append(mat[:, start : start + d])
        start += d
    return out


def _orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic orthonormal complement of the column span of ``basis``.

    Gram-Schmidt over the standard basis in index order; falls back to the
    eigenvectors of the complementary projector if thresholding miscounts.
    """
    needed = dim - basis.shape[1]
    if needed <= 0:
        return np.zeros((dim, 0), dtype=complex)
    cols = [basis[:, j] for j in range(basis.shape[1])]
    kept: list[np.ndarray] = []
    for idx in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[idx] = 1.0
        for u in cols + kept:
            v = v - u * np.vdot(u, v)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            kept.append(v / norm)
            if len(kept) == needed:
                break
    if len(kept) != needed:
        proj = np.eye(dim, dtype=complex) - basis @ basis.conj().T
        w, vecs = np.linalg.eigh(herm(proj))
        kept = [vecs[:, -(j + 1)] for j in range(needed)]
    return np.column_stack(kept)


def complete_pairs(
    inputs: np.ndarray,
    outputs: np.ndarray,
    want_unitary: bool,
    *,
    gram_tol: float = GRAM_TOL,
    rank_tol: float = RANK_TOL,
) -> np.ndarray:
    """Complete the pair map ``inputs[:, j] -> outputs[:, j]`` to an operator.

    Precondition: the two Gram matrices agree within ``gram_tol``
    (relative to scale); a violation raises ``GramMismatch`` and means the
    caller's positivity data is inconsistent.  The shared Gram is
    eigendecomposed once and both sides are orthonormalized through it,
    so paired vectors land on each other.  With ``want_unitary`` (and
    equal square dimensions) the orthogonal complements are matched by a
    fixed Gram-Schmidt completion and the result is snapped to an exact
    unitary; otherwise the operator vanishes off the input span and is
    snapped to an exact partial isometry.
    """
    p = as_matrix(inputs)
    q = as_matrix(outputs)
    if p.shape[1] != q.shape[1]:
        raise DimensionMismatch(
            f"got {p.shape[1]} input vectors but {q.shape[1]} output vectors"
        )
    if p.shape[1] == 0:
        if want_unitary:
            if p.shape[0] != q.shape[0]:
                raise DimensionMismatch("unitary completion requires equal dimensions")
            return np.eye(p.shape[0], dtype=complex)
        return np.zeros((q.shape[0], p.shape[0]), dtype=complex)

    gram_in = p.conj().T @ p
    gram_out = q.conj().T @ q
    deviation = opnorm(gram_in - gram_out)
    if deviation > gram_tol * max(1.0, opnorm(gram_in)):
        raise GramMismatch(deviation)

    shared = herm((gram_in + gram_out) / 2.0)
    w, v = np.linalg.eigh(shared)
    w_max = max(float(w[-1]), 0.0)
    keep = w > rank_tol * max(w_max, 1.0)
    if not np.any(keep):
        # All pairs are numerically zero vectors.
        if want_unitary and p.shape[0] == q.shape[0]:
            return np.eye(p.shape[0], dtype=complex)
        return np.zeros((q.shape[0], p.shape[0]), dtype=complex)
    scale = w[keep] ** -0.5
    basis_in = p @ (v[:, keep] * scale)
    basis_out = q @ (v[:, keep] * scale)

    u = basis_out @ basis_in.conj().T
    if want_unitary:
        if p.shape[0] != q.shape[0]:
            raise DimensionMismatch("unitary completion requires equal dimensions")
        comp_in = _orthonormal_complement(basis_in, p.shape[0])
        comp_out = _orthonormal_complement(basis_out, q.shape[0])
        u = u + comp_out @ comp_in.conj().T
        return snap_unitary(u)
    return snap_partial_isometry(u)


def _pad_rows(mat: np.ndarray, rows: int) -> np.ndarray:
    if mat.shape[0] == rows:
        return mat
    out = np.zeros((rows, mat.shape[1]), dtype=complex)
    out[: mat.shape[0], :] = mat
    return out


def _generating_residual(u: np.ndarray, ins: np.ndarray, outs: np.ndarray) -> float:
    resid = u @ ins - outs
    if resid.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(resid, axis=0)))


def build_ball_colligation(
    s: TupleOperator,
    x: np.ndarray,
    gap: np.ndarray,
    *,
    in_map: np.ndarray,
    out_map: np.ndarray,
    force_partial: bool = False,
    gram_tol: float = GRAM_TOL,
) -> Colligation:
    """Colligation for the ball lift of the intertwiner ``x`` against ``s``.

    The generating pairs stack the defect coordinates of ``k`` and the
    gap coordinates of ``S_i* k`` on the input side against the defect
    coordinates of ``X* k`` and the gap coordinates of ``k`` on the
    output side; their Gram agreement is exactly the lifting identity,
    which is asserted before completion.  ``gap`` is the positivity gap
    ``(1 - sigma_S)^{m-1}(I - X X*)``.  ``in_map``/``out_map`` are the
    defect coordinate maps of ``s`` and of the domain tuple: any maps whose
    Grams are the two defects (``DefectData.coord_map``, or on model
    subspaces the evaluation at the origin, so the transfer function acts
    between the user coefficient spaces).

    A unitary completion is attempted only when the dimension equation
    ``(n-1) dim(state) = out defect dim - in defect dim`` admits a state
    dimension at least the rank of the positivity gap; otherwise the
    completion is a partial isometry.
    """
    x = as_matrix(x)
    q2 = s.dim
    n = s.n
    if x.shape[0] != q2:
        raise DimensionMismatch(f"intertwiner has {x.shape[0]} rows, tuple dimension is {q2}")

    gap_sq = herm(as_matrix(gap))
    if gap_sq.shape != (q2, q2):
        raise DimensionMismatch(f"gap shape {gap_sq.shape} does not match tuple dimension {q2}")
    gap_min = min_eig(gap_sq)
    if gap_min < -psd_tolerance(gap_sq):
        raise NotPositive(gap_min, context="positivity gap")
    gap_root, gap_rank, gap_basis, _ = psd_sqrt(gap_sq)
    gap_map = gap_basis.conj().T @ gap_root

    in_map = as_matrix(in_map)
    out_map = as_matrix(out_map)
    if in_map.shape[1] != q2:
        raise DimensionMismatch("input coordinate map does not match the tuple dimension")
    if out_map.shape[1] != x.shape[1]:
        raise DimensionMismatch("output coordinate map does not match the intertwiner domain")
    out_target = out_map @ x.conj().T

    # Operator identity behind the Gram agreement, asserted up front.
    lhs = in_map.conj().T @ in_map + cp_map(s, gap_sq)
    rhs = gap_sq + out_target.conj().T @ out_target
    identity_residual = opnorm(lhs - rhs)
    if identity_residual > gram_tol * max(1.0, opnorm(lhs)):
        raise GramMismatch(identity_residual, context="ball lifting identity")

    d_in = in_map.shape[0]
    d_out = out_map.shape[0]
    if force_partial:
        unitary_ok = False
        dim_state = gap_rank
    elif n == 1:
        unitary_ok = d_in == d_out
        dim_state = gap_rank
    else:
        diff = d_out - d_in
        quotient, rem = divmod(diff, n - 1) if diff >= 0 else (-1, 1)
        unitary_ok = diff >= 0 and rem == 0 and quotient >= gap_rank
        dim_state = quotient if unitary_ok else gap_rank

    adjoints = s.adjoints()
    state_ins = [_pad_rows(gap_map @ adjoints[i], dim_state) for i in range(n)]
    ins = np.vstack([in_map] + state_ins)
    outs = np.vstack([out_target, _pad_rows(gap_map, dim_state)])

    u = complete_pairs(ins, outs, unitary_ok, gram_tol=gram_tol)
    residual = _generating_residual(u, ins, outs)
    norm = opnorm(u)
    unitary_defect = None
    if unitary_ok:
        eye = np.eye(u.shape[0], dtype=complex)
        unitary_defect = max(
            opnorm(u.conj().T @ u - eye), opnorm(u @ u.conj().T - eye)
        )
    return Colligation(
        matrix=u,
        geometry=BALL_ROW,
        kind=UNITARY if unitary_ok else PARTIAL_ISOMETRY,
        in_defect_dim=d_in,
        in_state_dims=(dim_state,) * n,
        out_defect_dim=d_out,
        out_state_dims=(dim_state,),
        generating_residual=residual,
        norm=norm,
        unitary_defect=unitary_defect,
        in_map=in_map,
        out_target=out_target,
        state_in_maps=tuple(state_ins),
        state_coord_maps=(_pad_rows(gap_map, dim_state),) * n,
        delta_min_eig=gap_min,
        delta_norm=float(np.sqrt(max(opnorm(gap_sq), 0.0))),
    )


def build_polydisc_colligation(
    s: TupleOperator,
    x: np.ndarray,
    gamma,
    f_list,
    *,
    in_map: np.ndarray,
    out_map: np.ndarray,
    pad_dim: int = 0,
    force_partial: bool = False,
    balance_tol: float = 1e-8,
    gram_tol: float = GRAM_TOL,
) -> Colligation:
    """Colligation for the polydisc lift from the state operators ``f_list``.

    ``f_list`` holds the PSD operators whose squares balance the defect
    identity ``D_S^2 + sum S_i F_i^2 S_i* = X D_T^2 X* + sum F_i^2``;
    that balance is asserted within ``balance_tol`` before any
    completion.  ``in_map``/``out_map`` are coordinate maps whose Grams
    are ``D_S^2`` and ``D_T^2``.  State block ``i`` carries the range
    coordinates of ``F_i``, with the final block padded by ``pad_dim``
    spare dimensions.
    """
    x = as_matrix(x)
    gamma = tuple(int(g) for g in gamma)
    q2 = s.dim
    n = s.n
    if len(gamma) != n:
        raise DimensionMismatch(f"weight vector {gamma} does not match tuple length {n}")
    mats_f = [herm(as_matrix(f)) for f in f_list]
    if len(mats_f) != n:
        raise DimensionMismatch(f"expected {n} state operators, got {len(mats_f)}")

    in_map = as_matrix(in_map)
    out_map = as_matrix(out_map)
    out_target = out_map @ x.conj().T

    f_squares = [f @ f for f in mats_f]
    lhs = in_map.conj().T @ in_map
    rhs = out_target.conj().T @ out_target
    for i in range(n):
        lhs = lhs + s.mats[i] @ f_squares[i] @ s.mats[i].conj().T
        rhs = rhs + f_squares[i]
    balance_residual = opnorm(lhs - rhs)
    if balance_residual > balance_tol * max(1.0, opnorm(lhs)):
        raise BalanceViolation(balance_residual)

    f_maps = []
    ranks = []
    for f in mats_f:
        _, rank, basis, lam_min = psd_sqrt(f @ f)
        if lam_min < -psd_tolerance(f @ f):
            raise NotPositive(lam_min, context="state operator square")
        f_maps.append(basis.conj().T @ f)
        ranks.append(rank)

    state_dims = list(ranks)
    state_dims[-1] += pad_dim
    d_in = in_map.shape[0]
    d_out = out_map.shape[0]
    unitary_ok = (not force_partial) and d_in == d_out

    adjoints = s.adjoints()
    state_rows = []
    out_rows = []
    coord_maps = []
    for i in range(n):
        rows = state_dims[i]
        state_rows.append(_pad_rows(f_maps[i] @ adjoints[i], rows))
        out_rows.append(_pad_rows(f_maps[i], rows))
        coord_maps.append(_pad_rows(f_maps[i], rows))
    ins = np.vstack([in_map] + state_rows)
    outs = np.vstack([out_target] + out_rows)

    u = complete_pairs(ins, outs, unitary_ok, gram_tol=gram_tol)
    residual = _generating_residual(u, ins, outs)
    norm = opnorm(u)
    unitary_defect = None
    if unitary_ok:
        eye = np.eye(u.shape[0], dtype=complex)
        unitary_defect = max(
            opnorm(u.conj().T @ u - eye), opnorm(u @ u.conj().T - eye)
        )
    return Colligation(
        matrix=u,
        geometry=POLYDISC_DIAGONAL,
        kind=UNITARY if unitary_ok else PARTIAL_ISOMETRY,
        in_defect_dim=d_in,
        in_state_dims=tuple(state_dims),
        out_defect_dim=d_out,
        out_state_dims=tuple(state_dims),
        generating_residual=residual,
        norm=norm,
        unitary_defect=unitary_defect,
        in_map=in_map,
        out_target=out_target,
        state_in_maps=tuple(state_rows),
        state_coord_maps=tuple(coord_maps),
        delta_min_eig=None,
        delta_norm=None,
    )
