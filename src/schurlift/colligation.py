"""Block colligations built from generating identities.

A colligation maps a defect block plus state blocks to a defect block
plus state blocks.  It is pinned down on a spanning family of
input/output vector pairs whose Gram matrices agree (that agreement *is*
the operator identity the construction rests on).  On the pair span it
is the orthogonal Procrustes map of the pairs, from one SVD: the exact
pair map when the Grams agree, and one whose generating residual a small
Gram mismatch raises only slightly, however small the pair Gram's
eigenvalues are.  It is then completed deterministically: to a unitary
when the dimension bookkeeping permits; otherwise it stays the partial
isometry that vanishes off the input span.  Either completion keeps the
transfer function a Schur-class contraction, and the lift verification
downstream only uses contractivity of the block rows, so the
partial-isometry fallback is operationally sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GramMismatch
from .linalg import as_matrix, checked_sqrt, complex_pairs, herm, opnorm, snap_unitary
from .model_space import TupleOperator

BALL_ROW = "ball-row"
POLYDISC_DIAGONAL = "polydisc-diag"

UNITARY = "unitary"
PARTIAL_ISOMETRY = "partial-isometry"

#: Agreement tolerance between input and output Gram matrices, relative
#: to ``max(1, ||input Gram||)``.
GRAM_TOL = 1e-9

#: Relative singular-value cut of the pair map ``outputs inputs*``.
RANK_TOL = 1e-15


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
        return {
            "geometry": self.geometry,
            "kind": self.kind,
            "in_defect_dim": self.in_defect_dim,
            "in_state_dims": list(self.in_state_dims),
            "out_defect_dim": self.out_defect_dim,
            "out_state_dims": list(self.out_state_dims),
            "entries": complex_pairs(self.matrix),
        }


def _split_columns(mat: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    out = []
    start = 0
    for d in dims:
        out.append(mat[:, start : start + d])
        start += d
    return out


def _orthonormal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic orthonormal complement of the column span of ``basis``
    (orthonormal columns).

    Gram-Schmidt over the standard basis in index order, keeping residuals
    above 1e-6: each candidate is orthogonalized against the columns held
    so far by two matrix-vector passes (classical Gram-Schmidt, run
    twice; the first reads a row of the held columns).  The second pass
    restores the orthogonality that one pass loses when a candidate keeps
    only a small residual.  It cannot end short: a unit ``u`` orthogonal
    to a smaller final span would have every ``|u_idx| <= 1e-6``, so
    ``1 <= dim * 1e-12``.
    """
    start = held = basis.shape[1]
    if held >= dim:
        return np.zeros((dim, 0), dtype=complex)
    cols = np.empty((dim, dim), dtype=complex)
    cols[:, :held] = basis
    for idx in range(dim):
        q = cols[:, :held]
        v = -q @ q[idx].conj()
        v[idx] += 1.0
        v -= q @ (q.conj().T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            cols[:, held] = v / norm
            held += 1
            if held == dim:
                break
    return cols[:, start:held]


def complete_pairs(
    inputs: np.ndarray,
    outputs: np.ndarray,
    want_unitary: bool,
) -> np.ndarray:
    """Complete the pair map ``inputs[:, j] -> outputs[:, j]`` to an operator.

    Precondition: the two Gram matrices agree within ``GRAM_TOL``
    (relative to scale); a violation raises ``GramMismatch`` and means the
    caller's positivity data is inconsistent.  The map on the pair span is
    the orthogonal Procrustes solution ``A_r B_r*`` (Schonemann 1966) from
    one thin SVD ``A S B* = outputs inputs*``, keeping the singular values
    above ``RANK_TOL * max(s_max, 1)``; it is a partial isometry vanishing
    off ``range(B_r)``, returned as is unless ``want_unitary``.  With
    ``want_unitary`` (equal dimensions required) the orthogonal
    complements of ``range(B_r)`` and ``range(A_r)`` are matched by a fixed
    Gram-Schmidt completion and the sum is snapped to an exact unitary.
    """
    p = as_matrix(inputs)
    q = as_matrix(outputs)
    if p.shape[1] != q.shape[1]:
        raise DimensionMismatch(
            f"got {p.shape[1]} input vectors but {q.shape[1]} output vectors"
        )
    if want_unitary and p.shape[0] != q.shape[0]:
        raise DimensionMismatch("unitary completion requires equal dimensions")
    gram_in = p.conj().T @ p
    deviation = opnorm(gram_in - q.conj().T @ q)
    if deviation > GRAM_TOL * max(1.0, opnorm(gram_in)):
        raise GramMismatch(deviation)

    a, s, bh = np.linalg.svd(q @ p.conj().T, full_matrices=False)
    keep = s > RANK_TOL * s.max(initial=1.0)
    a, bh = a[:, keep], bh[keep]
    u = a @ bh
    if not want_unitary:
        return u
    comp_in = _orthonormal_complement(bh.conj().T, p.shape[0])
    comp_out = _orthonormal_complement(a, q.shape[0])
    return snap_unitary(u + comp_out @ comp_in.conj().T)


def _pad_rows(mat: np.ndarray, rows: int) -> np.ndarray:
    if mat.shape[0] == rows:
        return mat
    out = np.zeros((rows, mat.shape[1]), dtype=complex)
    out[: mat.shape[0], :] = mat
    return out


def _complete(
    geometry: str,
    in_map: np.ndarray,
    out_target: np.ndarray,
    state_ins: list[np.ndarray],
    state_outs: list[np.ndarray],
    state_coord_maps: tuple[np.ndarray, ...],
    unitary_ok: bool,
    **certificates,
) -> Colligation:
    """Complete the generating pairs of either geometry to a colligation.

    The input side stacks ``in_map`` over the ``state_ins`` blocks, the
    output side ``out_target`` over the ``state_outs`` blocks; the block
    row counts are the state dimensions.  ``complete_pairs`` checks the
    Gram agreement once and raises ``GramMismatch`` when it fails.
    """
    ins = np.vstack([in_map] + state_ins)
    outs = np.vstack([out_target] + state_outs)
    u = complete_pairs(ins, outs, unitary_ok)
    resid = u @ ins - outs
    residual = float(np.max(np.linalg.norm(resid, axis=0))) if resid.size else 0.0
    unitary_defect = None
    if unitary_ok:
        eye = np.eye(u.shape[0], dtype=complex)
        unitary_defect = max(
            opnorm(u.conj().T @ u - eye), opnorm(u @ u.conj().T - eye)
        )
    return Colligation(
        matrix=u,
        geometry=geometry,
        kind=UNITARY if unitary_ok else PARTIAL_ISOMETRY,
        in_defect_dim=in_map.shape[0],
        in_state_dims=tuple(block.shape[0] for block in state_ins),
        out_defect_dim=out_target.shape[0],
        out_state_dims=tuple(block.shape[0] for block in state_outs),
        generating_residual=residual,
        norm=opnorm(u),
        unitary_defect=unitary_defect,
        in_map=in_map,
        out_target=out_target,
        state_coord_maps=state_coord_maps,
        **certificates,
    )


def build_ball_colligation(
    s: TupleOperator,
    x: np.ndarray,
    gap: np.ndarray,
    *,
    in_map: np.ndarray,
    out_map: np.ndarray,
) -> Colligation:
    """Colligation for the ball lift of the intertwiner ``x`` against ``s``.

    The generating pairs stack the defect coordinates of ``k`` and the
    gap coordinates of ``S_i* k`` on the input side against the defect
    coordinates of ``X* k`` and the gap coordinates of ``k`` on the
    output side; their Gram agreement is exactly the lifting identity,
    which the completion checks.  ``gap`` is the positivity gap
    ``(1 - sigma_S)^{m-1}(I - X X*)``; one ``checked_sqrt`` tests it
    (``NotPositive`` otherwise) and gives its bottom eigenvalue, its range
    coordinates and its norm, the square of ``delta_norm``.  ``in_map``/``out_map`` are the
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
    gap_root, gap_rank, gap_basis, gap_min, gap_norm = checked_sqrt(gap_sq, "positivity gap")
    gap_map = gap_basis.conj().T @ gap_root

    in_map = as_matrix(in_map)
    out_map = as_matrix(out_map)
    if in_map.shape[1] != q2:
        raise DimensionMismatch("input coordinate map does not match the tuple dimension")
    if out_map.shape[1] != x.shape[1]:
        raise DimensionMismatch("output coordinate map does not match the intertwiner domain")

    d_in = in_map.shape[0]
    d_out = out_map.shape[0]
    if n == 1:
        unitary_ok = d_in == d_out
        dim_state = gap_rank
    else:
        diff = d_out - d_in
        quotient, rem = divmod(diff, n - 1) if diff >= 0 else (-1, 1)
        unitary_ok = diff >= 0 and rem == 0 and quotient >= gap_rank
        dim_state = quotient if unitary_ok else gap_rank

    state_out = _pad_rows(gap_map, dim_state)
    return _complete(
        BALL_ROW,
        in_map,
        out_map @ x.conj().T,
        [_pad_rows(gap_map @ adj, dim_state) for adj in s.adjoints()],
        [state_out],
        (state_out,) * n,
        unitary_ok,
        delta_min_eig=gap_min,
        delta_norm=float(np.sqrt(gap_norm)),
    )


def build_polydisc_colligation(
    s: TupleOperator,
    x: np.ndarray,
    gamma,
    squares,
    *,
    in_map: np.ndarray,
    out_map: np.ndarray,
) -> Colligation:
    """Colligation for the polydisc lift from the transformed summands.

    ``squares`` holds the PSD operators ``F_i^2`` that balance the defect
    identity ``D_S^2 + sum S_i F_i^2 S_i* = X D_T^2 X* + sum F_i^2``;
    that balance is the Gram agreement the completion checks.  Each must
    pass the PSD test of ``checked_sqrt`` (``NotPositive`` otherwise), and
    state block ``i`` carries the range coordinates of ``F_i``, from that
    one ``checked_sqrt`` of ``F_i^2``.  ``in_map``/``out_map`` are coordinate maps
    whose Grams are ``D_S^2`` and ``D_T^2``.  The completion is unitary
    when the two defect dimensions agree.
    """
    x = as_matrix(x)
    gamma = tuple(int(g) for g in gamma)
    n = s.n
    if len(gamma) != n:
        raise DimensionMismatch(f"weight vector {gamma} does not match tuple length {n}")
    squares = [as_matrix(square) for square in squares]
    if len(squares) != n:
        raise DimensionMismatch(f"expected {n} transformed summands, got {len(squares)}")

    in_map = as_matrix(in_map)
    out_map = as_matrix(out_map)
    state_ins = []
    f_maps = []
    for i, (square, adj) in enumerate(zip(squares, s.adjoints())):
        root, _, basis, _, _ = checked_sqrt(square, f"transformed summand {i}")
        f_map = basis.conj().T @ root
        state_ins.append(f_map @ adj)
        f_maps.append(f_map)
    return _complete(
        POLYDISC_DIAGONAL,
        in_map,
        out_map @ x.conj().T,
        state_ins,
        f_maps,
        tuple(f_maps),
        in_map.shape[0] == out_map.shape[0],
    )
