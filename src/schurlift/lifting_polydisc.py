"""Lifting pipeline on the polydisc.

Feasibility of the summand decomposition of ``I - X X*`` under the
transformed positivity constraints, the induced state operators, the
colligation lift, and the power-series diagnostics of the internal
identities.

The existence theory behind the decomposition is non-constructive; here
feasibility is decided numerically by Dykstra's alternating projections
between an affine subspace (the decomposition equation plus auxiliary
variables pinned to the transformed operators) and a product of PSD
cones.  Failure to converge is reported as inconclusive and is
explicitly *not* an infeasibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colligation import Colligation, build_polydisc_colligation
from .errors import DimensionMismatch
from .hypercontraction import hereditary
from .kernels import KernelSpec, indices_up_to, series_coeff
from .linalg import as_matrix, checked_sqrt, clip_psd, herm, min_eig, opnorm
from .lifting_ball import (
    Infeasible,
    KernelSpans,
    LiftCertificate,
    LiftResult,
    _lift_preamble,
)
from .model_space import TupleOperator
from .transfer import TransferFunction


def transformed_positivity(s: TupleOperator, gamma, i: int, a: np.ndarray) -> np.ndarray:
    """``prod_{j != i} (1 - C_{S_j})^{gamma_j} (1 - C_{S_i})^{gamma_i - 1}`` applied to ``a``.

    ``a`` may be one matrix or a stack ``(..., q, q)``; the conjugations
    broadcast over the stack.
    """
    powers = [int(g) for g in gamma]
    powers[i] -= 1
    return hereditary(s, powers, a)


@dataclass
class AglerDecomposition:
    summands: tuple[np.ndarray, ...]
    reconstruction_residual: float
    cone_min_eigs: tuple[float, ...]
    summand_min_eigs: tuple[float, ...]
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "summands": [
                [[[float(v.real), float(v.imag)] for v in row] for row in g]
                for g in self.summands
            ],
            "reconstruction_residual": self.reconstruction_residual,
            "cone_min_eigs": list(self.cone_min_eigs),
            "summand_min_eigs": list(self.summand_min_eigs),
            "iterations": self.iterations,
        }


@dataclass
class Inconclusive:
    """An iterate that fails the acceptance checks: the forced summand of
    one variable, or the projected iterate at the iteration cap.  Carries
    that iterate and its residuals."""

    iterations: int
    residuals: dict
    best: tuple[np.ndarray, ...]


# --- Hermitian <-> real vector parametrization (Frobenius-isometric) ---
#
# A Hermitian ``q x q`` matrix maps to ``q^2`` reals: the diagonal, then
# sqrt(2) Re and sqrt(2) Im of the strict upper triangle, row-major.
# Both maps act on one matrix or on a stack ``(..., q, q)``.

_SQRT2 = np.sqrt(2.0)


def _herm_to_vec(a: np.ndarray) -> np.ndarray:
    iu, ju = np.triu_indices(a.shape[-1], 1)
    upper = a[..., iu, ju]
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    return np.concatenate([diag, upper.real * _SQRT2, upper.imag * _SQRT2], axis=-1)


def _vec_to_herm(v: np.ndarray, q: int) -> np.ndarray:
    iu, ju = np.triu_indices(q, 1)
    off = iu.size
    a = np.zeros(v.shape[:-1] + (q, q), dtype=complex)
    diag = np.arange(q)
    a[..., diag, diag] = v[..., :q]
    upper = v[..., q : q + off] / _SQRT2 + 1j * (v[..., q + off :] / _SQRT2)
    a[..., iu, ju] = upper
    a[..., ju, iu] = upper.conj()
    return a


class _AffineProjector:
    """Orthogonal projector onto the affine set

    ``sum_i G_i = R`` and ``H_i = L_i(G_i)`` for all ``i``,

    over the variables ``(G_1..G_n, H_1..H_n)`` in the Frobenius-isometric
    real parametrization.  Substituting ``H_i = L_i G_i`` leaves the
    least-squares problem ``min sum |G_i - g_i|^2 + |L_i G_i - h_i|^2``
    under ``sum G_i = R``, whose solution is

    ``G_i = y_i + N_i^{-1} mu``, ``y_i = N_i^{-1}(g_i + L_i^T h_i)``,
    ``mu = K^{-1}(R - sum y_i)``,

    with ``N_i = I + L_i^T L_i`` and ``K = sum N_i^{-1}`` (symmetric
    positive definite, ``q^2``-square).  The build costs ``n + 1``
    inversions of size ``q^2``; each projection is ``4n + 1``
    matrix-vector products of that size.
    """

    def __init__(self, s: TupleOperator, gamma, r_target: np.ndarray):
        self.n = s.n
        self.q_real = s.dim * s.dim
        basis = _vec_to_herm(np.eye(self.q_real), s.dim)
        # Column b of L_i is the transform of the b-th basis matrix.
        self.l = np.stack(
            [_herm_to_vec(transformed_positivity(s, gamma, i, basis)).T for i in range(self.n)]
        )
        self.l_t = np.swapaxes(self.l, -1, -2)
        self.n_inv = np.linalg.inv(np.eye(self.q_real) + self.l_t @ self.l)
        self.k_inv = np.linalg.inv(self.n_inv.sum(axis=0))
        self.b = _herm_to_vec(r_target)

    def project(self, v: np.ndarray) -> np.ndarray:
        g, h = v.reshape(2, self.n, self.q_real)
        y = _matvec(self.n_inv, g + _matvec(self.l_t, h))
        mu = self.k_inv @ (self.b - y.sum(axis=0))
        gs = y + self.n_inv @ mu
        return np.concatenate([gs, _matvec(self.l, gs)]).ravel()


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Products ``mats[i] @ vecs[i]`` over a stack."""
    return (mats @ vecs[..., None])[..., 0]


def agler_feasibility(
    s: TupleOperator,
    x: np.ndarray,
    gamma,
    *,
    tol: float = 1e-8,
    max_iter: int = 10000,
    initial=None,
) -> AglerDecomposition | Inconclusive:
    """Search for PSD summands of ``I - X X*`` with transformed positivity.

    Success requires the reconstruction residual and every eigenvalue
    violation to fall within ``tol``.  ``initial`` warm-starts the
    iteration from known summands.  For a single variable the summand is
    forced and the answer is immediate.  ``max_iter`` below 1 raises
    ``ValueError``.

    The iteration may target a right-hand side shrunk by a tiny multiple
    of the identity and add the slack back evenly afterwards, so that the
    returned summands have transforms at least ``tol`` and the downstream
    square roots need no clipping.  It does so only when the cone floor
    (the bottom eigenvalue of the transformed identity, over all ``i``)
    and ``min_eig(I - X X*)`` both exceed ``10 * tol``; otherwise the
    slack is 0 and the eigenvalue floor is ``-tol``.  The cone floor is
    often round-off: for gamma=(1,2) on the benchmark's node design
    ``polydisc_design(0, r)`` it is about 1e-14 at r=16 and negative
    from r=24 on, so such instances run without slack.

    Every outcome comes from one summary of an iterate: the decomposition
    if it passes, else ``Inconclusive`` with the same residuals.
    """
    x = as_matrix(x)
    gamma = tuple(int(g) for g in gamma)
    q = s.dim
    if len(gamma) != s.n:
        raise DimensionMismatch(f"weight vector {gamma} does not match tuple length {s.n}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    r_target = herm(np.eye(q, dtype=complex) - x @ x.conj().T)

    def summarize(gs, iterations, floor):
        recon = opnorm(sum(gs) - r_target)
        cone = tuple(min_eig(transformed_positivity(s, gamma, i, gs[i])) for i in range(s.n))
        own = tuple(min_eig(g) for g in gs)
        summands = tuple(herm(g) for g in gs)
        if recon <= tol and all(e >= floor for e in cone + own):
            return AglerDecomposition(summands, recon, cone, own, iterations)
        residuals = {
            "reconstruction": recon,
            "cone_min_eigs": list(cone),
            "summand_min_eigs": list(own),
        }
        return Inconclusive(iterations=iterations, residuals=residuals, best=summands)

    if s.n == 1:
        return summarize([r_target], 1, -tol)

    # Slack that survives the iteration's eigenvalue tolerance: the cone
    # floor of the identity tells how much headroom evenly added slack buys.
    # The shrunk right-hand side must itself stay PSD, so boundary cases
    # (an isometric intertwiner direction) fall back to no slack.
    cone_floor = min(
        min_eig(transformed_positivity(s, gamma, i, np.eye(q, dtype=complex)))
        for i in range(s.n)
    )
    r_floor = min_eig(r_target)
    if cone_floor > 10.0 * tol and r_floor > 10.0 * tol:
        slack = min(
            4.0 * s.n * tol / cone_floor,
            r_floor / 2.0,
            1e-6 * (1.0 + opnorm(r_target)),
        )
    else:
        slack = 0.0
    r_inner = r_target - slack * np.eye(q, dtype=complex)
    pad = (slack / s.n) * np.eye(q, dtype=complex)
    # With slack active, insist on strict interiority so the state
    # operator square roots downstream never clip an eigenvalue.
    floor = tol if slack > 0.0 else -tol

    projector = _AffineProjector(s, gamma, r_inner)
    if initial is not None:
        gs = [herm(as_matrix(g)) - pad for g in initial]
    else:
        gs = [r_inner / s.n for _ in range(s.n)]
    hs = [transformed_positivity(s, gamma, i, gs[i]) for i in range(s.n)]
    v = _herm_to_vec(np.stack(gs + hs)).ravel()
    correction = np.zeros_like(v)

    def unpack(vec):
        return _vec_to_herm(vec.reshape(2 * s.n, -1), q)

    for it in range(1, max_iter + 1):
        w = projector.project(v) + correction
        # One stacked cone projection for all G_i and H_i.
        v_new = _herm_to_vec(clip_psd(unpack(w))).ravel()
        correction = w - v_new
        v = v_new

        if it % 10 == 0 or it == max_iter:
            gs_y = unpack(projector.project(v))[: s.n]
            summary = summarize([g + pad for g in gs_y], it, floor)
            if isinstance(summary, AglerDecomposition) or it == max_iter:
                return summary


def _transformed_summands(s: TupleOperator, gamma, dec: AglerDecomposition) -> list[np.ndarray]:
    """The squares ``F_i^2``: summand ``i`` under the transformed positivity map."""
    return [transformed_positivity(s, gamma, i, g) for i, g in enumerate(dec.summands)]


def f_operators(s: TupleOperator, gamma, dec: AglerDecomposition) -> list[np.ndarray]:
    """PSD square roots ``F_i`` of the transformed summands, the state
    operators of the colligation; ``NotPositive`` if a summand is not PSD."""
    return [
        checked_sqrt(square, f"transformed summand {i}")[0]
        for i, square in enumerate(_transformed_summands(s, gamma, dec))
    ]


def lift_polydisc(
    t: TupleOperator,
    s: TupleOperator,
    x: np.ndarray,
    gamma,
    dec: AglerDecomposition,
    *,
    in_map: np.ndarray | None = None,
    out_map: np.ndarray | None = None,
) -> LiftResult:
    """Build the polydisc colligation from the decomposition and lift.

    ``in_map``/``out_map`` are the defect coordinate maps of ``s`` and
    ``t``; a map that is not given comes from ``defect``.  Kernel spans
    pass their evaluation at the origin, whose Gram is the defect.  The
    certificate's ``verify_residual`` starts as the generating residual;
    interpolation front ends overwrite it with the kernel-basis residual
    of the lift identity.
    """
    x = as_matrix(x)
    gamma = tuple(int(g) for g in gamma)
    in_map, out_map = _lift_preamble(t, s, x, KernelSpec.polydisc(gamma), in_map, out_map)

    squares = _transformed_summands(s, gamma, dec)
    coll = build_polydisc_colligation(s, x, gamma, squares, in_map=in_map, out_map=out_map)
    phi = TransferFunction(coll)
    cert = LiftCertificate(
        delta_min_eig=min(dec.cone_min_eigs),
        generating_residual=coll.generating_residual,
        verify_residual=coll.generating_residual,
    )
    return LiftResult(phi=phi, certificate=cert, colligation=coll)


def hereditary_difference_residual(
    t: TupleOperator, s: TupleOperator, x: np.ndarray, gamma
) -> float:
    """Residual of the identity relating the coupled defects to the
    hereditary product of ``I - X X*`` (exact under intertwining)."""
    x = as_matrix(x)
    d_s = hereditary(s, gamma, np.eye(s.dim, dtype=complex))
    d_t = hereditary(t, gamma, np.eye(t.dim, dtype=complex))
    lhs = d_s - x @ d_t @ x.conj().T
    rhs = hereditary(s, gamma, np.eye(s.dim, dtype=complex) - x @ x.conj().T)
    return opnorm(lhs - rhs)


def np_solve_polydisc(
    spec: KernelSpec,
    nodes,
    targets,
    *,
    d_target: int | None = None,
    psd_base_tol: float = 1e-9,
    feasibility_tol: float = 1e-10,
    max_iter: int = 10000,
) -> LiftResult | Infeasible | Inconclusive:
    """Interpolation front end over polydisc kernel spans."""
    if spec.geometry != "polydisc":
        raise ValueError("np_solve_polydisc expects a polydisc kernel spec")
    spans = KernelSpans.build(spec, nodes, targets, d_target)
    pick_min, infeasible = spans.contractivity(psd_base_tol)
    if infeasible is not None:
        return infeasible

    t, s, x = spans.t, spans.s, spans.x
    dec = agler_feasibility(s, x, spec.gamma, tol=feasibility_tol, max_iter=max_iter)
    if isinstance(dec, Inconclusive):
        return dec

    result = lift_polydisc(t, s, x, spec.gamma, dec, **spans.coeff_maps())
    return spans.certify(
        result,
        pick_min_eig=pick_min,
        decomposition=dec,
        hereditary_difference_residual=hereditary_difference_residual(t, s, x, spec.gamma),
    )


@dataclass
class PsiDiagnostics:
    gamma_norms: tuple[float, ...]
    embed_residual: float
    psi_norm: float
    degree: int


def psi_gamma_diagnostics(
    coll: Colligation, s: TupleOperator, gamma, degree: int
) -> PsiDiagnostics:
    """Power-series diagnostics of the internal lift identities.

    The resolvent column of the colligation adjoint is expanded to the
    given degree by the multi-degree coefficient recursion, then paired
    back through the dilation coefficients of ``s``.  Reported are the
    per-block residuals against the state coordinate maps (these decay
    geometrically in the degree when the lift is correct), the recursion
    residual of the structural identity ``Psi = embed C* + sum_j
    shift_j Psi_j D_j*`` (exact per degree), and the operator norm of
    the truncated row (a contraction up to truncation).
    """
    if coll.in_map is None or coll.state_coord_maps is None:
        raise ValueError("colligation lacks its construction maps")
    gamma = tuple(int(g) for g in gamma)
    n = len(coll.in_state_dims)
    if len(gamma) != n:
        raise DimensionMismatch(f"weight vector {gamma} does not match the state blocks")
    spec = KernelSpec.polydisc(gamma)
    state_dim = sum(coll.in_state_dims)
    d_adj = coll.block_d.conj().T
    c_adj = coll.block_c.conj().T  # coefficient space <- state space

    # Row selectors per state block.
    masks = []
    start = 0
    for dim in coll.in_state_dims:
        mask = np.zeros(state_dim)
        mask[start : start + dim] = 1.0
        masks.append(mask)
        start += dim
    jd = [m[:, None] * d_adj for m in masks]

    order = indices_up_to(n, degree)
    resolvent: dict = {}
    coeffs: dict = {}
    s_pow: dict = {(0,) * n: np.eye(s.dim, dtype=complex)}
    in_adj = coll.in_map.conj().T

    paired = np.zeros((s.dim, state_dim), dtype=complex)
    psi_gram = np.zeros((state_dim, state_dim), dtype=complex)
    embed_residual = 0.0
    for k in order:
        if sum(k) == 0:
            resolvent[k] = np.eye(state_dim, dtype=complex)
        else:
            acc = np.zeros((state_dim, state_dim), dtype=complex)
            for i in range(n):
                if k[i] > 0:
                    prev = list(k)
                    prev[i] -= 1
                    acc += jd[i] @ resolvent[tuple(prev)]
            resolvent[k] = acc
            i = next(idx for idx, e in enumerate(k) if e > 0)
            prev = list(k)
            prev[i] -= 1
            s_pow[k] = s.mats[i] @ s_pow[tuple(prev)]
        a_k = c_adj @ resolvent[k]
        coeffs[k] = a_k
        paired += s_pow[k] @ in_adj @ a_k
        psi_gram += (a_k.conj().T @ a_k) / series_coeff(spec, k)
        if sum(k) > 0:
            rhs = np.zeros_like(a_k)
            for j in range(n):
                if k[j] > 0:
                    prev = list(k)
                    prev[j] -= 1
                    rhs += coeffs[tuple(prev)] @ jd[j]
            embed_residual = max(embed_residual, opnorm(a_k - rhs))

    gamma_norms = []
    start = 0
    for i, dim in enumerate(coll.in_state_dims):
        block = paired[:, start : start + dim]
        gamma_norms.append(opnorm(coll.state_coord_maps[i].conj().T - block))
        start += dim
    psi_norm = float(np.sqrt(max(opnorm(psi_gram), 0.0)))
    return PsiDiagnostics(
        gamma_norms=tuple(gamma_norms),
        embed_residual=embed_residual,
        psi_norm=psi_norm,
        degree=degree,
    )
