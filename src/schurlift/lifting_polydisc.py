"""Lifting pipeline on the polydisc.

Feasibility of the summand decomposition of ``I - X X*`` under the
transformed positivity constraints, the induced state operators, the
colligation lift, and the power-series diagnostics of the internal
identities.

The existence theory behind the decomposition is non-constructive; here
feasibility is decided numerically by Dykstra's alternating projections
between an affine subspace (the decomposition equation plus auxiliary
variables pinned to the transformed operators) and a product of PSD
cones, run in the joint eigenbasis of the tuple, where the affine
projection is entrywise, and accelerated by Anderson extrapolation.
Failure to converge, or a tuple without a joint eigenbasis, is reported
as inconclusive and is explicitly *not* an infeasibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colligation import Colligation, build_polydisc_colligation
from .errors import DimensionMismatch
from .hypercontraction import hereditary, joint_eigenbasis
from .kernels import KernelSpec, indices_up_to, series_coeff
from .linalg import as_matrix, clip_psd, complex_pairs, herm, min_eig, opnorm
from .lifting_ball import (
    Infeasible,
    KernelSpans,
    LiftCertificate,
    LiftResult,
    _lift_preamble,
    _spectrum_values,
)
from .model_space import TupleOperator, model_tuple
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
    """PSD summands ``G_i`` of ``I - X X*``; ``squares`` holds the roots' squares
    ``transformed_positivity(s, gamma, i, G_i)``, kept out of the JSON form."""

    summands: tuple[np.ndarray, ...]
    reconstruction_residual: float
    cone_min_eigs: tuple[float, ...]
    summand_min_eigs: tuple[float, ...]
    iterations: int
    squares: tuple[np.ndarray, ...]

    def to_json_dict(self) -> dict:
        return {
            "summands": [complex_pairs(g) for g in self.summands],
            "reconstruction_residual": self.reconstruction_residual,
            "cone_min_eigs": list(self.cone_min_eigs),
            "summand_min_eigs": list(self.summand_min_eigs),
            "iterations": self.iterations,
        }


@dataclass
class Inconclusive:
    """An iterate that fails the acceptance checks: the forced summand of
    one variable, or the projected iterate at the iteration cap.  Carries
    that iterate and its residuals.  A tuple without a joint eigenbasis is
    not searched: ``iterations`` 0, ``{"joint_eigenbasis": "none"}``, no iterate."""

    iterations: int
    residuals: dict
    best: tuple[np.ndarray, ...]


#: History depth of the Anderson acceleration of the Dykstra map.
ANDERSON_DEPTH = 5


def _entry_weights(lam: np.ndarray, gamma) -> np.ndarray:
    """The symbols ``M_i[a, b] = prod_j (1 - lam_aj conj(lam_bj))^(gamma_j - delta_ij)``
    of the transformed positivity maps in a joint eigenbasis, stacked ``(n, q, q)``."""
    base = 1.0 - lam.T[:, :, None] * lam.T[:, None, :].conj()
    full = np.prod([b**g for b, g in zip(base, gamma)], axis=0)
    return full / base


def _affine_projector(weights: np.ndarray, target: np.ndarray):
    """Orthogonal projector onto ``sum_i Gamma_i = target``, ``H_i = M_i o Gamma_i``
    for stacks ``(Gamma_1..Gamma_n, H_1..H_n)`` in the Frobenius metric.

    Per entry it solves ``min sum |x_i - g_i|^2 + |m_i x_i - h_i|^2`` under
    ``sum x_i = t``: ``x_i = (g_i + conj(m_i) h_i + mu) / (1 + |m_i|^2)``,
    with ``mu`` fixed by the sum.  One projection costs O(n q^2).
    """
    n = len(weights)
    shrink = 1.0 / (1.0 + np.abs(weights) ** 2)
    total = shrink.sum(axis=0)

    def project(v):
        y = shrink * (v[:n] + weights.conj() * v[n:])
        gs = y + shrink * ((target - y.sum(axis=0)) / total)
        return np.concatenate([gs, weights * gs])

    return project


def agler_feasibility(
    s: TupleOperator,
    x: np.ndarray,
    gamma,
    *,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> AglerDecomposition | Inconclusive:
    """Search for PSD summands of ``I - X X*`` with transformed positivity.

    Success requires the reconstruction residual and every eigenvalue
    violation to fall within ``tol``.  The iteration starts from the even
    split ``(I - X X*) / n``.  For a single variable the summand is
    forced and the answer is immediate.  ``max_iter`` below 1 raises
    ``ValueError``.

    The iteration may target a right-hand side shrunk by a tiny multiple
    of the identity and add the slack back evenly afterwards, so that the
    returned summands have transforms at least ``tol`` and the downstream
    square roots need no clipping.  It does so only when the cone floor
    (the bottom eigenvalue of the transformed identity, over all ``i``)
    and ``min_eig(I - X X*)`` both exceed ``10 * tol``; otherwise the
    slack is 0 and the eigenvalue floor is ``-tol``.  The cone floor is
    often round-off: for gamma=(1,2) on ``polydisc_design(0, r)`` it is
    about 1e-14 at r=16 and negative from r=24 on.

    Dykstra runs over ``Gamma_i = V^{-1} G_i V^{-*}`` in the joint
    eigenbasis ``S_i = V Lambda_i V^{-1}`` of ``joint_eigenbasis``.  There
    the transformed positivity is the Hadamard product with ``M_i``
    (``_entry_weights``), so the affine projection is entrywise; memory is
    O(n q^2).  Only the ``H_i`` are clipped: ``1 / M_i`` is the Gram of the
    weight ``gamma - e_i`` kernel at the joint eigenvalues, so ``H_i >= 0``
    gives ``Gamma_i = (1 / M_i) o H_i >= 0`` (Schur product theorem).  The map
    ``w -> P_A(P_C w) + w - P_C w`` is Anderson-accelerated, with the
    coefficients from the normal equations: the real Gram of the last
    ``ANDERSON_DEPTH`` residual changes gains one row per step, and a
    singular Gram resets the history for the plain step.  An
    extrapolated point is kept only when its residual is no larger than
    the plain step's, else the history is reset.  A tuple without a joint
    eigenbasis returns ``Inconclusive`` at once.

    Every outcome comes from one summary of an iterate (every tenth
    iteration and at the cap), ``G_i = V Gamma_i V*`` plus the slack in
    orthonormal coordinates: the decomposition if it passes, else
    ``Inconclusive`` with the same residuals.
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
        summands = tuple(herm(g) for g in gs)
        recon = opnorm(sum(summands) - r_target)
        squares = tuple(transformed_positivity(s, gamma, i, g) for i, g in enumerate(summands))
        cone = tuple(min_eig(square) for square in squares)
        own = tuple(min_eig(g) for g in summands)
        if recon <= tol and all(e >= floor for e in cone + own):
            return AglerDecomposition(summands, recon, cone, own, iterations, squares)
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

    basis = joint_eigenbasis(s)
    if basis is None:
        return Inconclusive(iterations=0, residuals={"joint_eigenbasis": "none"}, best=())
    vecs, lam = basis
    vecs_inv = np.linalg.inv(vecs)

    def to_eig(a):
        return herm(vecs_inv @ a @ vecs_inv.conj().T)

    weights = _entry_weights(lam, gamma)
    project = _affine_projector(weights, to_eig(r_inner))

    def dykstra_map(w):
        # The affine set needs no correction term.  Returns ``F(w)``,
        # ``P_A(P_C w)``, the residual ``F(w) - w`` and its norm.
        v = np.concatenate([w[: s.n], clip_psd(w[s.n :])])
        y = project(v)
        fw = y + w - v
        res = fw - w
        return fw, y, res, np.linalg.norm(res)

    gs = to_eig(np.stack([r_target / s.n - pad] * s.n))
    w = np.concatenate([gs, weights * gs])
    fw, _, res, res_norm = dykstra_map(w)
    # Anderson acceleration (Walker-Ni): the last ``depth`` changes of the
    # residual ``F(w) - w``, as real rows oldest first, their real Gram
    # ``Re<dr_j, dr_k>``, and the changes of the map value ``F(w)``.
    res_changes = np.empty((ANDERSON_DEPTH, 2 * w.size))
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
    map_changes = np.empty((ANDERSON_DEPTH, w.size), dtype=complex)
    depth = 0
    for it in range(1, max_iter + 1):
        w_new = fw
        if depth:
            # Normal equations of min |res - sum_j c_j dr_j|; a singular
            # Gram drops the history, for the plain step.
            try:
                coef = np.linalg.solve(
                    gram[:depth, :depth], res_changes[:depth] @ res.ravel().view(float)
                )
            except np.linalg.LinAlgError:
                depth = 0
            else:
                w_new = fw - (coef @ map_changes[:depth]).reshape(w.shape)
        fw_new, y_new, res_new, res_new_norm = dykstra_map(w_new)
        # Safeguard: an extrapolation whose residual exceeds the plain
        # step's length is dropped with the history, for the plain step.
        if depth and res_new_norm > res_norm:
            depth = 0
            w_new = fw
            fw_new, y_new, res_new, res_new_norm = dykstra_map(w_new)
        if depth == ANDERSON_DEPTH:
            res_changes[:-1] = res_changes[1:]
            gram[:-1, :-1] = gram[1:, 1:]
            map_changes[:-1] = map_changes[1:]
            depth -= 1
        res_changes[depth] = (res_new - res).ravel().view(float)
        gram[depth, : depth + 1] = gram[: depth + 1, depth] = (
            res_changes[: depth + 1] @ res_changes[depth]
        )
        map_changes[depth] = (fw_new - fw).ravel()
        depth += 1
        w, fw, y, res, res_norm = w_new, fw_new, y_new, res_new, res_new_norm

        if it % 10 == 0 or it == max_iter:
            summary = summarize(vecs @ y[: s.n] @ vecs.conj().T + pad, it, floor)
            if isinstance(summary, AglerDecomposition) or it == max_iter:
                return summary


def lift_polydisc(
    t: TupleOperator, s: TupleOperator, x: np.ndarray, gamma, dec: AglerDecomposition
) -> LiftResult:
    """Build the polydisc colligation from the decomposition and lift: every
    check of ``_lift_preamble``, the defect coordinate maps from ``defect``,
    then ``_lift_polydisc``."""
    x = as_matrix(x)
    gamma = tuple(int(g) for g in gamma)
    in_map, out_map = _lift_preamble(t, s, x, KernelSpec.polydisc(gamma))
    return _lift_polydisc(s, x, gamma, dec, in_map, out_map)


def _lift_polydisc(s: TupleOperator, x: np.ndarray, gamma, dec, in_map, out_map) -> LiftResult:
    """The polydisc lift without checks, from the decomposition's ``squares`` and
    maps whose Grams are the defects of ``s`` and of the domain tuple.
    ``verify_residual`` starts as the generating residual; interpolation front
    ends overwrite it with the kernel-basis residual of the lift identity."""
    coll = build_polydisc_colligation(s, x, gamma, dec.squares, in_map=in_map, out_map=out_map)
    phi = TransferFunction(coll)
    cert = LiftCertificate(
        delta_min_eig=min(dec.cone_min_eigs),
        generating_residual=coll.generating_residual,
        verify_residual=coll.generating_residual,
    )
    return LiftResult(phi, cert, coll, spectrum_values=_spectrum_values(phi, s))


def hereditary_difference_residual(
    t: TupleOperator, s: TupleOperator, x: np.ndarray, gamma
) -> float:
    """Residual of the identity relating the coupled defects to the
    hereditary product of ``I - X X*`` (exact under intertwining)."""
    x = as_matrix(x)
    d_s = hereditary(s, gamma, np.eye(s.dim, dtype=complex))
    d_t = d_s if t is s else hereditary(t, gamma, np.eye(t.dim, dtype=complex))
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
    """Interpolation front end over polydisc kernel spans.  After the Pick
    gate, ``KernelSpans.check_lift`` runs before any search; an ``X`` the gate
    passes at a loose ``psd_base_tol`` but the bound rejects gets the gate's
    record.  The domain model tuple serves only the hereditary residual."""
    if spec.geometry != "polydisc":
        raise ValueError("np_solve_polydisc expects a polydisc kernel spec")
    spans = KernelSpans.build(spec, nodes, targets, d_target)
    contractivity, failed = spans.contractivity(psd_base_tol)
    if failed or not spans.check_lift():
        return contractivity

    s, x = spans.s, spans.x
    dec = agler_feasibility(s, x, spec.gamma, tol=feasibility_tol, max_iter=max_iter)
    if isinstance(dec, Inconclusive):
        return dec

    result = _lift_polydisc(s, x, spec.gamma, dec, **spans.coeff_maps())
    t = s if spans.q1 is spans.q2 else model_tuple(spans.q1)
    return spans.certify(
        result,
        pick_min_eig=contractivity.pick_min_eig,
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
