"""Lifting pipeline on the ball.

Positivity check, colligation lift with verification, the interpolation
front end over kernel spans, the dilation route from a higher weight to
a lower one with its composite lift.  ``factorization_criterion`` is
re-exported from ``transfer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .colligation import Colligation, build_ball_colligation
from .errors import (
    DimensionMismatch,
    NotContraction,
    NotIntertwining,
    NotPositive,
    NotPure,
)
from .hypercontraction import defect, hereditary, is_pure, joint_eigenbasis
from .kernels import KernelSpec, kernel_matrix
from .linalg import as_matrix, herm, min_eig, opnorm, pick_blocks, psd_fails
from .model_space import (
    KernelSubspace,
    TupleOperator,
    build_subspace,
    model_tuple,
    multiplier_adjoint_action,
    np_target_operator,
)
from .transfer import TransferFunction, _series_limit, factorization_criterion, values_at

INTERTWINE_TOL = 1e-10
CONTRACTION_SLACK = 1e-10


@dataclass
class PositivityReport:
    matrix: np.ndarray

    @property
    def min_eig(self) -> float:
        """Bottom eigenvalue of the gap, computed when read."""
        return min_eig(self.matrix)


def check_positivity(s: TupleOperator, x: np.ndarray, m: int) -> PositivityReport:
    """Assemble ``(1 - sigma_S)^{m-1}(I - X X*)`` and report its bottom eigenvalue.

    A negative eigenvalue is data for the caller, not an error.
    """
    x = as_matrix(x)
    if x.shape[0] != s.dim:
        raise DimensionMismatch(
            f"intertwiner has {x.shape[0]} rows, tuple dimension is {s.dim}"
        )
    gap = hereditary(s, m - 1, np.eye(s.dim, dtype=complex) - x @ x.conj().T)
    return PositivityReport(gap)


@dataclass
class LiftCertificate:
    delta_min_eig: float
    generating_residual: float
    verify_residual: float
    series_residual: float | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class LiftResult:
    phi: TransferFunction
    certificate: LiftCertificate
    colligation: Colligation
    #: ``_spectrum_values(phi, s)`` of the target tuple ``s``.
    spectrum_values: np.ndarray | None


def _spectrum_values(phi: TransferFunction, s: TupleOperator) -> np.ndarray | None:
    """``phi.eval_many`` at the joint eigenvalues of ``s`` (on a kernel span the
    nodes, each ``d`` times, node-major), or ``None`` without a joint eigenbasis."""
    basis = joint_eigenbasis(s)
    return None if basis is None else phi.eval_many(basis[1])


@dataclass
class Infeasible:
    """Certificate of an unsolvable instance: which test failed and how badly."""

    which: str
    pick_min_eig: float
    pick_matrix: np.ndarray
    delta_min_eig: float | None = None


def _check_contraction(x: np.ndarray) -> float:
    norm = opnorm(x)
    if norm > 1.0 + CONTRACTION_SLACK:
        raise NotContraction(norm)
    return norm


def _check_intertwining(t: TupleOperator, s: TupleOperator, x: np.ndarray, norm_x: float) -> float:
    worst = 0.0
    for ti, si in zip(t.mats, s.mats):
        resid = opnorm(x @ ti - si @ x)
        scale = 1.0 + norm_x * (opnorm(ti) + opnorm(si))
        worst = max(worst, resid / scale)
    if worst > INTERTWINE_TOL:
        raise NotIntertwining(worst)
    return worst


def _require_pure(spec: KernelSpec, *tuples: TupleOperator) -> None:
    if not all(is_pure(t, spec) for t in tuples):
        raise NotPure("both tuples must be pure for the canonical dilation")


def _lift_preamble(
    t: TupleOperator,
    s: TupleOperator,
    x: np.ndarray,
    spec: KernelSpec,
    in_map: np.ndarray | None = None,
    out_map: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Checks shared by the ball and polydisc lifts, and their defect maps.

    ``x`` must be a contraction intertwining the two tuples, and both
    tuples must be pure.  A defect coordinate map the caller did not pass
    comes from ``defect``, which raises ``NotHypercontraction``.
    """
    if t.n != s.n:
        raise DimensionMismatch("tuples must have the same length")
    _check_intertwining(t, s, x, _check_contraction(x))
    _require_pure(spec, t, s)
    if in_map is None:
        in_map = defect(s, spec).coord_map
    if out_map is None:
        out_map = defect(t, spec).coord_map
    return in_map, out_map


def lift_ball(
    t: TupleOperator,
    s: TupleOperator,
    x: np.ndarray,
    m: int,
    *,
    in_map: np.ndarray | None = None,
    out_map: np.ndarray | None = None,
) -> LiftResult:
    """Lift the intertwiner ``x`` to a transfer function: every check of
    ``_lift_preamble``, the positivity gap ``(1 - sigma_S)^{m-1}(I - X X*)``
    from ``check_positivity``, then ``_lift_ball``.  A defect coordinate map
    ``in_map`` (of ``s``) or ``out_map`` (of ``t``) not passed comes from
    ``defect``, which raises ``NotHypercontraction``; kernel spans pass
    evaluation at the origin, so the function acts between coefficient spaces.
    """
    x = as_matrix(x)
    in_map, out_map = _lift_preamble(t, s, x, KernelSpec.ball(m, t.n), in_map, out_map)
    return _lift_ball(s, x, check_positivity(s, x, m).matrix, in_map, out_map)


def _lift_ball(s: TupleOperator, x: np.ndarray, gap: np.ndarray, in_map, out_map) -> LiftResult:
    """The ball lift without checks.  The colligation is verified through the
    operator-identity series: its limit (``transfer._series_limit``, read off
    the values at the joint eigenvalues of ``s``) must reproduce the coupled
    defect target, and ``series_residual`` is their distance."""
    coll = build_ball_colligation(s, x, gap, in_map=in_map, out_map=out_map)
    phi = TransferFunction(coll)
    values = _spectrum_values(phi, s)
    series_residual = opnorm(_series_limit(coll, s, values) - coll.out_target)
    cert = LiftCertificate(
        delta_min_eig=float(coll.delta_min_eig),
        generating_residual=coll.generating_residual,
        verify_residual=series_residual,
        series_residual=series_residual,
    )
    return LiftResult(phi=phi, certificate=cert, colligation=coll, spectrum_values=values)


def verify_lift(
    phi_eval, space: KernelSubspace, x: np.ndarray, domain: KernelSubspace | None = None
) -> float:
    """Residual of the lift identity on the kernel basis:
    ``|| X* - (compressed multiplier adjoint of phi_eval at the nodes) ||``."""
    action = multiplier_adjoint_action(space, values_at(phi_eval, space.nodes), domain)
    return opnorm(as_matrix(x).conj().T - action)


def target_pick_matrix(spec: KernelSpec, nodes, targets) -> np.ndarray:
    """Block matrix ``[(I - W_a W_b*) K(z_a, z_b)]`` for the spec's kernel."""
    values = np.stack([as_matrix(w) for w in targets])
    return herm(pick_blocks(values, kernel_matrix(spec, nodes, nodes)))


@dataclass
class KernelSpans:
    """One interpolation instance on kernel spans.

    ``q1`` spans the domain kernels and ``q2`` the target kernels at the
    same nodes (``q1`` itself when the coefficient dimensions agree); ``s``
    is the model tuple of ``q2`` and ``x`` the interpolation operator from
    ``q1`` to ``q2``, which intertwines the two model tuples by construction.
    """

    targets: list[np.ndarray]
    q1: KernelSubspace
    q2: KernelSubspace
    s: TupleOperator
    x: np.ndarray

    @classmethod
    def build(cls, spec: KernelSpec, nodes, targets, d_target: int | None = None) -> KernelSpans:
        targets = [as_matrix(w) for w in targets]
        if d_target is None:
            # No targets: np_target_operator reports the count mismatch.
            d_target = targets[0].shape[0] if targets else spec.d_coeff
        q1 = build_subspace(spec, nodes)
        same = d_target == spec.d_coeff
        q2 = q1 if same else build_subspace(spec.with_coeff_dim(d_target), q1.nodes)
        x = np_target_operator(q1, targets, q2)
        return cls(targets, q1, q2, model_tuple(q2), x)

    def contractivity(self, psd_base_tol: float) -> tuple[Infeasible, bool]:
        """The ``Infeasible`` record of the contractivity test, which carries
        the Pick matrix for the domain kernel (weight ``m`` or ``gamma``) and
        its bottom eigenvalue, and whether that matrix fails the test.  It is
        ``target_pick_matrix`` at the nodes, built from ``q1.kernel``."""
        pick = herm(pick_blocks(np.stack(self.targets), self.q1.kernel))
        spectrum = np.linalg.eigvalsh(pick)
        record = Infeasible("contractivity", float(spectrum[0]), pick)
        return record, psd_fails(spectrum, psd_base_tol)

    def positivity(self, psd_base_tol: float) -> tuple[Infeasible, np.ndarray, bool]:
        """The ``Infeasible`` record of the positivity-gap test, the gap and
        whether it fails.  On the span the gap is the weight-one Pick matrix in
        orthonormal coordinates, ``(1 - sigma_S)^{m-1}(I - X X*) = L2* Pick_1 L2``;
        the record carries ``Pick_1``, its bottom eigenvalue and the gap's."""
        spec = self.q1.spec
        pick_1 = target_pick_matrix(
            KernelSpec.ball(1, spec.n, spec.d_coeff), self.q1.nodes, self.targets
        )
        factor = self.q2.ortho_factor
        gap = herm(factor.conj().T @ pick_1 @ factor)
        spectrum = np.linalg.eigvalsh(gap)
        record = Infeasible("positivity-gap", min_eig(pick_1), pick_1, float(spectrum[0]))
        return record, gap, psd_fails(spectrum, psd_base_tol)

    def check_lift(self) -> bool:
        """Whether ``||X|| <= 1 + CONTRACTION_SLACK``, and if so ``NotPure`` unless
        ``s`` is pure: the checks of a lift the construction leaves open."""
        if opnorm(self.x) > 1.0 + CONTRACTION_SLACK:
            return False
        _require_pure(self.q2.spec, self.s)
        return True

    def coeff_maps(self) -> dict:
        """Defect coordinate maps of the lift: evaluation at the origin, whose
        Grams are the defects, so the lift acts between coefficient spaces."""
        return {"in_map": self.q2.coeff_map_at_zero(), "out_map": self.q1.coeff_map_at_zero()}

    def certify(self, result: LiftResult, **extras) -> LiftResult:
        """Set ``verify_residual`` to the kernel-basis residual of the lift
        identity, from the lift's values at the nodes (``spectrum_values[::d]``),
        and record ``extras`` plus the span data under ``"np"``."""
        values = result.spectrum_values[:: self.q2.spec.d_coeff]
        action = multiplier_adjoint_action(self.q2, values, self.q1)
        result.certificate.verify_residual = opnorm(self.x.conj().T - action)
        result.certificate.extras.update(
            extras, np={"q_domain": self.q1, "q_codomain": self.q2, "x": self.x}
        )
        return result


def np_solve(
    spec: KernelSpec,
    nodes,
    targets,
    *,
    d_target: int | None = None,
    psd_base_tol: float = 1e-9,
) -> LiftResult | Infeasible:
    """Interpolation front end over kernel spans on the ball.

    Builds the spans and the interpolation operator, and runs two Pick gates
    at ``psd_base_tol``; a failing gate returns its ``Infeasible`` record
    (the weight-``m`` block matrix for contractivity, the weight-one matrix
    with the gap eigenvalue for ``KernelSpans.positivity``).  ``check_lift``
    then bounds ``||X||``, or returns the contractivity record, and tests
    purity.  The lift is ``_lift_ball`` on the gate's gap; when its square
    root rejects what the gate passed, the positivity record comes back
    with the builder's eigenvalue.  On success ``verify_residual`` is the
    kernel-basis residual of the lift identity and the extras carry the
    node-level data.
    """
    if spec.geometry != "ball":
        raise ValueError("np_solve expects a ball kernel spec")
    spans = KernelSpans.build(spec, nodes, targets, d_target)
    contractivity, failed = spans.contractivity(psd_base_tol)
    if failed:
        return contractivity

    positivity, gap, failed = spans.positivity(psd_base_tol)
    if failed:
        return positivity
    if not spans.check_lift():
        return contractivity

    try:
        result = _lift_ball(spans.s, spans.x, gap, **spans.coeff_maps())
    except NotPositive as exc:
        positivity.delta_min_eig = exc.min_eig
        return positivity
    return spans.certify(
        result,
        pick_weight_m_min_eig=contractivity.pick_min_eig,
        pick_weight_1_min_eig=positivity.pick_min_eig,
    )


@dataclass
class Dilation:
    """Finite realization of the weight-lowering dilation on a kernel span.

    In the span's own orthonormal coordinates the dilation is the
    identity, so the dilated tuple is the span's model tuple.
    ``coeff_map`` evaluates the image at the origin, a map into the
    orthonormal coordinates of ``coeff_space``.
    """

    coeff_space: KernelSubspace
    isometry_residual: float
    coeff_map: np.ndarray
    image_gram: np.ndarray


def dilate_p_to_m(q2: KernelSubspace, m: int) -> Dilation:
    """Identify the weight-``p`` span with a span inside a weight-``m`` space.

    The kernel at weight ``p`` factors as the weight-``m`` kernel times
    the weight-``p-m`` kernel, so each basis vector maps to the
    weight-``m`` kernel vector at the same node whose coefficient is the
    corresponding weight-``p-m`` kernel vector.  The image Gram is then
    ``q2.gram`` (derived from ``q2.kernel``), and ``q2.ortho_factor``
    orthonormalizes the image as well: no second orthonormalization is
    needed.  ``isometry_residual`` is ``||L2* image_gram L2 - I||`` with
    ``L2 = q2.ortho_factor``.
    """
    p = q2.spec.m
    n = q2.spec.n
    if p is None or q2.spec.geometry != "ball":
        raise ValueError("dilation expects a ball kernel span")
    if p <= m:
        raise ValueError(f"dilation requires p > m, got p={p}, m={m}")
    d = q2.spec.d_coeff
    coeff_space = build_subspace(KernelSpec.ball(p - m, n, d), q2.nodes)

    # Coefficient vectors of the image basis, one column per span vector.
    c_mat = coeff_space.ortho_factor_inv
    kernel_m = kernel_matrix(KernelSpec.ball(m, n, 1), q2.nodes, q2.nodes)
    gram = herm(np.kron(kernel_m, np.ones((d, d))) * (c_mat.conj().T @ c_mat))
    factor = q2.ortho_factor
    residual = opnorm(factor.conj().T @ gram @ factor - np.eye(q2.dim))
    return Dilation(
        coeff_space=coeff_space,
        isometry_residual=residual,
        coeff_map=c_mat @ factor,
        image_gram=gram,
    )


@dataclass
class CompositeInterpolant:
    """``w -> E(w) phi(w)``: the coefficient function ``E`` of the dilation
    (evaluation on ``coeff_space``) after the weight-``m`` lift ``phi``."""

    coeff_space: KernelSubspace
    factor_in: TransferFunction

    def __call__(self, w) -> np.ndarray:
        return self.coeff_space.eval_map(w) @ self.factor_in(w)

    def eval_many(self, points) -> np.ndarray:
        """Values at each point, stacked as ``(k, d_out, d_in)``, from one
        batch of each factor; equal to per-point calls.  The batch is stacked
        and checked once, by ``KernelSpec.interior_points``, before either
        factor runs; the factors then evaluate it unchecked."""
        pts, gaps = self.factor_in.domain._interior(points)
        return self.coeff_space._eval_interior(pts) @ self.factor_in._eval_interior(pts, gaps)


@dataclass
class CompositeLift:
    composite: CompositeInterpolant
    inner: LiftResult
    dilation: Dilation
    #: ``composite.eval_many`` at the nodes, the values ``verify_residual`` reads.
    node_values: np.ndarray
    verify_residual: float
    positivity_min_eigs: tuple[float, float]


def lift_p_gt_m(q1: KernelSubspace, q2: KernelSubspace, x: np.ndarray) -> CompositeLift:
    """Composite lift from a weight-``m`` span into a weight-``p`` span, p > m.

    The dilation is the identity in ``q2``'s orthonormal coordinates, so
    the intertwiner is lifted at weight ``m`` against ``q2``'s own model
    tuple, with the dilation's evaluation at the origin as input defect
    map, and composed with the coefficient function.  ``lift_ball`` runs
    every check once; its ``NotPositive`` is re-raised as a failure of the
    positivity gap on the higher-weight span.  ``positivity_min_eigs``
    repeats the gap's bottom eigenvalue for both sides of the dilation,
    which carry the same gap.  ``verify_residual`` is the kernel-basis
    residual of the lift identity, read off the inner lift's node values.
    """
    m = q1.spec.m
    x = as_matrix(x)
    s = model_tuple(q2)
    t = model_tuple(q1)
    dil = dilate_p_to_m(q2, m)
    try:
        inner = lift_ball(t, s, x, m, in_map=dil.coeff_map, out_map=q1.coeff_map_at_zero())
    except NotPositive as exc:
        context = "positivity gap on the higher-weight span"
        raise NotPositive(exc.min_eig, context=context) from None
    composite = CompositeInterpolant(coeff_space=dil.coeff_space, factor_in=inner.phi)
    values = dil.coeff_space.eval_many(q2.nodes) @ inner.spectrum_values[:: q2.spec.d_coeff]
    action = multiplier_adjoint_action(q2, values, q1)
    return CompositeLift(
        composite=composite,
        inner=inner,
        dilation=dil,
        node_values=values,
        verify_residual=opnorm(x.conj().T - action),
        positivity_min_eigs=(inner.certificate.delta_min_eig,) * 2,
    )
