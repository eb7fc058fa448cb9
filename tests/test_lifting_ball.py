import dataclasses

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import schurlift.hypercontraction as hypercontraction
import schurlift.lifting_ball as lifting_ball
import schurlift.transfer as transfer
from schurlift import (
    Infeasible,
    KernelSpec,
    LiftResult,
    build_subspace,
    check_positivity,
    dilate_p_to_m,
    factorization_criterion,
    lift_ball,
    lift_p_gt_m,
    model_tuple,
    np_solve,
    np_solve_polydisc,
    np_target_operator,
    series_partial_lift,
    verify_lift,
)
from schurlift.errors import (
    DimensionMismatch,
    GramMismatch,
    IllConditioned,
    NotContraction,
    NotIntertwining,
    NotPositive,
    NotPure,
)
from schurlift.hypercontraction import cp_map, defect, hereditary
from schurlift.kernels import DOMAIN_MARGIN, kernel_eval, kernel_matrix
from schurlift.lifting_ball import KernelSpans, target_pick_matrix
from schurlift.linalg import herm, min_eig, opnorm, psd_fails
from schurlift.model_space import TupleOperator

from conftest import (
    calls_on,
    random_ball_nodes,
    random_contraction,
    random_interior_points,
    random_polydisc_nodes,
    record_linalg,
    scaled_targets,
)


def test_check_positivity_weight_one_is_defect_of_contraction():
    rng = np.random.default_rng(0)
    x = random_contraction(rng, 4, 4, norm_cap=0.9)
    spec = KernelSpec.ball(1, 2)
    nodes = random_ball_nodes(rng, 2, 2)
    s = model_tuple(build_subspace(spec.with_coeff_dim(2), nodes))
    report = check_positivity(s, x, 1)
    assert report.min_eig >= -1e-12
    assert opnorm(report.matrix - (np.eye(4) - x @ x.conj().T)) < 1e-12


def test_check_positivity_zero_intertwiner():
    rng = np.random.default_rng(1)
    spec = KernelSpec.ball(3, 2)
    s = model_tuple(build_subspace(spec, random_ball_nodes(rng, 3, 2)))
    x = np.zeros((3, 3), dtype=complex)
    report = check_positivity(s, x, 3)
    d = defect(s, KernelSpec.ball(2, 2))
    assert opnorm(report.matrix - d.defect_square) < 1e-12


def test_check_positivity_sign_matches_pick_matrix():
    # the operator's form on the kernel basis is the weight-one block matrix
    rng = np.random.default_rng(2)
    spec = KernelSpec.ball(2, 1)
    nodes = random_ball_nodes(rng, 2, 1, radius=0.8, min_sep=0.1)
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    for scale in (0.3, 0.8, 0.97):
        targets = [np.array([[scale]]), np.array([[-scale]])]
        x = np_target_operator(space, targets, space)
        if opnorm(x) > 1:
            continue
        report = check_positivity(s, x, 2)
        pick = target_pick_matrix(KernelSpec.ball(1, 1), nodes, targets)
        assert (report.min_eig >= -1e-10) == (min_eig(pick) >= -1e-10)


def test_lift_identity_intertwiner():
    rng = np.random.default_rng(3)
    spec = KernelSpec.ball(2, 2)
    space = build_subspace(spec, random_ball_nodes(rng, 3, 2))
    s = model_tuple(space)
    x = np.eye(space.dim, dtype=complex)
    res = lift_ball(s, s, x, 2)
    assert res.certificate.verify_residual <= 1e-10
    # the transfer function is the constant adjoint corner
    z = (0.1, 0.2j)
    assert np.allclose(res.phi(z), res.colligation.block_a.conj().T)
    # caller-supplied defect maps are the ones lift_ball computes itself
    given_data = lift_ball(
        s,
        s,
        x,
        2,
        in_map=defect(s, spec).coord_map,
        out_map=defect(s, spec).coord_map,
    )
    assert np.array_equal(given_data.colligation.matrix, res.colligation.matrix)


#: Truncation order at which the partial sums stand in for the limit.
LONG_ORDER = 500


def _jordan_lift(shift, m):
    """A lift against a tuple without a joint eigenbasis (a Jordan block)."""
    nilpotent = np.diag(np.ones(3), 1).astype(complex)
    s = TupleOperator((shift * np.eye(4) + 0.3 * nilpotent, 0.3 * nilpotent))
    assert hypercontraction.joint_eigenbasis(s) is None
    return s, lift_ball(s, s, 0.5 * np.eye(4), m)


def _span_lift(seed, n, r, m, radius):
    rng = np.random.default_rng(seed)
    spec = KernelSpec.ball(m, n)
    nodes = random_ball_nodes(rng, r, n, radius=radius, min_sep=0.3 * radius)
    spans = KernelSpans.build(spec, nodes, scaled_targets(rng, spec, nodes))
    return spans.s, lift_ball(model_tuple(spans.q1), spans.s, spans.x, m, **spans.coeff_maps())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    r=st.integers(1, 8),
    m=st.sampled_from([1, 2, 3]),
    radius=st.floats(0.3, 0.9),
)
@example(seed=0, n=2, r=2, m=1, radius=0.3)
@example(seed=0, n=2, r=8, m=2, radius=0.9)  # slow decay: order 60 missed its tail bound
def test_series_residual_is_the_limit_of_the_partial_sums(seed, n, r, m, radius):
    # Dense disc nodes can make the span ill conditioned or fail the
    # completion's Gram agreement on round-off; such a draw has no lift,
    # and so no series to check.
    try:
        s, res = _span_lift(seed, n, r, m, radius)
    except (IllConditioned, GramMismatch) as exc:
        event(f"no lift: {type(exc).__name__}")
        assume(False)
    coll = res.colligation
    partial, bound = series_partial_lift(coll, s, LONG_ORDER)
    truncated = opnorm(partial - coll.out_target)
    assert abs(res.certificate.series_residual - truncated) <= bound + 1e-12


@pytest.mark.parametrize("shift", [0.0, 0.2])
@pytest.mark.parametrize("m", [1, 2])
def test_series_limit_without_a_joint_eigenbasis(shift, m):
    # The Kronecker branch of the Stein solve.
    s, res = _jordan_lift(shift, m)
    partial, _ = series_partial_lift(res.colligation, s, LONG_ORDER)
    assert res.spectrum_values is None
    assert opnorm(transfer._series_limit(res.colligation, s, None) - partial) <= 1e-13
    assert res.certificate.verify_residual <= 1e-12


@pytest.mark.parametrize("branch", ["eigenbasis", "kronecker"])
def test_series_limit_sees_a_perturbed_corner(branch):
    # The residual is no identity: moving the corner A by 1e-6 shows in it.
    s, res = _span_lift(3, 2, 5, 2, 0.7) if branch == "eigenbasis" else _jordan_lift(0.2, 2)
    assert (hypercontraction.joint_eigenbasis(s) is None) == (branch == "kronecker")
    coll = res.colligation
    assert opnorm(transfer._series_limit(coll, s, res.spectrum_values) - coll.out_target) <= 1e-12
    perturbed = dataclasses.replace(coll, matrix=coll.matrix.copy())
    perturbed.block_a[...] += 1e-6
    values = lifting_ball._spectrum_values(transfer.TransferFunction(perturbed), s)
    assert opnorm(transfer._series_limit(perturbed, s, values) - coll.out_target) > 1e-7


def _pivot_series_limit(coll, s):
    """The series limit by its own pivots ``I - sum_l conj(lambda_al) D_l``:
    ``y_a`` solves the pivot against ``(C E V^{-*})_a``, and column ``a`` is
    ``A (E V^{-*})_a + sum_j conj(lambda_aj) B_j y_a``, mapped back by ``V*``."""
    vecs, lam = hypercontraction.joint_eigenbasis(s)
    lam_bar = lam.conj()
    k = coll.block_d.shape[0]
    in_hat = np.linalg.solve(vecs, coll.in_map.conj().T).conj().T
    pivots = np.eye(k) - np.tensordot(lam_bar, np.stack(coll.d_blocks()), axes=1)
    states = np.linalg.solve(pivots, (coll.block_c @ in_hat).T[:, :, None])[:, :, 0].T
    columns = coll.block_a @ in_hat + sum(
        b @ (states * lam_bar[:, j]) for j, b in enumerate(coll.b_blocks())
    )
    return columns @ vecs.conj().T


def _span_solve(geometry, seed, r, d):
    """A kernel-span front-end solve and its spans, or None when it has no lift."""
    rng = np.random.default_rng(seed)
    if geometry == "ball":
        spec = KernelSpec.ball(int(rng.integers(1, 4)), 2)
        nodes = random_ball_nodes(rng, r, 2, radius=0.8, min_sep=0.2)
        targets = scaled_targets(rng, spec, nodes, d_out=d)
        solve = np_solve
    else:
        spec = KernelSpec.polydisc(((1, 1), (1, 2), (2, 1))[rng.integers(3)])
        nodes = random_polydisc_nodes(rng, min(r, 4), 2, radius=0.45, min_sep=0.25)
        targets = [0.55 * w for w in scaled_targets(rng, spec, nodes, d_out=d, weight_one=False)]
        solve = np_solve_polydisc
    try:
        res = solve(spec, nodes, targets)
    except (IllConditioned, GramMismatch) as exc:
        event(f"no lift: {type(exc).__name__}")
        return None
    event(type(res).__name__)
    return res if isinstance(res, LiftResult) else None


@settings(max_examples=30, deadline=None)
@given(
    geometry=st.sampled_from(["ball", "polydisc"]),
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 8),
    d=st.sampled_from([1, 2]),
)
def test_one_evaluation_serves_every_reader(geometry, seed, r, d):
    """The lift's values at the joint eigenvalues of ``s`` are its values at
    the nodes, each ``d`` times, and ``certify`` reads them bit for bit as
    ``verify_lift`` evaluates them.  On the ball the series limit read off
    them agrees with the pivot solves it replaced."""
    res = _span_solve(geometry, seed, r, d)
    assume(res is not None)
    span = res.certificate.extras["np"]
    q1, q2, x = span["q_domain"], span["q_codomain"], span["x"]
    assert q2.spec.d_coeff == d
    assert np.array_equal(res.spectrum_values[::d], res.phi.eval_many(q2.nodes))
    assert res.certificate.verify_residual == verify_lift(res.phi, q2, x, q1)
    if geometry == "ball":
        s = model_tuple(q2)
        reference = _pivot_series_limit(res.colligation, s)
        limit = transfer._series_limit(res.colligation, s, res.spectrum_values)
        assert opnorm(limit - reference) <= 1e-13 * opnorm(reference)


def test_np_solve_takes_one_stacked_resolvent_solve(monkeypatch):
    # The series limit and the kernel-basis residual share one evaluation of
    # phi at the nodes: one stacked solve of the resolvents ``I - Z D*``.
    rng = np.random.default_rng(5)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 10, 2, radius=0.8, min_sep=0.2)
    targets = scaled_targets(rng, spec, nodes)
    stacked = []
    solve = np.linalg.solve

    def recorded_solve(a, b):
        if np.ndim(a) == 3:
            stacked.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded_solve)
    res = np_solve(spec, nodes, targets)
    assert isinstance(res, LiftResult)
    k = res.colligation.block_d.shape[0]
    assert stacked == [(len(nodes), k, k)]


def test_kernel_span_lift_solves_at_most_state_size(monkeypatch):
    # The model tuple brings the joint eigenbasis of the purity gate, so
    # none is computed, and the Stein solve stays in the eigenbasis: no
    # cp_map and no Kronecker system larger than the state.
    cp_calls = []
    eig_calls = []
    pure_calls = []
    solve_shapes = []
    inside = []
    compute = hypercontraction._compute_joint_eigenbasis
    solve = np.linalg.solve
    lift = lifting_ball._lift_ball

    def counted_compute(t):
        eig_calls.append(t)
        return compute(t)

    def counted_cp_map(t, a):
        cp_calls.append(t)
        return cp_map(t, a)

    def counted_is_pure(t, spec):
        pure_calls.append(t)
        return hypercontraction.is_pure(t, spec)

    def recorded_solve(a, b):
        if inside:
            solve_shapes.append(np.shape(a)[-2:])
        return solve(a, b)

    def flagged_lift(*args, **kwargs):
        inside.append(True)
        try:
            return lift(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(hypercontraction, "_compute_joint_eigenbasis", counted_compute)
    monkeypatch.setattr(hypercontraction, "cp_map", counted_cp_map)
    monkeypatch.setattr(transfer, "cp_map", counted_cp_map)
    monkeypatch.setattr(lifting_ball, "is_pure", counted_is_pure)
    monkeypatch.setattr(lifting_ball, "_lift_ball", flagged_lift)
    monkeypatch.setattr(np.linalg, "solve", recorded_solve)
    rng = np.random.default_rng(5)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 10, 2, radius=0.8, min_sep=0.2)
    res = np_solve(spec, nodes, scaled_targets(rng, spec, nodes))
    assert isinstance(res, LiftResult)
    k = res.colligation.block_d.shape[0]
    assert solve_shapes
    assert all(rows <= k and cols <= k for rows, cols in solve_shapes)
    assert cp_calls == []
    assert len(pure_calls) == 1
    assert eig_calls == []


def test_lift_rejects_expansive_and_nonintertwining():
    rng = np.random.default_rng(4)
    spec = KernelSpec.ball(1, 1)
    space = build_subspace(spec, random_ball_nodes(rng, 2, 1))
    s = model_tuple(space)
    with pytest.raises(NotContraction):
        lift_ball(s, s, 1.5 * np.eye(space.dim), 1)
    skew = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotIntertwining):
        lift_ball(s, s, skew, 1)


def test_lift_not_positive_reports_eigenvalue():
    rng = np.random.default_rng(5)
    spec = KernelSpec.ball(2, 1)
    nodes = random_ball_nodes(rng, 2, 1, radius=0.85, min_sep=0.08)
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    found = False
    for scale in np.linspace(0.5, 0.99, 25):
        targets = [np.array([[scale]]), np.array([[-scale]])]
        x = np_target_operator(space, targets, space)
        report = check_positivity(s, x, 2)
        if opnorm(x) <= 1 and report.min_eig < -1e-3:
            found = True
            with pytest.raises(NotPositive) as err:
                lift_ball(s, s, x, 2)
            assert err.value.min_eig == pytest.approx(report.min_eig, abs=1e-10)
            break
    assert found


def test_np_solve_single_node_any_weight():
    for m in (1, 2, 3):
        spec = KernelSpec.ball(m, 1)
        res = np_solve(spec, [(0.3,)], [np.array([[0.7j]])])
        assert isinstance(res, LiftResult)
        assert abs(res.phi((0.3,))[0, 0] - 0.7j) < 1e-10


def _dense_ball_instance(seed, count, radius, min_sep):
    """Nodes and Drury-Arveson targets ``0.8 (z_1 A_1 + z_2 A_2)`` with
    ``[A_1; A_2]`` of norm one, drawn in that order from one generator."""
    rng = np.random.default_rng(seed)
    nodes = []
    while len(nodes) < count:
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        z = radius * rng.uniform(0.2, 1.0) * direction
        if all(np.linalg.norm(z - w) > min_sep for w in nodes):
            nodes.append(z)
    mats = [rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)) for _ in range(2)]
    mats = [a / np.linalg.norm(np.vstack(mats), 2) for a in mats]
    targets = [0.8 * sum(zi * a for zi, a in zip(z, mats)) for z in nodes]
    return [tuple(z) for z in nodes], targets


def test_np_solve_dense_nodes_without_false_rejection():
    # 26 nodes at radius 0.6, separation 0.15: the weight-two Gram condition
    # is about 1.5e8, and the binomial expansion of the defect used to end
    # in NotHypercontraction (min eig -3.5e-9) on this solvable instance.
    nodes, targets = _dense_ball_instance(53, 26, 0.6, 0.15)
    res = np_solve(KernelSpec.ball(2, 2), nodes, targets)
    assert isinstance(res, LiftResult)
    assert res.certificate.verify_residual <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 10),
    n=st.integers(1, 2),
    m=st.integers(1, 3),
    d=st.integers(1, 2),
)
def test_pick_congruence_is_the_positivity_gap(seed, r, n, m, d):
    # (1 - sigma_S)^{m-1}(I - X X*) = L2* Pick_1 L2 on kernel spans; the
    # node spacing keeps every Gram matrix above the IllConditioned floor
    rng = np.random.default_rng(seed)
    nodes = random_ball_nodes(rng, r, n, radius=0.8, min_sep=0.2)
    targets = [random_contraction(rng, d, 1, norm_cap=1.2) for _ in nodes]
    q1 = build_subspace(KernelSpec.ball(m, n), nodes)
    q2 = build_subspace(KernelSpec.ball(m, n, d), nodes)
    x = np_target_operator(q1, targets, q2)
    pick_1 = target_pick_matrix(KernelSpec.ball(1, n), q1.nodes, targets)
    gap = herm(q2.ortho_factor.conj().T @ pick_1 @ q2.ortho_factor)
    reference = check_positivity(model_tuple(q2), x, m).matrix
    assert opnorm(gap - reference) <= 1e-14 * q2.gram_cond


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    d=st.integers(1, 2),
    scale=st.floats(0.9, 1.1),
)
def test_solved_implies_a_psd_weight_one_pick_matrix(seed, r, n, m, d, scale):
    """Targets scaled around the edge of solvability: whenever ``np_solve``
    returns a lift, the weight-one Pick matrix passes the PSD test ``psd_fails``."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec.ball(m, n)
    nodes = random_ball_nodes(rng, r, n)
    targets = [scale * w for w in scaled_targets(rng, spec, nodes, d_out=d, margin=0.0)]
    outcome = np_solve(spec, nodes, targets)
    event(type(outcome).__name__)
    if isinstance(outcome, LiftResult):
        pick_1 = target_pick_matrix(KernelSpec.ball(1, n), nodes, targets)
        assert not psd_fails(np.linalg.eigvalsh(pick_1))


def test_np_solve_constant_targets():
    rng = np.random.default_rng(6)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 3, 2)
    c = 0.4 - 0.3j
    res = np_solve(spec, nodes, [np.array([[c]])] * 3)
    assert isinstance(res, LiftResult)
    for z in nodes:
        assert abs(res.phi(z)[0, 0] - c) < 1e-9


def test_np_solve_infeasible_two_node():
    spec = KernelSpec.ball(1, 1)
    nodes = [(0.0,), (0.1,)]
    targets = [np.array([[0.0]]), np.array([[0.9]])]
    res = np_solve(spec, nodes, targets)
    assert isinstance(res, Infeasible)
    assert res.pick_min_eig < -1e-6


def test_np_solve_contraction_edge_is_infeasible():
    # Seed 10 of an edge sweep (n = 2, m = 1, six nodes): targets scaled by
    # bisection to the zero of the Cholesky-normalized weight-one Pick
    # eigenvalue, then pushed out by 1e-9.  The Pick gate passes them at its
    # 1e-9 relative tolerance, the lift's contraction check rejects them at
    # 1e-10, and np_solve returns the gate's record instead of raising.
    seed = 10
    n, m, r = 1 + seed % 3, 1 + (seed // 3) % 3, 2 + seed % 6
    rng = np.random.default_rng(seed)
    nodes = random_ball_nodes(rng, r, n)
    raw = [4 * random_contraction(rng, 1, 1, 0.95) for _ in nodes]
    spec = KernelSpec.ball(m, n)
    chol = np.linalg.cholesky(kernel_matrix(spec, nodes, nodes))

    def normalized_min_eig(tau):
        half = np.linalg.solve(chol, target_pick_matrix(spec, nodes, [tau * w for w in raw]))
        return min_eig(np.linalg.solve(chol, half.conj().T))

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if normalized_min_eig(mid) >= 0 else (lo, mid)
    targets = [(1 + 1e-9) * (lo * w) for w in raw]
    spans = KernelSpans.build(spec, nodes, targets)
    assert not spans.contractivity(1e-9)[1]
    assert opnorm(spans.x) > 1 + 1e-10
    res = np_solve(spec, nodes, targets)
    assert isinstance(res, Infeasible)
    assert res.which == "contractivity" and res.delta_min_eig is None
    assert np.array_equal(res.pick_matrix, target_pick_matrix(spec, nodes, targets))
    assert res.pick_min_eig == min_eig(res.pick_matrix) < 0


#: The two kernel-span front ends, each with a spec whose domain holds
#: the nodes of ``_front_end_instance``.
FRONT_ENDS = {
    "ball": (np_solve, KernelSpec.ball(2, 2)),
    "polydisc": (np_solve_polydisc, KernelSpec.polydisc((1, 1))),
}


def _front_end_instance(spec, d_out):
    rng = np.random.default_rng(19)
    nodes = random_ball_nodes(rng, 4, 2, radius=0.5)
    return nodes, [0.6 * w for w in scaled_targets(rng, spec, nodes, d_out=d_out)]


@pytest.mark.parametrize("geometry", FRONT_ENDS)
def test_front_ends_reject_empty_target_lists(geometry):
    solve, spec = FRONT_ENDS[geometry]
    with pytest.raises(DimensionMismatch, match="got 0 targets for 2 nodes"):
        solve(spec, [(0.1, 0.2), (-0.3, 0.1j)], [])
    with pytest.raises(ValueError, match="at least one node is required"):
        solve(spec, [], [])


@pytest.mark.parametrize("geometry", FRONT_ENDS)
@pytest.mark.parametrize("d_out", [1, 2])
def test_front_ends_run_only_the_checks_their_construction_leaves_open(
    monkeypatch, geometry, d_out
):
    # X intertwines the model tuples by construction, and the model tuples
    # are pure exactly when the nodes are: no intertwining check, one purity
    # read and one norm of X.  Equal coefficient dimensions share one span.
    solve, spec = FRONT_ENDS[geometry]
    nodes, targets = _front_end_instance(spec, d_out)
    intertwining, pure, spans = [], [], []
    is_pure, build = lifting_ball.is_pure, lifting_ball.build_subspace
    monkeypatch.setattr(lifting_ball, "_check_intertwining", lambda *args: intertwining.append(1))
    monkeypatch.setattr(lifting_ball, "is_pure", lambda t, sp: pure.append(t) or is_pure(t, sp))
    monkeypatch.setattr(
        lifting_ball, "build_subspace", lambda sp, z: spans.append(sp) or build(sp, z)
    )
    calls = record_linalg(monkeypatch, ("svd",))
    res = solve(spec, nodes, targets)
    assert isinstance(res, LiftResult)
    assert intertwining == []
    assert len(pure) == 1
    assert calls_on(calls, "svd", res.certificate.extras["np"]["x"]) == 1
    assert len(spans) == (1 if d_out == spec.d_coeff else 2)


@pytest.mark.parametrize("geometry", FRONT_ENDS)
def test_front_ends_reject_a_node_inside_the_purity_margin(geometry):
    # Boundary gap 5e-11: inside the domain, but the model tuple's spectral
    # radius is within PURITY_MARGIN of one.
    solve, spec = FRONT_ENDS[geometry]
    node = (np.sqrt(1.0 - 5e-11), 0.0)
    assert DOMAIN_MARGIN < spec.boundary_gap(node) < hypercontraction.PURITY_MARGIN
    with pytest.raises(NotPure):
        solve(spec, [node], [np.array([[0.5]])])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    r=st.integers(1, 8),
    m=st.sampled_from([1, 2, 3]),
    d=st.sampled_from([1, 2]),
)
def test_np_solve_is_lift_ball_without_its_checks(seed, n, r, m, d):
    """``lift_ball`` on the spans runs every check and returns ``np_solve``'s
    lift bit for bit, once its positivity gap is the front end's.  The
    general path assembles the gap by the hereditary calculus, the front
    end by the Pick congruence; the two agree only to round-off
    (``test_pick_congruence_is_the_positivity_gap``)."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec.ball(m, n)
    nodes = random_ball_nodes(rng, r, n, radius=0.8, min_sep=0.2)
    targets = scaled_targets(rng, spec, nodes, d_out=d)
    try:
        res = np_solve(spec, nodes, targets, d_target=d)
    except (IllConditioned, GramMismatch) as exc:
        event(f"no lift: {type(exc).__name__}")
        assume(False)
    assert isinstance(res, LiftResult)
    spans = KernelSpans.build(spec, nodes, targets, d)
    pick_1 = target_pick_matrix(KernelSpec.ball(1, n), spans.q1.nodes, spans.targets)
    factor = spans.q2.ortho_factor
    gap = herm(factor.conj().T @ pick_1 @ factor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting_ball, "check_positivity", lambda *_: lifting_ball.PositivityReport(gap))
        general = lift_ball(model_tuple(spans.q1), spans.s, spans.x, m, **spans.coeff_maps())
    assert np.array_equal(general.colligation.matrix, res.colligation.matrix)
    assert general.certificate.series_residual == res.certificate.series_residual
    assert general.certificate.generating_residual == res.certificate.generating_residual


def test_np_solve_matrix_targets():
    rng = np.random.default_rng(7)
    spec = KernelSpec.ball(2, 2, d_coeff=2)
    nodes = random_ball_nodes(rng, 3, 2)
    targets = scaled_targets(rng, spec, nodes, d_out=2)
    res = np_solve(spec, nodes, targets, d_target=2)
    assert isinstance(res, LiftResult)
    for z, w in zip(nodes, targets):
        assert opnorm(res.phi(z) - w) < 1e-8
    assert res.certificate.verify_residual <= 1e-8


def test_np_solve_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(8)
    spec = KernelSpec.ball(2, 2, d_coeff=2)
    nodes = random_ball_nodes(rng, 3, 2)
    targets = scaled_targets(rng, spec, nodes, d_out=2)
    ginibre = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    v, _ = np.linalg.qr(ginibre)
    rotated = [v @ w @ v.conj().T for w in targets]
    p1a = target_pick_matrix(spec, nodes, targets)
    p1b = target_pick_matrix(spec, nodes, rotated)
    assert min_eig(p1a) == pytest.approx(min_eig(p1b), abs=1e-10)
    one = KernelSpec.ball(1, 2, d_coeff=2)
    assert min_eig(target_pick_matrix(one, nodes, targets)) == pytest.approx(
        min_eig(target_pick_matrix(one, nodes, rotated)), abs=1e-10
    )


def test_verify_lift_detects_perturbation():
    rng = np.random.default_rng(9)
    spec = KernelSpec.ball(1, 2)
    nodes = random_ball_nodes(rng, 3, 2)
    targets = scaled_targets(rng, spec, nodes)
    res = np_solve(spec, nodes, targets)
    extras = res.certificate.extras["np"]
    q1, q2, x = extras["q_domain"], extras["q_codomain"], extras["x"]
    assert verify_lift(res.phi, q2, x, q1) <= 1e-10

    bad_node = nodes[0]

    def perturbed(z):
        value = res.phi(z)
        if np.allclose(np.asarray(z), np.asarray(bad_node)):
            return value + 0.1
        return value

    assert verify_lift(perturbed, q2, x, q1) >= 0.05


def test_verify_lift_zero_case():
    rng = np.random.default_rng(10)
    spec = KernelSpec.ball(1, 1)
    space = build_subspace(spec, random_ball_nodes(rng, 2, 1))
    x = np.zeros((space.dim, space.dim), dtype=complex)
    assert verify_lift(lambda z: np.zeros((1, 1)), space, x, space) == 0.0


def test_m_one_lift_always_exists():
    # weight one: the positivity gap is automatic for contractions
    rng = np.random.default_rng(11)
    spec = KernelSpec.ball(1, 2)
    for _ in range(10):
        nodes = random_ball_nodes(rng, 3, 2)
        space1 = build_subspace(spec, nodes)
        space2 = build_subspace(spec, nodes)
        targets = scaled_targets(rng, spec, nodes)
        x = np_target_operator(space1, targets, space2)
        pos = check_positivity(model_tuple(space2), x, 1)
        assert pos.min_eig >= -1e-10


def test_dilation_gram_preservation():
    rng = np.random.default_rng(12)
    p, m, n = 3, 1, 2
    nodes = random_ball_nodes(rng, 3, n)
    q2 = build_subspace(KernelSpec.ball(p, n), nodes)
    dil = dilate_p_to_m(q2, m)
    # brute-force oracle: the image Gram is the product of the two kernels
    spec_m = KernelSpec.ball(m, n)
    spec_rest = KernelSpec.ball(p - m, n)
    for a, za in enumerate(nodes):
        for b, zb in enumerate(nodes):
            expected = kernel_eval(spec_m, za, zb) * kernel_eval(spec_rest, za, zb)
            assert dil.image_gram[a, b] == pytest.approx(expected, rel=1e-12)
    assert dil.isometry_residual <= 1e-10


def test_dilation_rejects_equal_weights():
    rng = np.random.default_rng(13)
    q2 = build_subspace(KernelSpec.ball(2, 1), random_ball_nodes(rng, 2, 1))
    with pytest.raises(ValueError):
        dilate_p_to_m(q2, 2)


def test_dilation_single_node_transport():
    # the dilated tuple is the span's model tuple: at one node it is the node
    z = (0.4 - 0.1j,)
    q2 = build_subspace(KernelSpec.ball(3, 1), [z])
    dil = dilate_p_to_m(q2, 1)
    assert dil.image_gram.shape == (1, 1)
    assert dil.isometry_residual <= 1e-12
    s = model_tuple(q2)
    assert s[0].shape == (1, 1)
    assert s[0][0, 0] == pytest.approx(z[0])


def test_dilation_intertwines_adjoints():
    # Orthonormalize the image span independently of q2 and transport the
    # node-diagonal adjoints there; the kernel-to-kernel map V between the
    # two orthonormal bases is an isometry that intertwines S_i* with T_i*.
    rng = np.random.default_rng(14)
    nodes = random_ball_nodes(rng, 3, 2)
    q2 = build_subspace(KernelSpec.ball(3, 2), nodes)
    s = model_tuple(q2)
    dil = dilate_p_to_m(q2, 1)
    w, v = np.linalg.eigh(dil.image_gram)
    image_ortho = v * (w**-0.5)
    image_ortho_inv = (v * (w**0.5)).conj().T
    isometry = image_ortho_inv @ q2.ortho_factor
    assert opnorm(isometry.conj().T @ isometry - np.eye(q2.dim)) <= 1e-10
    points = np.asarray(q2.nodes)
    for i in range(2):
        t_adj = image_ortho_inv @ (points[:, i].conj()[:, None] * image_ortho)
        lhs = isometry @ s[i].conj().T
        rhs = t_adj @ isometry
        assert opnorm(lhs - rhs) <= 1e-10


def _separated_ball_nodes(rng, count, n, radius=0.9, separation=0.5):
    """Nodes whose pairwise pseudo-hyperbolic distance is at least
    ``separation``, which keeps the Gram condition number moderate."""
    nodes = []
    while len(nodes) < count:
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = radius * np.sqrt(rng.uniform()) * direction / np.linalg.norm(direction)
        gap_z = 1.0 - np.vdot(z, z).real
        if all(
            1.0 - gap_z * (1.0 - np.vdot(w, w).real) / abs(1.0 - np.vdot(w, z)) ** 2
            >= separation**2
            for w in nodes
        ):
            nodes.append(z)
    return [tuple(z) for z in nodes]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 10),
    n=st.sampled_from([1, 2]),
    weights=st.sampled_from([(m, p) for p in range(2, 5) for m in range(1, p)]),
    d=st.sampled_from([1, 2]),
)
def test_dilation_is_the_identity_in_span_coordinates(seed, r, n, weights, d):
    """The image Gram is the span's Gram, so ``q2.ortho_factor`` makes the
    dilation the identity; evaluating the image at the origin reproduces
    the weight-``m`` defect of the span's own model tuple."""
    m, p = weights
    nodes = _separated_ball_nodes(np.random.default_rng(seed), r, n)
    q2 = build_subspace(KernelSpec.ball(p, n, d), nodes)
    dil = dilate_p_to_m(q2, m)
    assert opnorm(dil.image_gram - q2.gram) <= 1e-13 * opnorm(q2.gram)
    assert dil.isometry_residual <= 1e-10
    defect_m = hereditary(model_tuple(q2), m, np.eye(q2.dim, dtype=complex))
    gram = dil.coeff_map.conj().T @ dil.coeff_map
    assert opnorm(gram - defect_m) <= 1e-10 * (1.0 + opnorm(defect_m))


def test_lift_p_gt_m_zero_intertwiner():
    rng = np.random.default_rng(15)
    nodes = random_ball_nodes(rng, 2, 1)
    q1 = build_subspace(KernelSpec.ball(1, 1), nodes)
    q2 = build_subspace(KernelSpec.ball(2, 1), nodes)
    x = np.zeros((q2.dim, q1.dim), dtype=complex)
    comp = lift_p_gt_m(q1, q2, x)
    assert comp.verify_residual <= 1e-10
    for z in nodes:
        assert opnorm(comp.composite(z)) <= 1e-10


def test_lift_p_gt_m_positivity_eigenvalues_agree():
    rng = np.random.default_rng(16)
    nodes = random_ball_nodes(rng, 3, 2)
    q1 = build_subspace(KernelSpec.ball(1, 2), nodes)
    q2 = build_subspace(KernelSpec.ball(3, 2), nodes)
    targets = scaled_targets(rng, KernelSpec.ball(3, 2), nodes, weight_one=False)
    x = np_target_operator(q1, targets, q2)
    comp = lift_p_gt_m(q1, q2, x)
    a, b = comp.positivity_min_eigs
    assert abs(a - b) <= 1e-10
    assert comp.dilation.isometry_residual <= 1e-10
    assert comp.verify_residual <= 1e-6
    for z, w in zip(nodes, targets):
        assert opnorm(comp.composite(z) - w) <= 1e-6


def test_lift_p_gt_m_runs_each_check_once(monkeypatch):
    calls = {"_check_contraction": 0, "_check_intertwining": 0}

    def counted(name):
        original = getattr(lifting_ball, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(lifting_ball, name, counted(name))
    rng = np.random.default_rng(16)
    nodes = random_ball_nodes(rng, 3, 2)
    q1 = build_subspace(KernelSpec.ball(1, 2), nodes)
    q2 = build_subspace(KernelSpec.ball(3, 2), nodes)
    targets = scaled_targets(rng, KernelSpec.ball(3, 2), nodes, weight_one=False)
    lift_p_gt_m(q1, q2, np_target_operator(q1, targets, q2))
    assert calls == {"_check_contraction": 1, "_check_intertwining": 1}


def test_np_solve_gates_decide_from_one_eigvalsh(monkeypatch):
    # Each gate reads its bottom eigenvalue and its scale from one eigvalsh;
    # neither takes an SVD, and the builder's eigh is the gap's only other
    # decomposition.
    rng = np.random.default_rng(17)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 4, 2)
    targets = scaled_targets(rng, spec, nodes)
    pick = target_pick_matrix(spec, nodes, targets)
    factor = KernelSpans.build(spec, nodes, targets).q2.ortho_factor
    pick_1 = target_pick_matrix(KernelSpec.ball(1, 2), nodes, targets)
    gap = herm(factor.conj().T @ pick_1 @ factor)
    calls = record_linalg(monkeypatch, ("eigh", "eigvalsh", "svd"))
    assert isinstance(np_solve(spec, nodes, targets), LiftResult)
    assert [calls_on(calls, name, pick) for name in ("eigh", "eigvalsh", "svd")] == [0, 1, 0]
    assert [calls_on(calls, name, gap) for name in ("eigh", "eigvalsh", "svd")] == [1, 1, 0]


def test_lift_p_gt_m_takes_no_eigvalsh_and_one_norm_of_x(monkeypatch):
    # The gap's bottom eigenvalue is read only on demand, and the contraction
    # check hands ||X|| to the intertwining check.
    rng = np.random.default_rng(18)
    nodes = random_ball_nodes(rng, 4, 2)
    q1 = build_subspace(KernelSpec.ball(1, 2), nodes)
    q2 = build_subspace(KernelSpec.ball(2, 2), nodes)
    targets = scaled_targets(rng, KernelSpec.ball(2, 2), nodes, weight_one=False)
    x = np_target_operator(q1, targets, q2)
    calls = record_linalg(monkeypatch, ("eigvalsh", "svd"))
    assert lift_p_gt_m(q1, q2, x).verify_residual <= 1e-8
    assert [name for name, _ in calls if name == "eigvalsh"] == []
    assert calls_on(calls, "svd", x) == 1


def test_lift_p_gt_m_not_positive_names_the_higher_weight_span():
    # m = 2, p = 3: the targets are contractive at weight 3, but the
    # positivity gap (the weight-two Pick matrix) is not PSD.
    rng = np.random.default_rng(0)
    nodes = random_ball_nodes(rng, 3, 1, radius=0.7, min_sep=0.2)
    q1 = build_subspace(KernelSpec.ball(2, 1), nodes)
    q2 = build_subspace(KernelSpec.ball(3, 1), nodes)
    targets = scaled_targets(rng, KernelSpec.ball(3, 1), nodes, weight_one=False)
    x = np_target_operator(q1, targets, q2)
    assert opnorm(x) < 1.0
    gap = check_positivity(model_tuple(q2), x, 2).matrix
    # The colligation builder tests the gap with the one eigendecomposition
    # that also gives its root, so the raised eigenvalue is that of ``eigh``.
    gap_min = float(np.linalg.eigh(gap)[0][0])
    assert gap_min < -1e-3
    with pytest.raises(NotPositive) as err:
        lift_p_gt_m(q1, q2, x)
    assert err.value.min_eig == gap_min
    assert str(err.value) == (
        f"positivity fails with min eigenvalue {gap_min:.6e} "
        "(positivity gap on the higher-weight span)"
    )


def test_factorization_criterion_cases():
    rng = np.random.default_rng(17)
    samples = random_interior_points(rng, 30, 2, radius=0.8)
    zero = factorization_criterion(lambda z: np.zeros((1, 1)), 1, 3, samples, tol=1e-9, n=2)
    assert zero.passed
    # constant unitary at p = m: the sampled matrix vanishes identically
    unit = factorization_criterion(lambda z: np.eye(1), 2, 2, samples, tol=1e-9, n=2)
    assert unit.passed and abs(unit.min_eig) <= 1e-9
    # constant one with room: dominated by the higher-weight kernel
    one = factorization_criterion(lambda z: np.eye(1), 1, 3, samples, tol=1e-9, n=2)
    assert one.passed


def test_factorization_criterion_on_composite():
    rng = np.random.default_rng(18)
    nodes = random_ball_nodes(rng, 2, 2)
    q1 = build_subspace(KernelSpec.ball(1, 2), nodes)
    q2 = build_subspace(KernelSpec.ball(2, 2), nodes)
    targets = scaled_targets(rng, KernelSpec.ball(2, 2), nodes, weight_one=False)
    x = np_target_operator(q1, targets, q2)
    comp = lift_p_gt_m(q1, q2, x)
    samples = random_interior_points(rng, 40, 2, radius=0.85)
    crit = factorization_criterion(comp.composite, 1, 2, samples, tol=1e-7, n=2)
    assert crit.passed
