import io
import itertools
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurlift import (
    GridSpec,
    KernelSpec,
    build_ball_colligation,
    build_subspace,
    check_positivity,
    defect,
    grid_points,
    grid_scan,
    lift_p_gt_m,
    model_tuple,
    np_solve,
    np_target_operator,
    schur_agler_certificate_ball,
    series_partial_lift,
    sup_norm_scan,
    write_scan_csv,
)
from schurlift.colligation import BALL_ROW, POLYDISC_DIAGONAL, UNITARY, Colligation
from schurlift.errors import DimensionMismatch, DomainViolation, NearSingularResolvent
from schurlift.kernels import DOMAIN_MARGIN, kernel_eval, kernel_matrix
from schurlift.lifting_ball import factorization_criterion, verify_lift
from schurlift.linalg import as_matrix, herm, opnorm, opnorms
import schurlift.transfer as transfer
from schurlift.transfer import COND_LIMIT, EVAL_CHUNK, ScanResult, TransferFunction, values_at

from conftest import random_ball_nodes, random_interior_points, scaled_targets


def _moebius_result(w=0.5):
    spec = KernelSpec.ball(1, 1)
    return np_solve(spec, [(0.0,)], [np.array([[w]])])


def test_eval_at_zero_is_adjoint_of_corner_block():
    res = _moebius_result()
    assert np.allclose(res.phi((0,)), res.colligation.block_a.conj().T)


def test_moebius_closed_form():
    res = _moebius_result(0.5)
    for z in np.linspace(-0.95, 0.95, 21):
        expected = (0.5 + z) / (1 + 0.5 * z)
        assert abs(res.phi((z,))[0, 0] - expected) < 1e-12


def test_eval_rejects_boundary():
    res = _moebius_result()
    with pytest.raises(DomainViolation):
        res.phi((1.0,))


def test_contractive_on_random_samples():
    rng = np.random.default_rng(0)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 3, 2)
    targets = scaled_targets(rng, spec, nodes)
    res = np_solve(spec, nodes, targets)
    for z in random_interior_points(rng, 500, 2, radius=0.95):
        assert opnorm(res.phi(z)) <= 1 + 1e-8


def test_series_partial_lift_first_order_formula():
    rng = np.random.default_rng(1)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 3, 2)
    q1 = build_subspace(spec, nodes)
    q2 = build_subspace(spec, nodes)
    t, s = model_tuple(q1), model_tuple(q2)
    x = np_target_operator(q1, scaled_targets(rng, spec, nodes), q2)
    coll = build_ball_colligation(
        s,
        x,
        check_positivity(s, x, 2).matrix,
        in_map=defect(s, spec).coord_map,
        out_map=defect(t, spec).coord_map,
    )
    partial, bound = series_partial_lift(coll, s, 1)
    direct = coll.block_a @ coll.in_map
    for j in range(s.n):
        direct = direct + coll.b_blocks()[j] @ coll.block_c @ coll.in_map @ s[j].conj().T
    assert opnorm(partial - direct) < 1e-13
    assert bound > 0


def test_series_partial_lift_converges_and_respects_bound():
    rng = np.random.default_rng(2)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 3, 2, radius=0.45)
    q1 = build_subspace(spec, nodes)
    q2 = build_subspace(spec, nodes)
    t, s = model_tuple(q1), model_tuple(q2)
    x = np_target_operator(q1, scaled_targets(rng, spec, nodes), q2)
    coll = build_ball_colligation(
        s,
        x,
        check_positivity(s, x, 2).matrix,
        in_map=defect(s, spec).coord_map,
        out_map=defect(t, spec).coord_map,
    )
    prev = None
    for order in range(1, 14):
        partial, bound = series_partial_lift(coll, s, order)
        residual = opnorm(partial - coll.out_target)
        assert residual <= bound + 1e-12
        if prev is not None:
            assert residual <= prev + 1e-12
        prev = residual
    assert prev <= 1e-8


def test_certificate_constant_contraction_and_violation():
    rng = np.random.default_rng(3)
    samples = random_interior_points(rng, 50, 2)
    c = np.array([[0.3, 0.2], [0.0, -0.5]])
    good = schur_agler_certificate_ball(lambda z: c, samples, tol=1e-9)
    assert good.passed
    bad = schur_agler_certificate_ball(lambda z: np.array([[2.0]]), samples, tol=1e-9)
    assert not bad.passed and bad.min_eig < 0


def test_certificate_solved_instance():
    rng = np.random.default_rng(4)
    spec = KernelSpec.ball(1, 2)
    nodes = random_ball_nodes(rng, 3, 2)
    targets = scaled_targets(rng, spec, nodes)
    res = np_solve(spec, nodes, targets)
    samples = random_interior_points(rng, 200, 2)
    cert = schur_agler_certificate_ball(res.phi, samples, tol=1e-7)
    assert cert.min_eig >= -1e-9


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    count=st.integers(20, 200),
    c=st.floats(1.001, 10.0),
    p=st.integers(2, 40),
)
def test_factorization_criterion_fails_every_constant_above_one(seed, n, count, c, p):
    """At the origin the scaled diagonal entry is ``1 - c^2``, so a constant
    ``c > 1`` fails at every weight, however large the kernel's norm."""
    samples = [(0.0,) * n] + random_interior_points(np.random.default_rng(seed), count - 1, n)
    crit = factorization_criterion(lambda z: np.array([[c]]), 1, p, samples, tol=1e-7, n=n)
    assert not crit.passed and crit.min_eig <= 1.0 - c**2


def _loop_schur_agler_min_eig(phi_eval, samples):
    """Reference: the sampled Pick-type matrix assembled one block at a time,
    block ``(a, b)`` divided by ``sqrt(K(u_a, u_a) K(u_b, u_b))``."""
    points = [np.asarray(u, dtype=complex).reshape(-1) for u in samples]
    values = [np.atleast_2d(phi_eval(u)) for u in points]
    d = values[0].shape[0]
    mat = np.zeros((len(points) * d, len(points) * d), dtype=complex)
    for a in range(len(points)):
        for b in range(len(points)):
            pairing = complex(np.sum(points[a] * points[b].conj()))
            block = (np.eye(d) - values[a] @ values[b].conj().T) / (1.0 - pairing)
            scale = np.sqrt((1.0 - np.sum(np.abs(points[a]) ** 2)) * (1.0 - np.sum(np.abs(points[b]) ** 2)))
            mat[a * d : (a + 1) * d, b * d : (b + 1) * d] = block * scale
    return float(np.linalg.eigvalsh(herm(mat))[0])


def _loop_factorization_min_eig(phi_eval, m, p, samples, n):
    """Reference: ``K_{p-m+1} I - K_1 phi(u_a) phi(u_b)*`` one block at a time,
    block ``(a, b)`` divided by ``sqrt(K_{p-m+1}(u_a, u_a) K_{p-m+1}(u_b, u_b))``."""
    points = [np.asarray(u, dtype=complex).reshape(-1) for u in samples]
    values = [np.atleast_2d(phi_eval(u)) for u in points]
    d = values[0].shape[0]
    high, one = KernelSpec.ball(p - m + 1, n), KernelSpec.ball(1, n)
    mat = np.zeros((len(points) * d, len(points) * d), dtype=complex)
    for a in range(len(points)):
        for b in range(len(points)):
            block = kernel_eval(high, points[a], points[b]) * np.eye(d) - kernel_eval(
                one, points[a], points[b]
            ) * (values[a] @ values[b].conj().T)
            scale = np.sqrt(kernel_eval(high, points[a], points[a]) * kernel_eval(high, points[b], points[b]))
            mat[a * d : (a + 1) * d, b * d : (b + 1) * d] = block / scale
    return float(np.linalg.eigvalsh(herm(mat))[0])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    m=st.sampled_from([1, 2]),
    d=st.sampled_from([1, 2]),
)
def test_vectorized_certificates_match_loop_reference(seed, n, m, d):
    rng = np.random.default_rng(seed)
    nodes = random_ball_nodes(rng, 3, n, radius=0.6, min_sep=0.2)
    spec = KernelSpec.ball(m, n, d)
    res = np_solve(spec, nodes, scaled_targets(rng, spec, nodes, d_out=d), d_target=d)
    samples = random_interior_points(rng, 40, n, radius=0.9)
    cert = schur_agler_certificate_ball(res.phi, samples, tol=1e-7)
    assert abs(cert.min_eig - _loop_schur_agler_min_eig(res.phi, samples)) <= 1e-12

    spec_p = KernelSpec.ball(m + 1, n)
    q1 = build_subspace(KernelSpec.ball(1, n), nodes)
    q2 = build_subspace(spec_p, nodes)
    targets = scaled_targets(rng, spec_p, nodes, weight_one=False)
    comp = lift_p_gt_m(q1, q2, np_target_operator(q1, targets, q2))
    crit = factorization_criterion(comp.composite, 1, m + 1, samples, tol=1e-7, n=n)
    reference = _loop_factorization_min_eig(comp.composite, 1, m + 1, samples, n)
    assert abs(crit.min_eig - reference) <= 1e-12


def test_sup_norm_scan_zero_and_constant():
    pts = [(0.1,), (0.5j,), (-0.3,)]
    zero = sup_norm_scan(lambda z: np.zeros((1, 1)), pts)
    assert zero.max_norm == 0.0
    c = np.array([[0.3, 0.1], [0.2, 0.4]])
    const = sup_norm_scan(lambda z: c, pts)
    assert const.max_norm == pytest.approx(opnorm(c))
    # A NaN value is an error, not a norm that the maximum passes over.
    with pytest.raises(np.linalg.LinAlgError):
        sup_norm_scan(lambda z: np.array([[np.nan]]), pts)


def test_sup_norm_scan_moebius_bounded():
    res = _moebius_result()
    pts = grid_points(GridSpec(radii=10, angles=10, radius=0.99), "ball", 1)
    assert len(pts) == 100
    scan = sup_norm_scan(res.phi, pts)
    assert scan.max_norm <= 1 + 1e-10


def test_grid_points_interior_and_deterministic():
    grid = GridSpec(radii=3, angles=4, radius=0.9)
    pts1 = grid_points(grid, "ball", 2)
    pts2 = grid_points(grid, "ball", 2)
    assert np.array_equal(pts1, pts2)
    assert pts1.shape == (144, 2)
    assert np.all(np.sum(np.abs(pts1) ** 2, axis=1) < 1.0)


def _product_grid(grid, geometry, n):
    """Reference: the axis values one at a time, then ``itertools.product``."""
    scale = grid.radius / np.sqrt(n) if geometry in (BALL_ROW, "ball") else grid.radius
    axis = []
    for t in range(grid.radii):
        r = scale * (t + 1) / grid.radii
        for a in range(grid.angles):
            axis.append(r * np.exp(1j * (2.0 * np.pi * a / grid.angles)))
    return list(itertools.product(axis, repeat=n))


@pytest.mark.parametrize("geometry", ["ball", POLYDISC_DIAGONAL])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("grid", [GridSpec(3, 4, 0.9), GridSpec(1, 1, 0.5), GridSpec(4, 7, 0.37)])
def test_grid_points_follow_the_product_order(geometry, n, grid):
    pts = grid_points(grid, geometry, n)
    reference = _product_grid(grid, geometry, n)
    assert pts.shape == (len(reference), n) and pts.dtype == complex
    assert pts.flags.c_contiguous
    # Element for element, signed zeros included.
    for z, want in zip(pts, reference):
        for got_i, want_i in zip(z, want):
            assert got_i == want_i
            assert np.signbit(got_i.real) == np.signbit(want_i.real)
            assert np.signbit(got_i.imag) == np.signbit(want_i.imag)


def test_write_scan_csv_format():
    res = _moebius_result()
    scan = sup_norm_scan(res.phi, [(0.25,), (0.5j,)])
    buf = io.StringIO()
    write_scan_csv(scan, 1, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "re(z1),im(z1),opnorm"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.25 and float(first[1]) == 0.0


def test_polydisc_equal_coordinates_match_single_variable_formula():
    # with all coordinates equal the diagonal evaluation collapses to one variable
    rng = np.random.default_rng(5)
    from schurlift import np_solve_polydisc

    spec = KernelSpec.polydisc((1, 1))
    nodes = [(0.3, 0.1), (-0.2, 0.25), (0.1j, -0.2j)]
    targets = [0.5 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
    res = np_solve_polydisc(spec, nodes, targets, feasibility_tol=1e-10)
    coll = res.colligation
    for z in (0.2, -0.3j, 0.4 + 0.1j):
        direct = coll.block_a.conj().T + coll.block_c.conj().T @ np.linalg.solve(
            np.eye(sum(coll.in_state_dims)) - z * coll.block_d.conj().T,
            z * coll.block_b.conj().T,
        )
        assert np.allclose(res.phi((z, z)), direct, atol=1e-12)


def test_unitary_transfer_certificate_everywhere():
    # transfer functions of unitary completions stay certified on every sample set
    res = _moebius_result(0.3)
    assert res.colligation.kind == UNITARY
    rng = np.random.default_rng(6)
    for trial in range(3):
        samples = random_interior_points(rng, 60, 1, radius=0.97)
        cert = schur_agler_certificate_ball(res.phi, samples, tol=1e-9)
        assert cert.min_eig >= -1e-9


def _loop_resolvent(tf, z):
    """Reference: ``(I - Z D*, Z B*)`` at one point of a colligation with state."""
    coll = tf.colligation
    if tf.geometry == BALL_ROW:
        d_blocks, b_blocks = coll.d_blocks(), coll.b_blocks()
        zd = sum(z[i] * d_blocks[i].conj().T for i in range(tf.n))
        zb = sum(z[i] * b_blocks[i].conj().T for i in range(tf.n))
    else:
        weights = np.concatenate(
            [np.full(d, z[i]) for i, d in enumerate(coll.in_state_dims)]
        )
        zd = weights[:, None] * coll.block_d.conj().T
        zb = weights[:, None] * coll.block_b.conj().T
    return np.eye(zd.shape[0], dtype=complex) - zd, zb


def _loop_eval(tf, z):
    """Reference: the single-point resolvent formula and its errors, one
    point at a time."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    tf.domain.require_interior(z)
    coll = tf.colligation
    a_adj = coll.block_a.conj().T
    if sum(coll.in_state_dims) == 0:
        return a_adj.copy()
    resolvent, zb = _loop_resolvent(tf, z)
    if np.linalg.cond(resolvent) >= COND_LIMIT:
        raise NearSingularResolvent(f"resolvent nearly singular at {z}")
    return a_adj + coll.block_c.conj().T @ np.linalg.solve(resolvent, zb)


def _loop_values(phi_eval, points):
    """Reference: per-point values of any evaluator, stacked."""
    return np.stack([as_matrix(phi_eval(z)) for z in points])


def _loop_sup_norm_scan(phi_eval, points):
    """Reference: the scan with one ``opnorm`` per point."""
    coords, norms = [], []
    max_norm = 0.0
    for z in points:
        z = tuple(np.asarray(z, dtype=complex).reshape(-1))
        norm = opnorm(as_matrix(phi_eval(z)))
        coords.append(z)
        norms.append(norm)
        max_norm = max(max_norm, norm)
    return ScanResult(points=np.array(coords, dtype=complex).reshape(len(coords), -1),
                      norms=np.array(norms), max_norm=max_norm)


def _same_scan(scan, reference):
    """Equal points, equal norms bit for bit, and the same maximum."""
    return (
        np.array_equal(scan.points, reference.points)
        and np.array_equal(scan.norms, reference.norms)
        and scan.max_norm == reference.max_norm
    )


def _colligation(matrix, geometry, d_out, d_in, in_state_dims, out_state_dims):
    """A hand-made colligation; its transfer function maps C^d_in to C^d_out."""
    return Colligation(
        matrix=np.asarray(matrix, dtype=complex),
        geometry=geometry,
        kind=UNITARY,
        in_defect_dim=d_out,
        in_state_dims=tuple(in_state_dims),
        out_defect_dim=d_in,
        out_state_dims=tuple(out_state_dims),
        generating_residual=0.0,
        norm=1.0,
    )


def _random_transfer(rng, geometry, n, d_out, d_in, state):
    """Transfer function of a random contractive colligation (norm 1)."""
    if geometry == BALL_ROW:
        in_states, out_states = (state,) * n, (state,)
    else:
        in_states = out_states = tuple(int(rng.integers(1, state + 1)) for _ in range(n))
    rows, cols = d_in + sum(out_states), d_out + sum(in_states)
    mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    coll = _colligation(mat / np.linalg.norm(mat, 2), geometry, d_out, d_in, in_states, out_states)
    return TransferFunction(coll)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    geometry=st.sampled_from([BALL_ROW, POLYDISC_DIAGONAL]),
    n=st.integers(1, 3),
    d_out=st.sampled_from([1, 2]),
    d_in=st.sampled_from([1, 2]),
    state=st.integers(1, 4),
    count=st.sampled_from([1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 600]),
)
def test_eval_many_is_bit_identical_to_pointwise(seed, geometry, n, d_out, d_in, state, count):
    rng = np.random.default_rng(seed)
    tf = _random_transfer(rng, geometry, n, d_out, d_in, state)
    points = random_interior_points(
        rng, count, n, radius=0.95, geometry="ball" if geometry == BALL_ROW else "polydisc"
    )
    values = tf.eval_many(points)
    assert values.shape == (count, d_out, d_in)
    assert np.array_equal(values, np.stack([tf.eval(z) for z in points]))
    assert np.array_equal(tf.eval_many(np.array(points)), values)
    assert np.array_equal(values, np.stack([_loop_eval(tf, z) for z in points]))
    assert np.array_equal(values_at(tf, points), values)

    scan = sup_norm_scan(tf, points)
    assert _same_scan(scan, _loop_sup_norm_scan(tf, points))
    assert all(norm == opnorm(tf.eval(z)) for z, norm in zip(scan.points, scan.norms))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    m=st.sampled_from([1, 2]),
    d=st.sampled_from([1, 2]),
)
def test_emitted_function_values_are_contractions(seed, n, m, d):
    rng = np.random.default_rng(seed)
    nodes = random_ball_nodes(rng, 4, n, radius=0.6, min_sep=0.2)
    spec = KernelSpec.ball(m, n, d)
    res = np_solve(spec, nodes, scaled_targets(rng, spec, nodes, d_out=d), d_target=d)
    points = random_interior_points(rng, 300, n, radius=0.99)
    norms = np.linalg.norm(values_at(res.phi, points), 2, axis=(-2, -1))
    assert norms.max() <= 1.0 + 1e-12


def _singular_at_half():
    """Polydisc n=1, state dimension 2: the resolvent ``diag(1 - 2z, 1)``."""
    mat = np.zeros((3, 3))
    mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1] = 0.5, 0.3, 0.3, 2.0
    return TransferFunction(_colligation(mat, POLYDISC_DIAGONAL, 1, 1, (2,), (2,)))


def _rule_error(tf, points):
    """Reference: the one rule, in three passes over the points.  The first
    wrong coordinate count, else the first point not strictly inside, else
    the first nearly singular resolvent."""
    rows = [np.asarray(z, dtype=complex).reshape(-1) for z in points]
    for check in (tf.domain.boundary_gap, tf.domain.require_interior, lambda z: _loop_eval(tf, z)):
        for z in rows:
            try:
                check(z)
            except Exception as exc:  # noqa: BLE001 - the reference records any error
                return type(exc), str(exc)
    return None


GOOD, NEAR_SINGULAR, OUTSIDE, WRONG_SIZE = (0.1,), (0.5 - 1e-14,), (1.0,), (0.1, 0.2)


@pytest.mark.parametrize(
    "points, expected",
    [
        ([GOOD, WRONG_SIZE], DimensionMismatch),
        ([GOOD, OUTSIDE], DomainViolation),
        ([GOOD, NEAR_SINGULAR], NearSingularResolvent),
        # A bad point anywhere in the batch wins over a singular resolvent.
        ([GOOD, NEAR_SINGULAR, OUTSIDE], DomainViolation),
        ([GOOD, OUTSIDE, NEAR_SINGULAR], DomainViolation),
        ([NEAR_SINGULAR, WRONG_SIZE], DimensionMismatch),
        ([WRONG_SIZE, NEAR_SINGULAR], DimensionMismatch),
        ([GOOD] * (EVAL_CHUNK + 3) + [OUTSIDE, NEAR_SINGULAR], DomainViolation),
        ([GOOD] * (EVAL_CHUNK + 3) + [NEAR_SINGULAR, OUTSIDE], DomainViolation),
        ([GOOD] * (EVAL_CHUNK - 1) + [NEAR_SINGULAR, OUTSIDE], DomainViolation),
        ([GOOD] * EVAL_CHUNK + [WRONG_SIZE, OUTSIDE], DimensionMismatch),
        # A wrong coordinate count wins over an earlier exterior point.
        ([OUTSIDE, WRONG_SIZE], DimensionMismatch),
        # Among singular resolvents the first decides, across chunks.
        ([GOOD] * (EVAL_CHUNK - 1) + [NEAR_SINGULAR, (0.5 - 2e-14,)], NearSingularResolvent),
    ],
)
def test_eval_many_checks_the_batch_before_evaluating(points, expected):
    tf = _singular_at_half()
    reference = _rule_error(tf, points)
    assert reference is not None and reference[0] is expected
    with pytest.raises(expected) as info:
        tf.eval_many(points)
    assert (type(info.value), str(info.value)) == reference


def _ball_singular_at_half(n):
    """Ball row, n variables, state dimension 2: the resolvent ``diag(1 - 2 z_1, 1)``."""
    mat = np.zeros((3, 1 + 2 * n))
    mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1] = 0.5, 0.3, 0.3, 2.0
    return TransferFunction(_colligation(mat, BALL_ROW, 1, 1, (2,) * n, (2,)))


def _rule_composite(n):
    """The composite of a lift from weight 1 into weight 2 on the ball in n variables."""
    rng = np.random.default_rng(70 + n)
    nodes = random_ball_nodes(rng, 3, n, radius=0.6, min_sep=0.2)
    q1, q2 = build_subspace(KernelSpec.ball(1, n), nodes), build_subspace(KernelSpec.ball(2, n), nodes)
    targets = scaled_targets(rng, KernelSpec.ball(2, n), nodes, weight_one=False)
    return lift_p_gt_m(q1, q2, np_target_operator(q1, targets, q2)).composite


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the property compares any error
        return type(exc), str(exc)
    return None


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    lead=st.sampled_from([0, 1, EVAL_CHUNK - 2, EVAL_CHUNK, EVAL_CHUNK + 1]),
    kinds=st.lists(st.sampled_from(["good", "wrong", "outside", "near"]), max_size=5),
)
def test_every_evaluator_takes_the_one_point_rule(n, lead, kinds):
    """A batch with a domain error raises the same exception type and message
    from every evaluator of the geometry; a nearly singular resolvent is
    reported only for batches without one."""
    good = (0.1,) + (0.05j,) * (n - 1)
    point = {"good": good, "wrong": (0.1,) * (n + 1), "outside": (0.8,) * 2 if n == 2 else (1.0,),
             "near": (0.5 - 1e-14,) + (0.0,) * (n - 1)}
    batch = [good] * lead + [point[k] for k in kinds]
    spec = KernelSpec.ball(1, n)
    tf, composite = _ball_singular_at_half(n), _rule_composite(n)
    domain_error = _raised(lambda: kernel_matrix(spec, batch, batch))
    evaluators = [
        lambda: build_subspace(spec, [good]).eval_many(batch),
        lambda: tf.eval_many(batch),
        lambda: composite.eval_many(batch),
        lambda: values_at(tf, batch),
        lambda: sup_norm_scan(tf, batch),
    ]
    errors = [_raised(call) for call in evaluators]
    if domain_error is not None:
        assert domain_error[0] in (DimensionMismatch, DomainViolation)
        assert errors == [domain_error] * len(evaluators)
    else:
        # The composite of a contractive lift has no singular resolvent inside.
        singular = NearSingularResolvent if "near" in kinds else None
        assert [e and e[0] for e in errors] == [None, singular, None, singular, singular]


def test_eval_many_edge_shapes():
    tf = _singular_at_half()
    assert tf.eval_many([]).shape == (0, 1, 1)

    a = np.array([[0.2, 0.1j], [0.0, -0.3], [0.4, 0.0]])  # A: C^2 -> C^3
    stateless = TransferFunction(_colligation(a, BALL_ROW, 2, 3, (0, 0), (0,)))
    points = [(0.1, 0.2j), (0.0, 0.0), (-0.5, 0.3)]
    values = stateless.eval_many(points)
    assert values.shape == (3, 2, 3)
    assert all(np.array_equal(v, a.conj().T) for v in values)
    assert stateless.eval_many([]).shape == (0, 2, 3)
    with pytest.raises(DomainViolation):
        stateless.eval_many([(0.1, 0.2j), (0.9, 0.9)])
    # A wrong coordinate count raises the message of ``interior_points``,
    # also from an array with the wrong number of columns.
    for wrong in ([(0.1, 0.2j), (0.1,)], np.zeros((2, 3))):
        with pytest.raises(DimensionMismatch, match="point has .* coordinates, spec expects 2"):
            stateless.eval_many(wrong)

    empty = sup_norm_scan(tf, [])
    assert empty.max_norm == 0.0 and empty.points.size == 0 and empty.norms.shape == (0,)
    assert sup_norm_scan(lambda z: np.eye(2), []).max_norm == 0.0
    with pytest.raises(ValueError):
        schur_agler_certificate_ball(tf, [], tol=1e-9)
    with pytest.raises(ValueError):
        factorization_criterion(tf, 1, 2, [], tol=1e-9)


def test_values_at_falls_back_to_pointwise_calls():
    calls = []

    def phi(z):
        calls.append(z)
        return np.array([[z[0], 0.5]])

    points = [(0.1,), (0.2j,), (-0.3,)]
    values = values_at(phi, points)
    assert calls == points
    assert np.array_equal(values, _loop_values(phi, points))
    assert values.dtype == complex and values.shape == (3, 1, 2)


def _count_cond(monkeypatch):
    """Count the matrices ``np.linalg.cond`` sees from ``schurlift.transfer``."""
    seen = []

    def cond(x, *args, **kwargs):
        seen.append(1 if np.ndim(x) == 2 else len(x))
        return np.linalg.cond(x, *args, **kwargs)

    linalg = types.SimpleNamespace(**{**vars(np.linalg), "cond": cond})
    monkeypatch.setattr(transfer, "np", types.SimpleNamespace(**{**vars(np), "linalg": linalg}))
    return seen


def _near_boundary_points(rng, geometry, n, count):
    """Points at boundary gaps from ``2 DOMAIN_MARGIN`` to 1, in random directions."""
    gaps = np.concatenate([[2 * DOMAIN_MARGIN, 1e-9, 1e-6, 1e-3], rng.uniform(0, 1, count - 4)])
    points = []
    for gap in gaps:
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u) if geometry == BALL_ROW else np.abs(u).max()
        points.append(tuple(np.sqrt(1.0 - gap) * u))
    return points


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    geometry=st.sampled_from([BALL_ROW, POLYDISC_DIAGONAL]),
    n=st.integers(1, 3),
    state=st.integers(1, 6),
    d_norm=st.floats(0.5, 3.0),
)
def test_resolvent_gate_never_clears_an_ill_conditioned_point(seed, geometry, n, state, d_norm):
    rng = np.random.default_rng(seed)
    if geometry == BALL_ROW:
        in_states, out_states = (state,) * n, (state,)
    else:
        in_states = out_states = tuple(int(rng.integers(1, state + 1)) for _ in range(n))
    rows, cols = 1 + sum(out_states), 1 + sum(in_states)
    mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    mat[1:, 1:] *= d_norm / np.linalg.norm(mat[1:, 1:], 2)
    tf = TransferFunction(_colligation(mat, geometry, 1, 1, in_states, out_states))
    points = [
        z for z in _near_boundary_points(rng, geometry, n, 40)
        if tf.domain.boundary_gap(z) > DOMAIN_MARGIN
    ]

    # Every cleared point has cond < COND_LIMIT, and the Weyl bound from
    # norms taken here (``||Z||`` the row norm or the max modulus) is small.
    cleared = tf._gate_clears(tf.domain._gaps(np.array(points)))
    for z, skip in zip(np.array(points), cleared):
        if skip:
            z_norm = np.linalg.norm(z) if geometry == BALL_ROW else np.abs(z).max()
            t = z_norm * np.linalg.norm(mat[1:, 1:], 2)
            assert t < 1 and (1 + t) / (1 - t) <= transfer._GATE_LIMIT * (1 + 1e-9)
            assert np.linalg.cond(_loop_resolvent(tf, z)[0]) < COND_LIMIT
    # The gated batch gives the loop's values, or raises the first error of the rule.
    reference = _rule_error(tf, points)
    if reference is None:
        assert np.array_equal(tf.eval_many(points), np.stack([_loop_eval(tf, z) for z in points]))
    else:
        with pytest.raises(reference[0]) as info:
            tf.eval_many(points)
        assert str(info.value) == reference[1]


def test_gate_sends_the_near_singular_point_to_the_svd(monkeypatch):
    tf = _singular_at_half()
    seen = _count_cond(monkeypatch)
    assert tf.eval_many([GOOD] * 300).shape == (300, 1, 1)
    assert sum(seen) == 0
    with pytest.raises(NearSingularResolvent):
        tf.eval_many([GOOD] * 10 + [NEAR_SINGULAR])
    assert sum(seen) == 1


def test_gate_falls_back_to_the_svd_without_a_finite_norm(monkeypatch):
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 0], mat[1, 1], mat[2, 2] = 0.5, np.nan, 0.2
    broken = TransferFunction(_colligation(mat, POLYDISC_DIAGONAL, 1, 1, (2,), (2,)))
    assert np.isnan(broken._d_norm) and not broken._gate_clears(broken.domain._gaps(np.array([GOOD]))).any()
    seen = _count_cond(monkeypatch)
    reference = _rule_error(broken, [GOOD])
    assert reference is not None and reference[0] is np.linalg.LinAlgError
    with pytest.raises(np.linalg.LinAlgError) as info:
        broken.eval_many([GOOD])
    assert str(info.value) == reference[1] and sum(seen) == 1

    # A NaN coordinate clears nothing either, and errs as the reference does.
    tf = _singular_at_half()
    assert not tf._gate_clears(tf.domain._gaps(np.array([(np.nan,)]))).any()
    reference = _rule_error(tf, [GOOD, (np.nan,)])
    with pytest.raises(reference[0]) as info:
        tf.eval_many([GOOD, (np.nan,)])
    assert str(info.value) == reference[1] and sum(seen) == 2

    # Without state there is no resolvent: the value is A* everywhere.
    a = np.array([[0.2, 0.1j], [0.4, 0.0]])
    stateless = TransferFunction(_colligation(a, BALL_ROW, 2, 2, (0, 0), (0,)))
    points = [(0.1, 0.2j), (-0.5, 0.3)]
    assert np.array_equal(stateless.eval_many(points), np.stack([_loop_eval(stateless, z) for z in points]))
    assert sum(seen) == 2


def _scan_or_error(scan, *args):
    """The scan's ``(points, norms, max_norm)``, or the type and message of
    the exception it raises."""
    try:
        result = scan(*args)
    except Exception as exc:  # noqa: BLE001 - the reference records any error
        return type(exc), str(exc)
    return result.points, result.norms, result.max_norm


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(0, 5), min_size=2, max_size=3),
    d_out=st.sampled_from([1, 2]),
    d_in=st.sampled_from([1, 2]),
    # Up to 17 axis values: 289 points per axis row at n = 3, more than EVAL_CHUNK.
    grid=st.sampled_from([GridSpec(1, 1), GridSpec(2, 3, 0.95), GridSpec(3, 5, 0.5),
                          GridSpec(17, 1, 0.9)]),
    fault=st.sampled_from([None, "outer t >= 1", "nan D"]),
)
@example(seed=1, dims=[0, 3], d_out=2, d_in=1, grid=GridSpec(2, 3, 0.95), fault=None)
@example(seed=2, dims=[4, 0, 0], d_out=1, d_in=2, grid=GridSpec(17, 1, 0.9), fault=None)
@example(seed=3, dims=[2, 1, 3], d_out=2, d_in=2, grid=GridSpec(17, 1, 0.9), fault=None)
def test_grid_values_match_eval_many_on_the_grid(seed, dims, d_out, d_in, grid, fault):
    """Where the gate clears the grid, the block-eliminated values agree with
    ``eval_many`` at round-off; elsewhere ``grid_scan`` is ``sup_norm_scan``
    of the grid points, values and errors alike."""
    rng = np.random.default_rng(seed)
    n, k = len(dims), sum(dims)
    mat = rng.standard_normal((d_in + k, d_out + k)) + 1j * rng.standard_normal((d_in + k, d_out + k))
    mat /= np.linalg.norm(mat, 2)
    if k and fault == "outer t >= 1":
        mat[d_in:, d_out:] *= rng.uniform(1.0, 3.0) / (grid.radius * np.linalg.norm(mat[d_in:, d_out:], 2))
    elif k and fault == "nan D":
        mat[d_in + rng.integers(k), d_out + rng.integers(k)] = np.nan
    tf = TransferFunction(_colligation(mat, POLYDISC_DIAGONAL, d_out, d_in, dims, dims))
    points = grid_points(grid, POLYDISC_DIAGONAL, n)
    values = tf._grid_values(transfer._grid_axis(grid, POLYDISC_DIAGONAL, n), points)
    assert (values is not None) == (k > 0 and fault is None)
    got = _scan_or_error(grid_scan, tf, grid, POLYDISC_DIAGONAL, n)
    if values is None:
        want = _scan_or_error(sup_norm_scan, tf, points)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert np.array_equal(got[0], want[0]) and got[2] == want[2]
            assert np.array_equal(got[1], want[1], equal_nan=True)
        return
    reference = tf.eval_many(points)
    scale = 1.0 + np.abs(reference).max(axis=(1, 2))
    assert (np.abs(values - reference).max(axis=(1, 2)) <= 1e-12 * scale).all()
    assert np.array_equal(got[0], points) and np.array_equal(got[1], opnorms(values))
    assert got[2] == max(got[1])


def _loop_write_scan_csv(result, n, stream):
    """Reference: the CSV written one formatted coordinate at a time."""
    header = ",".join(f"re(z{i+1}),im(z{i+1})" for i in range(n))
    stream.write(header + ",opnorm\n")
    for z, norm in zip(result.points.tolist(), result.norms.tolist()):
        parts = []
        for zi in z:
            parts.append(f"{zi.real:.17g}")
            parts.append(f"{zi.imag:.17g}")
        parts.append(f"{norm:.17g}")
        stream.write(",".join(parts) + "\n")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_write_scan_csv_matches_per_row_reference(n):
    rng = np.random.default_rng(n)
    special = [0.0, -0.0, 1.0, -1e-300, 5e-324, 1e300, 0.1, 1 / 3, np.inf, np.nan]
    coords = rng.standard_normal((50, 2 * n)) * 10.0 ** rng.integers(-20, 20, (50, 2 * n))
    coords[: len(special), 0] = special
    points = coords.view(complex)
    norms = np.abs(rng.standard_normal(50)).tolist()
    norms[:3] = [0.0, 1.0, 2.0 / 3.0]
    for count in (len(norms), EVAL_CHUNK + 1, 1, 0):
        result = ScanResult(points=np.resize(points, (count, n)),
                            norms=np.resize(norms, count), max_norm=0.0)
        got, want = io.StringIO(), io.StringIO()
        write_scan_csv(result, n, got)
        _loop_write_scan_csv(result, n, want)
        assert got.getvalue() == want.getvalue()

    # Few distinct values, repeated across rows and columns: signed zeros,
    # NaNs of either sign and equal values share a column.
    pool = np.array([0.0, -0.0, np.nan, -np.nan, 1 / 3, -1 / 3, 0.5, 1e-300])
    coords = rng.choice(pool, (EVAL_CHUNK + 7, 2 * n))
    coords[:2, :] = [[0.0] * (2 * n), [-0.0] * (2 * n)]
    result = ScanResult(points=coords.view(complex), norms=np.resize(norms, len(coords)),
                        max_norm=0.0)
    got, want = io.StringIO(), io.StringIO()
    write_scan_csv(result, n, got)
    _loop_write_scan_csv(result, n, want)
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().split("\n")[2].startswith("-0,-0,")

    tf = _random_transfer(rng, POLYDISC_DIAGONAL, n, 1, 2, 3)
    scan = grid_scan(tf, GridSpec(3, 4, 0.9), POLYDISC_DIAGONAL, n)
    got, want = io.StringIO(), io.StringIO()
    write_scan_csv(scan, n, got)
    _loop_write_scan_csv(scan, n, want)
    assert got.getvalue() == want.getvalue()


def test_sup_norm_scan_accepts_scalars_arrays_and_misfits():
    tf = _singular_at_half()
    points = [0.1, 0.2j, -0.3]
    reference = _loop_sup_norm_scan(tf, points)
    for given_points in (points, iter(points), np.array(points), [np.array([[z]]) for z in points],
                         np.array(points)[:, None]):
        assert _same_scan(sup_norm_scan(tf, given_points), reference)
    # An ``(N, n)`` complex array is scanned without a copy.
    given_array = np.array(points, dtype=complex)[:, None]
    assert sup_norm_scan(tf, given_array).points is given_array
    with pytest.raises(DimensionMismatch) as info:
        sup_norm_scan(tf, [GOOD, WRONG_SIZE])
    assert (type(info.value), str(info.value)) == _rule_error(tf, [GOOD, WRONG_SIZE])
    # An evaluator that takes points of any size still gets no ragged scan.
    with pytest.raises(DomainViolation, match="same number of coordinates"):
        sup_norm_scan(lambda z: np.eye(1), [(0.1,), (0.1, 0.2)])


def _loop_composite(composite, z):
    """Reference: the per-point formula ``(kron(k(z), I_d) L) phi(z)`` of the
    coefficient function after the weight-``m`` lift."""
    space = composite.coeff_space
    row = kernel_matrix(space.spec, [z], space.nodes)
    outer = np.kron(row, np.eye(space.spec.d_coeff)) @ space.ortho_factor
    return outer @ _loop_eval(composite.factor_in, z)


@pytest.mark.parametrize("n", [1, 2])
def test_composite_interpolant_batch_equals_pointwise_calls(n):
    rng = np.random.default_rng(40 + n)
    nodes = random_ball_nodes(rng, 3, n, radius=0.6, min_sep=0.2)
    for d in (1, 2):
        q1 = build_subspace(KernelSpec.ball(1, n, d), nodes)
        q2 = build_subspace(KernelSpec.ball(2, n, d), nodes)
        targets = scaled_targets(rng, KernelSpec.ball(2, n, d), nodes, d_out=d, weight_one=False)
        x = np_target_operator(q1, targets, q2)
        lift = lift_p_gt_m(q1, q2, x)
        composite = lift.composite
        # The node values read off the inner lift are the batch's bits.
        assert np.array_equal(lift.node_values, composite.eval_many(q2.nodes))
        assert lift.verify_residual == verify_lift(composite, q2, x, q1)
        points = random_interior_points(rng, EVAL_CHUNK + 5, n, radius=0.97)
        for batch in ([], points[:1], points):
            values = composite.eval_many(batch)
            assert values.shape == (len(batch), d, d)
            if batch:
                assert np.array_equal(values, np.stack([_loop_composite(composite, z) for z in batch]))
                assert np.array_equal(values, _loop_values(composite, batch))
        assert np.array_equal(values_at(composite, np.array(points)), values)

        outside, wrong = (1.0,) + (0.0,) * (n - 1), (0.1,) * (n + 1)
        for bad in ([*points[:3], outside], [*points[:3], wrong, outside]):
            with pytest.raises(Exception) as info:
                composite.eval_many(bad)
            with pytest.raises(Exception) as loop_info:
                _loop_values(composite, bad)
            assert (type(info.value), str(info.value)) == (type(loop_info.value), str(loop_info.value))
