import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlift import (
    KernelSpec,
    build_subspace,
    model_tuple,
    multiplier_adjoint_action,
    np_target_operator,
)
from schurlift.errors import DimensionMismatch, IllConditioned
from schurlift.hypercontraction import cp_map, hereditary
from schurlift.lifting_ball import target_pick_matrix
from schurlift.linalg import min_eig, opnorm
from schurlift.model_space import TupleOperator

from conftest import random_ball_nodes, random_polydisc_nodes


def test_single_node_at_origin_gram():
    space = build_subspace(KernelSpec.ball(1, 1), [(0.0,)])
    assert space.gram.shape == (1, 1)
    assert space.gram[0, 0] == pytest.approx(1.0)


def test_single_node_gram_value():
    z = (np.sqrt(0.5),)
    space = build_subspace(KernelSpec.ball(1, 1), [z])
    assert space.gram[0, 0] == pytest.approx(2.0)


def test_coincident_nodes_rejected():
    with pytest.raises(ValueError):
        build_subspace(KernelSpec.ball(1, 1), [(0.3,), (0.3,)])


def test_clustered_nodes_ill_conditioned():
    with pytest.raises(IllConditioned):
        build_subspace(KernelSpec.ball(1, 1), [(0.3,), (0.3 + 1e-9,)])


def test_ortho_factor_orthonormalizes():
    rng = np.random.default_rng(5)
    space = build_subspace(KernelSpec.ball(2, 2, d_coeff=2), random_ball_nodes(rng, 3, 2))
    lhs = space.ortho_factor.conj().T @ space.gram @ space.ortho_factor
    assert opnorm(lhs - np.eye(space.dim)) < 1e-12


def test_model_tuple_single_node_is_scalar():
    z = (0.4 - 0.2j,)
    space = build_subspace(KernelSpec.ball(1, 1), [z])
    s = model_tuple(space)
    assert s[0].shape == (1, 1)
    assert s[0][0, 0] == pytest.approx(z[0])


def test_model_tuple_adjoint_eigenvalues_are_conjugated_nodes():
    rng = np.random.default_rng(6)
    nodes = random_polydisc_nodes(rng, 3, 2)
    space = build_subspace(KernelSpec.polydisc((1, 1)), nodes)
    s = model_tuple(space)
    for i in range(2):
        eigs = sorted(np.linalg.eigvals(s[i].conj().T), key=lambda v: (v.real, v.imag))
        expect = sorted((z[i].conjugate() for z in nodes), key=lambda v: (v.real, v.imag))
        assert np.allclose(eigs, expect, atol=1e-10)


def test_model_tuple_vanishes_off_axis():
    nodes = [(0.2, 0.0), (0.5, 0.0), (-0.3, 0.0)]
    space = build_subspace(KernelSpec.ball(1, 2), nodes)
    s = model_tuple(space)
    assert opnorm(s[1]) < 1e-12


def test_model_tuple_commutes():
    rng = np.random.default_rng(7)
    space = build_subspace(KernelSpec.ball(2, 3, d_coeff=2), random_ball_nodes(rng, 4, 3))
    s = model_tuple(space)
    for i in range(3):
        for j in range(i + 1, 3):
            assert opnorm(s[i] @ s[j] - s[j] @ s[i]) <= 1e-12 * space.dim


def test_ball_model_is_row_contraction():
    rng = np.random.default_rng(8)
    nodes = random_ball_nodes(rng, 4, 2, radius=0.8)
    space = build_subspace(KernelSpec.ball(3, 2), nodes)
    s = model_tuple(space)
    gap = np.eye(space.dim) - cp_map(s, np.eye(space.dim, dtype=complex))
    assert min_eig(gap) > 0


def test_polydisc_model_hereditary_psd():
    rng = np.random.default_rng(9)
    nodes = random_polydisc_nodes(rng, 3, 2)
    space = build_subspace(KernelSpec.polydisc((2, 1)), nodes)
    s = model_tuple(space)
    assert min_eig(hereditary(s, (2, 1), np.eye(s.dim))) > -1e-12


def test_coeff_map_at_zero_reproduces_defect():
    # the evaluation-at-origin Gram equals the hereditary operator exactly
    rng = np.random.default_rng(10)
    nodes = random_ball_nodes(rng, 3, 2)
    for m in (1, 2, 3):
        space = build_subspace(KernelSpec.ball(m, 2), nodes)
        s = model_tuple(space)
        g = space.coeff_map_at_zero()
        assert opnorm(g.conj().T @ g - hereditary(s, m, np.eye(s.dim))) < 1e-10

    nodes = random_polydisc_nodes(rng, 3, 2)
    space = build_subspace(KernelSpec.polydisc((2, 1)), nodes)
    s = model_tuple(space)
    g = space.coeff_map_at_zero()
    assert opnorm(g.conj().T @ g - hereditary(s, (2, 1), np.eye(s.dim))) < 1e-10


def test_np_target_zero_and_identity():
    rng = np.random.default_rng(11)
    nodes = random_ball_nodes(rng, 3, 2)
    spec = KernelSpec.ball(2, 2, d_coeff=2)
    space = build_subspace(spec, nodes)
    zero = np_target_operator(space, [np.zeros((2, 2))] * 3, space)
    assert opnorm(zero) == 0.0
    ident = np_target_operator(space, [np.eye(2)] * 3, space)
    assert opnorm(ident - np.eye(space.dim)) < 1e-12


def test_np_target_intertwines_exactly():
    rng = np.random.default_rng(12)
    nodes = random_ball_nodes(rng, 4, 2)
    q1 = build_subspace(KernelSpec.ball(2, 2, d_coeff=2), nodes)
    q2 = build_subspace(KernelSpec.ball(2, 2, d_coeff=1), nodes)
    targets = [rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)) for _ in nodes]
    x = np_target_operator(q1, targets, q2)
    t = model_tuple(q1)
    s = model_tuple(q2)
    for i in range(2):
        assert opnorm(x @ t[i] - s[i] @ x) < 1e-11


def test_np_target_norm_matches_pick_matrix():
    # brute-force oracle: contraction iff the weight-m block matrix is PSD
    rng = np.random.default_rng(13)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 3, 2)
    space = build_subspace(spec, nodes)
    for scale in (0.5, 0.9, 1.3, 2.0):
        targets = [scale * np.array([[v]]) for v in (0.5, -0.4 + 0.2j, 0.3j)]
        x = np_target_operator(space, targets, space)
        pick = target_pick_matrix(spec, nodes, targets)
        if min_eig(pick) >= 1e-10:
            assert opnorm(x) <= 1 + 1e-9
        elif min_eig(pick) <= -1e-10:
            assert opnorm(x) > 1


def test_np_target_shape_validation():
    rng = np.random.default_rng(14)
    nodes = random_ball_nodes(rng, 2, 1)
    space = build_subspace(KernelSpec.ball(1, 1), nodes)
    with pytest.raises(DimensionMismatch):
        np_target_operator(space, [np.zeros((2, 2))] * 2, space)
    with pytest.raises(DimensionMismatch):
        np_target_operator(space, [np.zeros((1, 1))], space)


def test_multiplier_adjoint_constant():
    rng = np.random.default_rng(15)
    nodes = random_ball_nodes(rng, 3, 2)
    spec = KernelSpec.ball(1, 2, d_coeff=2)
    space = build_subspace(spec, nodes)
    c = np.array([[0.3, 0.1j], [0.0, -0.2]])
    action = multiplier_adjoint_action(space, np.stack([c] * 3))
    expected = np_target_operator(space, [c] * 3, space).conj().T
    assert opnorm(action - expected) < 1e-12


def test_multiplier_adjoint_coordinate_matches_model_tuple():
    rng = np.random.default_rng(16)
    nodes = random_polydisc_nodes(rng, 3, 2)
    space = build_subspace(KernelSpec.polydisc((1, 1)), nodes)
    s = model_tuple(space)
    action = multiplier_adjoint_action(space, np.array([[[z[0]]] for z in space.nodes]))
    assert opnorm(action - s[0].conj().T) < 1e-11


def test_multiplier_adjoint_rejects_values_of_the_wrong_shape():
    rng = np.random.default_rng(15)
    space = build_subspace(KernelSpec.ball(1, 2, d_coeff=2), random_ball_nodes(rng, 3, 2))
    with pytest.raises(DimensionMismatch):
        multiplier_adjoint_action(space, np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        multiplier_adjoint_action(space, np.zeros((3, 1, 2)))


def test_tuple_operator_rejects_noncommuting():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        TupleOperator((a, b))


def test_gram_condition_reported():
    rng = np.random.default_rng(17)
    space = build_subspace(KernelSpec.ball(1, 2), random_ball_nodes(rng, 3, 2))
    assert np.isfinite(space.gram_cond) and space.gram_cond >= 1.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    geometry=st.sampled_from(["ball", "polydisc"]),
    r=st.integers(1, 6),
    n=st.integers(1, 3),
    d=st.integers(1, 3),
    weights=st.lists(st.integers(1, 3), min_size=3, max_size=3),
)
def test_model_tuple_carries_its_joint_eigenbasis(seed, geometry, r, n, d, weights):
    rng = np.random.default_rng(seed)
    if geometry == "ball":
        spec = KernelSpec.ball(weights[0], n, d)
        nodes = random_ball_nodes(rng, r, n)
    else:
        spec = KernelSpec.polydisc(weights[:n], d)
        nodes = random_polydisc_nodes(rng, r, n)
    s = model_tuple(build_subspace(spec, nodes))
    mats, (vecs, lam) = s.eigenbasis_cache
    assert mats is s.mats
    # The joint eigenvalues are the nodes, each d times in the order of
    # kron(kernel, I_d), exactly.
    assert np.array_equal(lam, np.repeat(np.asarray(nodes, dtype=complex), d, axis=0))
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-12)
    for a in (vecs, lam):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    for i, m in enumerate(s.mats):
        assert opnorm(m @ vecs - vecs * lam[:, i]) <= 1e-12 * (1.0 + opnorm(m))
