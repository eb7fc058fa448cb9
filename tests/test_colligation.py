import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlift import (
    KernelSpec,
    LiftResult,
    build_ball_colligation,
    build_polydisc_colligation,
    build_subspace,
    check_positivity,
    complete_pairs,
    defect,
    model_tuple,
    np_solve,
    np_target_operator,
)
from schurlift.colligation import PARTIAL_ISOMETRY, UNITARY, _orthonormal_complement
from schurlift.errors import GramMismatch, NotPositive
from schurlift.hypercontraction import cp_map, hereditary
from schurlift.linalg import opnorm

from conftest import (
    calls_on,
    random_ball_nodes,
    random_polydisc_nodes,
    record_linalg,
    scaled_targets,
)

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")


def test_complete_pairs_empty_unitary_is_identity():
    u = complete_pairs(np.zeros((3, 0)), np.zeros((3, 0)), want_unitary=True)
    assert np.array_equal(u, np.eye(3))


def test_complete_pairs_single_column_partial_isometry():
    w = 0.5
    inputs = np.array([[1.0]], dtype=complex)
    outputs = np.array([[np.conj(w)], [np.sqrt(1 - abs(w) ** 2)]], dtype=complex)
    u = complete_pairs(inputs, outputs, want_unitary=False)
    assert u.shape == (2, 1)
    assert np.allclose(u, outputs)
    assert opnorm(u) <= 1 + 1e-12


def test_complete_pairs_gram_mismatch():
    inputs = np.array([[1.0]], dtype=complex)
    outputs = np.array([[1.1]], dtype=complex)
    with pytest.raises(GramMismatch):
        complete_pairs(inputs, outputs, want_unitary=False)


def test_complete_pairs_unitary_completion_moebius():
    w = 0.5
    inputs = np.array([[1.0], [0.0]], dtype=complex)
    outputs = np.array([[np.conj(w)], [np.sqrt(1 - w**2)]], dtype=complex)
    u = complete_pairs(inputs, outputs, want_unitary=True)
    expected = np.array(
        [[np.conj(w), np.sqrt(1 - w**2)], [np.sqrt(1 - w**2), -w]], dtype=complex
    )
    assert np.allclose(u, expected, atol=1e-12)


def test_complete_pairs_deterministic():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    q = q_mat @ p
    u1 = complete_pairs(p, q, want_unitary=True)
    u2 = complete_pairs(p.copy(), q.copy(), want_unitary=True)
    assert np.array_equal(u1, u2)
    assert opnorm(u1.conj().T @ u1 - np.eye(4)) < 1e-12


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    data=st.data(),
    floor_exp=st.floats(2.0, 6.0),
)
def test_complete_pairs_maps_exact_pairs_of_spread_singular_values(seed, dim, data, floor_exp):
    """On exact pairs ``q = V p`` with ``p`` of rank ``k`` and singular
    values log-spaced from 1 down to ``10^-floor_exp``, either completion
    maps ``p`` onto ``q`` and is a unitary or a partial isometry."""
    rank = data.draw(st.integers(1, dim), label="rank")
    cols = data.draw(st.integers(rank, 8), label="cols")
    rng = np.random.default_rng(seed)
    sing = np.logspace(0.0, -floor_exp, rank)
    p = (_unitary(rng, dim)[:, :rank] * sing) @ _unitary(rng, cols)[:rank, :]
    q = _unitary(rng, dim) @ p
    eye = np.eye(dim)
    for want_unitary in (True, False):
        u = complete_pairs(p, q, want_unitary=want_unitary)
        assert opnorm(u @ p - q) <= 1e-8
        if want_unitary:
            assert opnorm(u.conj().T @ u - eye) <= 1e-12
        else:
            assert opnorm(u @ u.conj().T @ u - u) <= 1e-12


def _ball_instance(rng, m, n, count, d_out=1):
    spec = KernelSpec.ball(m, n)
    nodes = random_ball_nodes(rng, count, n)
    q1 = build_subspace(spec, nodes)
    q2 = build_subspace(spec.with_coeff_dim(d_out), nodes)
    targets = scaled_targets(rng, spec, nodes, d_out=d_out)
    x = np_target_operator(q1, targets, q2)
    return q1, q2, model_tuple(q1), model_tuple(q2), x, targets


def _vector_complement(basis, dim):
    """The one-vector-at-a-time Gram-Schmidt that ``_orthonormal_complement``
    replaced: standard vectors in index order, projected off each held
    column in turn, kept above 1e-6."""
    needed = dim - basis.shape[1]
    if needed <= 0:
        return np.zeros((dim, 0), dtype=complex)
    cols = [basis[:, j] for j in range(basis.shape[1])]
    kept = []
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
    return np.column_stack(kept)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 30),
    data=st.data(),
    kind=st.sampled_from(["random", "standard", "near-standard"]),
)
def test_orthonormal_complement_matches_the_vector_loop(seed, dim, data, kind):
    """The array Gram-Schmidt keeps the columns of the vector loop for random
    orthonormal bases, bases of standard vectors (in any order) and bases
    within ``10**-6..10**-2`` of standard vectors; a full basis leaves
    none.  Its columns are orthonormal and orthogonal to the basis to
    1e-14.  The vector loop loses that orthogonality (up to about 1e-9)
    when a candidate keeps only a small residual, so the agreement bound
    is 1e-12 plus ten times the loop's own loss."""
    rng = np.random.default_rng(seed)
    held = data.draw(st.integers(0, dim))
    basis = np.eye(dim, dtype=complex)[:, rng.permutation(dim)[:held]]
    if kind != "standard":
        noise = rng.standard_normal((dim, held)) + 1j * rng.standard_normal((dim, held))
        if kind == "near-standard":
            noise = basis + 10.0 ** rng.uniform(-6, -2) * noise
        basis = np.linalg.qr(noise)[0] if held else basis
    comp = _orthonormal_complement(basis, dim)
    loop = _vector_complement(basis, dim)
    assert comp.shape == (dim, dim - held)
    loop_loss = np.abs(basis.conj().T @ loop).max(initial=0.0)
    assert np.abs(comp - loop).max(initial=0.0) <= 1e-12 + 10.0 * loop_loss
    assert np.abs(comp.conj().T @ comp - np.eye(dim - held)).max(initial=0.0) <= 1e-14
    assert np.abs(basis.conj().T @ comp).max(initial=0.0) <= 1e-14
    if kind == "standard":
        # The complement of standard vectors is the missing standard vectors.
        missing = sorted(set(range(dim)) - set(np.flatnonzero(np.abs(basis).sum(axis=1))))
        assert np.array_equal(comp, np.eye(dim, dtype=complex)[:, missing])


@pytest.mark.parametrize("dim", [2, 5, 24])
def test_orthonormal_complement_edge_cases(dim):
    """A full basis needs no column (``needed = 0``), also given a spanning
    basis with more columns than ``dim``; standard vectors leave the other
    standard vectors in index order, as the vector loop does."""
    unitary = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim, dim)) + 0j)[0]
    for full in (np.eye(dim, dtype=complex), unitary, np.hstack([unitary, unitary])):
        assert _orthonormal_complement(full, dim).shape == (dim, 0)
    ends = np.eye(dim, dtype=complex)[:, [dim - 1, 0]]
    comp = _orthonormal_complement(ends, dim)
    assert np.array_equal(comp, np.eye(dim, dtype=complex)[:, 1 : dim - 1])
    assert np.array_equal(comp, _vector_complement(ends, dim))


def test_ball_colligation_invariants():
    rng = np.random.default_rng(1)
    for m, n in ((1, 1), (2, 2), (3, 2)):
        q1, q2, t, s, x, _ = _ball_instance(rng, m, n, 3)
        coll = build_ball_colligation(
            s,
            x,
            check_positivity(s, x, m).matrix,
            in_map=q2.coeff_map_at_zero(),
            out_map=q1.coeff_map_at_zero(),
        )
        assert coll.generating_residual <= 1e-9
        assert coll.norm <= 1 + 1e-10
        if coll.kind == UNITARY:
            assert coll.unitary_defect <= 1e-10
        # block rows are contractions
        assert opnorm(coll.block_b) <= 1 + 1e-10
        assert opnorm(coll.block_d) <= 1 + 1e-10


def test_ball_colligation_identity_assertion():
    rng = np.random.default_rng(2)
    m, n = 2, 2
    q1, q2, t, s, x, _ = _ball_instance(rng, m, n, 3)
    gap = hereditary(s, m - 1, np.eye(s.dim, dtype=complex) - x @ x.conj().T)
    d_s = defect(s, KernelSpec.ball(m, n)).defect_square
    d_t = defect(t, KernelSpec.ball(m, n)).defect_square
    lhs = d_s + cp_map(s, gap)
    rhs = gap + x @ d_t @ x.conj().T
    assert opnorm(lhs - rhs) <= 1e-9


def test_ball_colligation_inconsistent_gap():
    rng = np.random.default_rng(2)
    q1, q2, t, s, x, _ = _ball_instance(rng, 2, 2, 3)
    gap = 1.1 * check_positivity(s, x, 2).matrix
    with pytest.raises(GramMismatch):
        build_ball_colligation(
            s, x, gap, in_map=q2.coeff_map_at_zero(), out_map=q1.coeff_map_at_zero()
        )


def test_ball_colligation_zero_intertwiner():
    rng = np.random.default_rng(3)
    spec = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 3, 2)
    q2 = build_subspace(spec, nodes)
    s = model_tuple(q2)
    x = np.zeros((q2.dim, q2.dim), dtype=complex)
    coord = defect(s, spec).coord_map
    gap = check_positivity(s, x, 2).matrix
    coll = build_ball_colligation(s, x, gap, in_map=coord, out_map=coord)
    assert coll.generating_residual <= 1e-10
    assert opnorm(coll.out_target) == 0.0


def test_ball_colligation_not_positive():
    rng = np.random.default_rng(4)
    spec = KernelSpec.ball(3, 1)
    nodes = random_ball_nodes(rng, 2, 1, radius=0.85, min_sep=0.05)
    q2 = build_subspace(spec, nodes)
    s = model_tuple(q2)
    # strongly mismatched targets violate the weight-one positivity while m=3
    targets = [np.array([[0.95]]), np.array([[-0.95]])]
    x = np_target_operator(q2, targets, q2)
    if opnorm(x) <= 1:
        e0 = q2.coeff_map_at_zero()
        with pytest.raises(NotPositive) as err:
            build_ball_colligation(
                s, x, check_positivity(s, x, 3).matrix, in_map=e0, out_map=e0
            )
        assert err.value.min_eig < 0


def test_ball_colligation_pads_the_gap_rows_to_a_unitary():
    # n = 2 with defect dims 1 -> 5 asks for state dim 4 over a rank-2 gap,
    # so the two gap rows are padded with zero rows before the completion.
    rng = np.random.default_rng(0)
    targets = [0.2 * rng.standard_normal((1, 5)) for _ in range(2)]
    nodes = [(0.1, 0.2j), (-0.3, 0.1)]
    res = np_solve(KernelSpec.ball(1, 2, 5), nodes, targets)
    assert isinstance(res, LiftResult)
    coll = res.colligation
    assert coll.kind == UNITARY
    assert coll.in_state_dims == (4, 4)
    state = coll.state_coord_maps[0]
    assert np.linalg.matrix_rank(state) == 2 and not state[2:].any()
    assert coll.unitary_defect <= 1e-12
    assert res.certificate.verify_residual <= 1e-12
    for z, w in zip(nodes, targets):
        assert opnorm(res.phi(z) - w) <= 1e-12


def test_ball_colligation_bit_identical_rebuild():
    rng = np.random.default_rng(5)
    q1, q2, t, s, x, _ = _ball_instance(rng, 2, 2, 3)
    kwargs = dict(in_map=q2.coeff_map_at_zero(), out_map=q1.coeff_map_at_zero())
    c1 = build_ball_colligation(s, x, check_positivity(s, x, 2).matrix, **kwargs)
    c2 = build_ball_colligation(s, x, check_positivity(s, x, 2).matrix, **kwargs)
    assert np.array_equal(c1.matrix, c2.matrix)


def test_ball_colligation_decomposes_the_gap_once(monkeypatch):
    # One eigh gives the PSD test, the bottom eigenvalue, the root and the
    # norm behind the series order.
    rng = np.random.default_rng(7)
    q1, q2, t, s, x, _ = _ball_instance(rng, 2, 2, 4)
    gap = check_positivity(s, x, 2).matrix
    calls = record_linalg(monkeypatch, DECOMPOSITIONS)
    coll = build_ball_colligation(
        s, x, gap, in_map=q2.coeff_map_at_zero(), out_map=q1.coeff_map_at_zero()
    )
    assert [calls_on(calls, name, gap) for name in DECOMPOSITIONS] == [1, 0, 0]
    assert coll.delta_min_eig == np.linalg.eigh(gap)[0][0]
    assert coll.delta_norm == pytest.approx(np.sqrt(opnorm(gap)), rel=1e-12)


def test_defect_decomposes_the_square_once(monkeypatch):
    rng = np.random.default_rng(8)
    spec = KernelSpec.ball(2, 2)
    s = model_tuple(build_subspace(spec, random_ball_nodes(rng, 4, 2)))
    square = hereditary(s, 2, np.eye(s.dim, dtype=complex))
    calls = record_linalg(monkeypatch, DECOMPOSITIONS)
    data = defect(s, spec)
    assert [calls_on(calls, name, square) for name in DECOMPOSITIONS] == [1, 0, 0]
    assert np.array_equal(data.defect_square, square)
    assert opnorm(data.defect @ data.defect - square) <= 1e-12


def test_polydisc_colligation_single_variable_reduces_to_ball():
    rng = np.random.default_rng(6)
    spec = KernelSpec.polydisc((1,))
    nodes = random_polydisc_nodes(rng, 3, 1)
    q2 = build_subspace(spec, nodes)
    s = model_tuple(q2)
    targets = scaled_targets(rng, spec, nodes, weight_one=False)
    x = np_target_operator(q2, targets, q2)
    f1_sq = np.eye(q2.dim, dtype=complex) - x @ x.conj().T
    coord = defect(s, spec).coord_map
    coll = build_polydisc_colligation(s, x, (1,), [f1_sq], in_map=coord, out_map=coord)
    assert coll.generating_residual <= 1e-9
    assert coll.norm <= 1 + 1e-10


def test_polydisc_colligation_zero_intertwiner_half_split():
    rng = np.random.default_rng(7)
    spec = KernelSpec.polydisc((1, 1))
    nodes = random_polydisc_nodes(rng, 3, 2)
    q2 = build_subspace(spec, nodes)
    s = model_tuple(q2)
    x = np.zeros((q2.dim, q2.dim), dtype=complex)
    from schurlift.lifting_polydisc import transformed_positivity

    eye = np.eye(q2.dim, dtype=complex)
    squares = [transformed_positivity(s, (1, 1), i, eye / 2) for i in range(2)]
    coord = defect(s, spec).coord_map
    coll = build_polydisc_colligation(s, x, (1, 1), squares, in_map=coord, out_map=coord)
    assert coll.generating_residual <= 1e-9


def test_polydisc_colligation_balance_violation():
    rng = np.random.default_rng(8)
    spec = KernelSpec.polydisc((1, 1))
    nodes = random_polydisc_nodes(rng, 2, 2)
    q2 = build_subspace(spec, nodes)
    s = model_tuple(q2)
    x = np.zeros((q2.dim, q2.dim), dtype=complex)
    bad = [np.eye(q2.dim, dtype=complex), 0.3 * np.eye(q2.dim, dtype=complex)]
    coord = defect(s, spec).coord_map
    with pytest.raises(GramMismatch):
        build_polydisc_colligation(s, x, (1, 1), bad, in_map=coord, out_map=coord)


def test_polydisc_colligation_rejects_a_negative_summand():
    rng = np.random.default_rng(8)
    spec = KernelSpec.polydisc((1, 1))
    q2 = build_subspace(spec, random_polydisc_nodes(rng, 2, 2))
    s = model_tuple(q2)
    x = np.zeros((q2.dim, q2.dim), dtype=complex)
    eye = np.eye(q2.dim, dtype=complex)
    coord = defect(s, spec).coord_map
    with pytest.raises(NotPositive, match="transformed summand 1") as err:
        build_polydisc_colligation(s, x, (1, 1), [eye / 2, -0.1 * eye], in_map=coord, out_map=coord)
    assert err.value.min_eig == pytest.approx(-0.1)


def test_colligation_json_round_trip_fields():
    rng = np.random.default_rng(9)
    q1, q2, t, s, x, _ = _ball_instance(rng, 1, 1, 2)
    coll = build_ball_colligation(
        s,
        x,
        check_positivity(s, x, 1).matrix,
        in_map=q2.coeff_map_at_zero(),
        out_map=q1.coeff_map_at_zero(),
    )
    doc = coll.to_json_dict()
    assert doc["geometry"] == "ball-row"
    assert doc["kind"] in (UNITARY, PARTIAL_ISOMETRY)
    assert len(doc["entries"]) == coll.out_dim
    assert len(doc["entries"][0]) == coll.in_dim
    assert all(len(pair) == 2 for row in doc["entries"] for pair in row)
