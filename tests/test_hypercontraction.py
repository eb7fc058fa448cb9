import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlift import (
    KernelSpec,
    build_subspace,
    cp_map,
    defect,
    hereditary,
    model_tuple,
)
from schurlift.errors import DimensionMismatch, NotHypercontraction
from schurlift.hypercontraction import (
    _checked_eigenbasis,
    _combination,
    is_pure,
    joint_eigenbasis,
)
from schurlift.kernels import indices_up_to, series_coeff
from schurlift.linalg import herm, min_eig, opnorm
from schurlift.model_space import TupleOperator

from conftest import random_ball_nodes, random_normal_tuple, random_polydisc_nodes


def scalar_tuple(*values):
    return TupleOperator(tuple(np.array([[v]], dtype=complex) for v in values))


def test_cp_map_zero_and_scalar():
    t = scalar_tuple(0.5 + 0.1j)
    assert cp_map(t, np.zeros((1, 1)))[0, 0] == 0
    assert cp_map(t, np.eye(1))[0, 0] == pytest.approx(abs(0.5 + 0.1j) ** 2)


def test_cp_map_diagonal_tuple():
    d1 = np.diag([0.2, 0.5]).astype(complex)
    d2 = np.diag([0.3, -0.1]).astype(complex)
    t = TupleOperator((d1, d2))
    out = cp_map(t, np.eye(2, dtype=complex))
    assert np.allclose(np.diag(out), [0.04 + 0.09, 0.25 + 0.01])


def eye(t):
    return np.eye(t.dim, dtype=complex)


def _binomial_reference(t, power, a):
    """``sum_j (-1)^j C(power, j) sigma_T^j(A)``, term by term."""
    out = np.zeros_like(a)
    term = a
    for j in range(power + 1):
        out = out + ((-1.0) ** j) * math.comb(power, j) * term
        term = sum(m @ term @ m.conj().T for m in t.mats)
    return herm(out)


def _monomial(t, k):
    """``T^k = prod_i T_i^{k_i}``."""
    out = np.eye(t.dim, dtype=complex)
    for m, e in zip(t.mats, k):
        for _ in range(int(e)):
            out = out @ m
    return out


def _monomial_reference(t, gamma, a):
    """``sum_{k <= gamma} c_k T^k A (T^k)*`` with ``c_k = prod_i (-1)^{k_i} C(gamma_i, k_i)``,
    the coefficients of ``prod_i (1 - x_i)^{gamma_i}`` (zero weights allowed)."""
    out = np.zeros_like(a)
    for k in itertools.product(*(range(g + 1) for g in gamma)):
        c = math.prod((-1) ** e * math.comb(g, e) for g, e in zip(gamma, k))
        mono = _monomial(t, k)
        out = out + c * (mono @ a @ mono.conj().T)
    return herm(out)


def test_hereditary_ball_small_powers():
    t = scalar_tuple(0.6)
    assert opnorm(hereditary(t, 0, eye(t)) - np.eye(1)) == 0
    assert hereditary(t, 1, eye(t))[0, 0] == pytest.approx(1 - 0.36)
    assert hereditary(t, 2, eye(t))[0, 0] == pytest.approx((1 - 0.36) ** 2)


def test_hereditary_polydisc_hardy_bidisc_formula():
    rng = np.random.default_rng(0)
    t = random_normal_tuple(rng, 3, 2, radius=0.6, geometry="polydisc")
    direct = (
        np.eye(3)
        - t[0] @ t[0].conj().T
        - t[1] @ t[1].conj().T
        + (t[0] @ t[1]) @ (t[0] @ t[1]).conj().T
    )
    assert opnorm(hereditary(t, (1, 1), eye(t)) - direct) < 1e-12


def test_hereditary_polydisc_zero_tuple():
    t = TupleOperator((np.zeros((2, 2)), np.zeros((2, 2))))
    assert opnorm(hereditary(t, (2, 3), eye(t)) - np.eye(2)) == 0


def test_hereditary_polydisc_single_variable_matches_ball():
    rng = np.random.default_rng(1)
    t = random_normal_tuple(rng, 4, 1, radius=0.7)
    for m in (1, 2, 3):
        assert opnorm(hereditary(t, (m,), eye(t)) - _binomial_reference(t, m, eye(t))) < 1e-11
        assert opnorm(_monomial_reference(t, (m,), eye(t)) - hereditary(t, m, eye(t))) < 1e-11


def test_hypercontraction_ladder():
    # PSD at powers 1 and m forces PSD at every power in between
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = random_normal_tuple(rng, 4, 2, radius=0.8)
        m = 4
        assert min_eig(hereditary(t, 1, eye(t))) > -1e-12
        assert min_eig(hereditary(t, m, eye(t))) > -1e-12
        for i in range(2, m):
            assert min_eig(hereditary(t, i, eye(t))) > -1e-10


def test_defect_scalar_power():
    for m in (1, 2, 3):
        t = scalar_tuple(0.5)
        d = defect(t, KernelSpec.ball(m, 1))
        assert d.defect[0, 0] == pytest.approx((1 - 0.25) ** (m / 2))


def test_defect_zero_tuple_identity():
    t = TupleOperator((np.zeros((3, 3)),))
    d = defect(t, KernelSpec.ball(2, 1))
    assert opnorm(d.defect - np.eye(3)) == 0
    assert d.range_dim == 3


def test_defect_square_residual_on_model_space():
    rng = np.random.default_rng(3)
    nodes = random_ball_nodes(rng, 3, 2)
    space = build_subspace(KernelSpec.ball(2, 2), nodes)
    s = model_tuple(space)
    d = defect(s, KernelSpec.ball(2, 2))
    assert opnorm(d.defect @ d.defect - d.defect_square) <= 1e-10
    assert d.range_dim == 1  # scalar coefficients: evaluation at 0 has rank one


def test_defect_rejects_expansive_tuple():
    t = scalar_tuple(1.2)
    with pytest.raises(NotHypercontraction):
        defect(t, KernelSpec.ball(1, 1))


def test_purity_pure_and_stuck():
    assert is_pure(scalar_tuple(0.5), KernelSpec.ball(1, 1))
    assert not is_pure(scalar_tuple(1.0), KernelSpec.ball(1, 1))


def test_purity_model_tuples():
    rng = np.random.default_rng(4)
    space = build_subspace(KernelSpec.ball(1, 2), random_ball_nodes(rng, 3, 2))
    s = model_tuple(space)
    assert is_pure(s, KernelSpec.ball(1, 2))
    nodes = random_polydisc_nodes(rng, 3, 2)
    space = build_subspace(KernelSpec.polydisc((1, 1)), nodes)
    s = model_tuple(space)
    assert is_pure(s, KernelSpec.polydisc((1, 1)))


def test_sigma_sum_telescoping_identity():
    # the box sum of T^k [prod_i (1 - C_{T_i})](A) T^{*k}, k_i < N, telescopes
    # to prod_i (1 - C_{T_i^N})(A)
    rng = np.random.default_rng(7)
    t = random_normal_tuple(rng, 3, 2, radius=0.7)
    a_raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = a_raw @ a_raw.conj().T
    step = hereditary(t, (1,) * t.n, a)
    for order in (2, 4, 7):
        monos = [_monomial(t, k) for k in itertools.product(range(order), repeat=t.n)]
        lhs = sum(mono @ step @ mono.conj().T for mono in monos)
        rhs = a.copy()
        for i in range(t.n):
            power = np.linalg.matrix_power(t[i], order)
            rhs = rhs - power @ rhs @ power.conj().T
        assert opnorm(lhs - rhs) <= 1e-10


def test_dilation_isometry_partial_sums():
    # sum_k rho(k) T^k D^2 T^{*k} = I for a pure tuple: the canonical
    # dilation h -> (rho(k) D T^{*k} h)_k is an isometry
    rng = np.random.default_rng(8)
    for spec, geometry in (
        (KernelSpec.ball(2, 2), "ball"),
        (KernelSpec.polydisc((1, 2)), "polydisc"),
    ):
        t = random_normal_tuple(rng, 3, 2, radius=0.5, geometry=geometry)
        square = defect(t, spec).defect_square
        total = np.zeros((3, 3), dtype=complex)
        for k in indices_up_to(2, 40):
            mono = _monomial(t, k)
            total += series_coeff(spec, k) * (mono @ square @ mono.conj().T)
        assert opnorm(total - eye(t)) <= 1e-8


def test_dilation_adjoint_pairing():
    # the dilation coefficient rho(p) D T^{*p} h, over rho(p), paired
    # against eta reproduces <h, T^p D eta>
    rng = np.random.default_rng(9)
    spec = KernelSpec.polydisc((2, 1))
    t = random_normal_tuple(rng, 3, 2, radius=0.5, geometry="polydisc")
    d = defect(t, spec)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for p in indices_up_to(2, 4):
        mono = _monomial(t, p)
        lhs = np.vdot(d.defect @ mono.conj().T @ h, eta)
        rhs = np.vdot(h, mono @ d.defect @ eta)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_hereditary_applied_composition():
    rng = np.random.default_rng(10)
    t = random_normal_tuple(rng, 3, 2, radius=0.6)
    a_raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = a_raw @ a_raw.conj().T
    step = a - cp_map(t, a)
    assert opnorm(hereditary(t, 2, a) - (step - cp_map(t, step))) < 1e-12
    assert opnorm(hereditary(t, 2, a) - _binomial_reference(t, 2, a)) < 1e-12


def _reference_tuples(rng):
    """Normal and model tuples in two variables."""
    nodes = random_ball_nodes(rng, 4, 2, radius=0.7, min_sep=0.2)
    yield random_normal_tuple(rng, 4, 2, radius=0.8)
    yield random_normal_tuple(rng, 4, 2, radius=0.8, geometry="polydisc")
    yield model_tuple(build_subspace(KernelSpec.ball(2, 2, 2), nodes))
    yield model_tuple(build_subspace(KernelSpec.polydisc((1, 2)), random_polydisc_nodes(rng, 4, 2)))
    # The weight-3 model tuple, which the dilation to weight 1 lifts against.
    yield model_tuple(build_subspace(KernelSpec.ball(3, 2), nodes))


def _random_hermitian_stack(rng, count, dim):
    raw = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return raw @ np.swapaxes(raw, -1, -2).conj() / dim


def test_hereditary_matches_binomial_and_monomial_references():
    rng = np.random.default_rng(11)
    for t in _reference_tuples(rng):
        stack = _random_hermitian_stack(rng, 3, t.dim)
        operands = [eye(t)] + list(stack)
        for power in range(5):
            for a in operands:
                ref = _binomial_reference(t, power, a)
                assert opnorm(hereditary(t, power, a) - ref) <= 1e-13 * 2**power * (1 + opnorm(a))
            stacked = hereditary(t, power, stack)
            assert stacked.shape == stack.shape
            for a, out in zip(stack, stacked):
                assert opnorm(out - hereditary(t, power, a)) <= 1e-14 * (1 + opnorm(a))
        for gamma in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (0, 4), (3, 2)):
            for a in operands:
                ref = _monomial_reference(t, gamma, a)
                scale = 2 ** sum(gamma) * (1 + opnorm(a))
                assert opnorm(hereditary(t, gamma, a) - ref) <= 1e-13 * scale
            stacked = hereditary(t, gamma, stack)
            for a, out in zip(stack, stacked):
                assert opnorm(out - hereditary(t, gamma, a)) <= 1e-14 * (1 + opnorm(a))


def test_hereditary_rejects_bad_weights_and_shapes():
    t = scalar_tuple(0.5, 0.2)
    with pytest.raises(ValueError):
        hereditary(t, -1, eye(t))
    with pytest.raises(ValueError):
        hereditary(t, (1, -1), eye(t))
    with pytest.raises(DimensionMismatch):
        hereditary(t, (1, 1, 1), eye(t))
    with pytest.raises(DimensionMismatch):
        hereditary(t, 1, np.eye(2))


def _kronecker_radius(t):
    """Reference: spectral radius of ``sum conj(T_i) (x) T_i``, the q^2 x q^2 route."""
    mat = sum(np.kron(m.conj(), m) for m in t.mats)
    return float(max(abs(np.linalg.eigvals(mat))))


def _joint_radius(t):
    basis = joint_eigenbasis(t)
    assert basis is not None
    vecs, lam = basis
    # Unit-norm columns that diagonalize every T_i together, to the
    # self-check's allowance amplified by the condition number of V.
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-12)
    allowance = 2e-10 * np.linalg.cond(vecs)
    for i, m in enumerate(t.mats):
        rebuilt = (vecs * lam[:, i]) @ np.linalg.inv(vecs)
        assert opnorm(rebuilt - m) <= allowance * (1.0 + opnorm(m))
    return float(np.max(np.sum(np.abs(lam) ** 2, axis=1)))


def _assert_gate_matches_kronecker(t):
    reference = _kronecker_radius(t)
    assert abs(_joint_radius(t) - reference) <= 1e-10
    assert is_pure(t, KernelSpec.ball(1, t.n)) == (reference < 1.0 - 1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 10),
    n=st.integers(1, 3),
    radius=st.floats(0.3, 1.4),
)
def test_joint_spectrum_radius_normal_tuples(seed, dim, n, radius):
    _assert_gate_matches_kronecker(
        random_normal_tuple(np.random.default_rng(seed), dim, n, radius=radius)
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    n=st.integers(1, 3),
    m=st.sampled_from([1, 2, 3]),
    d=st.sampled_from([1, 2]),
)
def test_joint_spectrum_radius_model_and_dilation_tuples(seed, r, n, m, d):
    nodes = random_ball_nodes(np.random.default_rng(seed), r, n, radius=0.8, min_sep=0.2)
    s = model_tuple(build_subspace(KernelSpec.ball(m, n, d), nodes))
    _assert_gate_matches_kronecker(s)
    # The joint spectrum of a model tuple is its node set.
    assert _joint_radius(s) == pytest.approx(max(np.sum(np.abs(nodes) ** 2, axis=1)), abs=1e-12)
    # The dilation from weight m + 1 to m lifts against the weight-(m + 1) model tuple.
    _assert_gate_matches_kronecker(model_tuple(build_subspace(KernelSpec.ball(m + 1, n, d), nodes)))


@pytest.mark.parametrize("d", [1, 2])
def test_joint_eigenbasis_splits_a_degenerate_combination(d):
    # Two nodes with w_1 dz_1 + w_2 dz_2 = 0 for the fixed weights
    # w_k = exp(i sqrt(2) k) (1 + k / 2): the first combination has a
    # double eigenvalue on distinct joint eigenvalues, and its arbitrary
    # eigenvectors fail the self-check.
    # The tuples are rebuilt from the model matrices alone, so that they do
    # not bring the basis of their construction and the split runs.
    weights = np.exp(1j * np.sqrt(2.0) * np.arange(1, 3)) * (1.0 + 0.5 * np.arange(1, 3))
    step = np.array([weights[1], -weights[0]]) * 0.3 / abs(weights[1])
    nodes = np.array([(0.1, -0.2j), (0.1 + step[0], -0.2j + step[1]), (-0.4, 0.3)])
    for spec in (KernelSpec.polydisc((1, 2), d), KernelSpec.ball(1, 2, d)):
        model = model_tuple(build_subspace(spec, [tuple(z) for z in nodes]))
        t = TupleOperator(model.mats)
        first = np.linalg.eig(_combination(t.mats, np.sqrt(2.0)))[1]
        assert _checked_eigenbasis(t, first) is None
        vecs, lam = joint_eigenbasis(t)
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-12)
        for i, m in enumerate(t.mats):
            rebuilt = (vecs * lam[:, i]) @ np.linalg.inv(vecs)
            assert opnorm(rebuilt - m) <= 2e-10 * np.linalg.cond(vecs) * (1.0 + opnorm(m))
        # The joint spectrum is the node set, each node d times.
        hits = np.linalg.norm(lam[:, None, :] - nodes[None, :, :], axis=2) < 1e-10
        assert (hits.sum(axis=0) == d).all() and (hits.sum(axis=1) == 1).all()
        # The model tuple's own eigenvalues are the same multiset.
        own = joint_eigenbasis(model)[1]
        hits = np.linalg.norm(lam[:, None, :] - own[None, :, :], axis=2) < 1e-10
        assert (hits.sum(axis=0) == d).all() and (hits.sum(axis=1) == d).all()


def test_jordan_block_takes_the_kronecker_fallback():
    nilpotent = np.diag(np.ones(3), 1).astype(complex)
    for shift, pure in ((0.0, True), (0.5, True), (1.2, False)):
        t = TupleOperator((shift * np.eye(4) + 0.5 * nilpotent, 0.3 * nilpotent))
        assert joint_eigenbasis(t) is None
        assert is_pure(t, KernelSpec.ball(1, 2)) is pure
        assert (_kronecker_radius(t) < 1.0 - 1e-10) is pure


def test_joint_eigenbasis_is_cached_read_only_and_follows_mats():
    rng = np.random.default_rng(11)
    t = random_normal_tuple(rng, 4, 2, radius=0.6)
    vecs, lam = joint_eigenbasis(t)
    # The second call returns the cached arrays, which no caller can change.
    again = joint_eigenbasis(t)
    assert again[0] is vecs and again[1] is lam
    for a in (vecs, lam):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    # Rebinding the matrices recomputes the basis for the new tuple.
    t.mats = tuple(2.0 * m for m in t.mats)
    vecs2, lam2 = joint_eigenbasis(t)
    assert vecs2 is not vecs
    assert np.allclose(np.sort_complex(lam2[:, 0]), np.sort_complex(2.0 * lam[:, 0]), atol=1e-12)
    nilpotent = np.diag(np.ones(3), 1).astype(complex)
    t.mats = (0.5 * nilpotent, 0.3 * nilpotent)
    assert joint_eigenbasis(t) is None
    assert joint_eigenbasis(t) is None
