import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlift import KernelSpec, ball_coeff, kernel_eval, polydisc_coeff
from schurlift.errors import DimensionMismatch, DomainViolation
from schurlift.kernels import indices_up_to, kernel_matrix


def test_ball_coeff_at_zero_index():
    for m in (1, 2, 5):
        for n in (1, 2, 3):
            assert ball_coeff(m, (0,) * n) == 1.0


def test_ball_coeff_known_values():
    # coefficient of z1 z2 in the expansion of (1 - z1 - z2)^{-1}
    assert ball_coeff(1, (1, 1)) == pytest.approx(2.0)
    # direct factorial evaluation 2!/(1! 1!)
    assert ball_coeff(2, (1, 0)) == pytest.approx(2.0)


def test_ball_coeff_recurrence():
    # (k_i + 1) * c(k + e_i) == (m + |k|) * c(k)
    for m in (1, 2, 3):
        for k in indices_up_to(3, 6):
            base = ball_coeff(m, k)
            for i in range(3):
                bumped = list(k)
                bumped[i] += 1
                assert ball_coeff(m, tuple(bumped)) * (k[i] + 1) == pytest.approx(
                    base * (m + sum(k)), rel=1e-12
                )


def test_ball_coeff_no_overflow_at_high_order():
    value = ball_coeff(3, (20, 20, 20))
    assert np.isfinite(value) and value > 0


def test_polydisc_coeff_hardy_weights_are_one():
    for k in indices_up_to(3, 5):
        assert polydisc_coeff((1, 1, 1), k) == 1.0


def test_polydisc_coeff_single_variable_weight_two():
    for k in range(8):
        assert polydisc_coeff((2,), (k,)) == pytest.approx(k + 1)


def test_polydisc_coeff_zero_index():
    assert polydisc_coeff((3, 2, 4), (0, 0, 0)) == 1.0


def test_polydisc_coeff_factors_over_coordinates():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gamma = tuple(rng.integers(1, 5, size=3))
        k = tuple(rng.integers(0, 6, size=3))
        product = 1.0
        for g, e in zip(gamma, k):
            product *= polydisc_coeff((g,), (e,))
        assert polydisc_coeff(gamma, k) == pytest.approx(product, rel=1e-12)


def test_kernel_eval_at_origin_is_one():
    spec = KernelSpec.ball(3, 2)
    assert kernel_eval(spec, (0, 0), (0.3, 0.2j)) == pytest.approx(1.0)


def test_kernel_eval_drury_arveson_diagonal():
    spec = KernelSpec.ball(1, 2)
    z = (0.5, 0.5j)
    norm_sq = 0.5
    assert kernel_eval(spec, z, z) == pytest.approx(1.0 / (1.0 - norm_sq))


def test_kernel_eval_matches_truncated_series():
    # independent oracle: sum of rho(k) z^k conj(w)^k over |k| <= 30
    z = (0.3, 0.2)
    for spec in (KernelSpec.ball(2, 2), KernelSpec.polydisc((2, 1))):
        total = 0.0
        for k in indices_up_to(2, 30):
            coeff = (
                ball_coeff(spec.m, k) if spec.geometry == "ball" else polydisc_coeff(spec.gamma, k)
            )
            total += coeff * abs(np.prod(np.power(z, k))) ** 2
        assert abs(kernel_eval(spec, z, z) - total) <= 1e-10


def test_kernel_eval_hermitian():
    rng = np.random.default_rng(1)

    def sample():
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        return tuple(0.5 * v / np.linalg.norm(v) * rng.uniform(0.1, 1.0))

    for spec in (KernelSpec.ball(2, 3), KernelSpec.polydisc((1, 2, 1))):
        for _ in range(10):
            z, w = sample(), sample()
            assert kernel_eval(spec, z, w) == pytest.approx(
                np.conj(kernel_eval(spec, w, z)), rel=1e-13
            )


def test_kernel_eval_rejects_boundary():
    spec = KernelSpec.ball(1, 1)
    with pytest.raises(DomainViolation):
        kernel_eval(spec, (1.0,), (0.0,))
    with pytest.raises(DomainViolation):
        kernel_eval(KernelSpec.polydisc((1, 1)), (0.2, 1.0), (0.0, 0.0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    weight=st.integers(1, 3),
    polydisc=st.booleans(),
    count=st.integers(1, 8),
)
def test_kernel_matrix_matches_kernel_eval(seed, n, weight, polydisc, count):
    rng = np.random.default_rng(seed)
    spec = KernelSpec.polydisc((weight,) * n) if polydisc else KernelSpec.ball(weight, n)

    def point():
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = np.max(np.abs(v)) if polydisc else np.linalg.norm(v)
        return tuple(0.95 * rng.uniform() * v / scale)

    p = [point() for _ in range(count)]
    q = [point() for _ in range(count + 1)]
    values = kernel_matrix(spec, p, q)
    reference = np.array([[kernel_eval(spec, z, w) for w in q] for z in p])
    assert values.shape == (count, count + 1)
    assert np.max(np.abs(values - reference) / np.abs(reference)) <= 1e-14


def test_kernel_matrix_rejects_boundary_and_wrong_dimension():
    for spec, edge in (
        (KernelSpec.ball(2, 2), (0.6, 0.8)),
        (KernelSpec.polydisc((1, 2)), (0.2, 1.0)),
    ):
        inside = [(0.1, 0.2j), (0.0, 0.0)]
        with pytest.raises(DomainViolation):
            kernel_matrix(spec, inside + [edge], inside)
        with pytest.raises(DomainViolation):
            kernel_matrix(spec, inside, [edge] + inside)
        with pytest.raises(DimensionMismatch):
            kernel_matrix(spec, inside, [(0.1,)])


def _ball_points(rng, count, n, radius=0.95):
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return radius * rng.uniform(size=(count, 1)) * v / np.linalg.norm(v, axis=1, keepdims=True)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _trailing_axis_ball_kernel(p, q, m):
    return (1.0 - np.sum(p[:, None, :] * q[None, :, :].conj(), axis=-1)) ** (-m)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_kernel_matrix_is_the_trailing_axis_broadcast_bit_for_bit(m, n):
    """Adding contiguous coordinate planes in index order is the order in
    which numpy sums fewer than four terms over a trailing axis."""
    rng = np.random.default_rng(100 * m + n)
    spec = KernelSpec.ball(m, n)
    for count_p, count_q in ((1, 1), (7, 3), (40, 25)):
        p, q = _ball_points(rng, count_p, n), _ball_points(rng, count_q, n)
        reference = _trailing_axis_ball_kernel(p, q, m)
        assert _same_bits(kernel_matrix(spec, p, q), reference)
        assert _same_bits(kernel_matrix(spec, [tuple(z) for z in p], list(q)), reference)


@pytest.mark.parametrize("n", [4, 5])
def test_ball_kernel_matrix_of_four_or_more_variables_is_the_broadcast_to_round_off(n):
    """From four terms on numpy sums a trailing axis pairwise, so the
    index-order plane sum agrees with it only to round-off."""
    rng = np.random.default_rng(n)
    for m in (1, 2, 3):
        p, q = _ball_points(rng, 40, n), _ball_points(rng, 25, n)
        np.testing.assert_allclose(
            kernel_matrix(KernelSpec.ball(m, n), p, q), _trailing_axis_ball_kernel(p, q, m),
            rtol=1e-13, atol=0,
        )


@pytest.mark.parametrize("polydisc", [False, True])
def test_kernel_matrix_of_one_point_list_equals_that_of_its_copy(polydisc):
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        spec = KernelSpec.polydisc((2,) * n) if polydisc else KernelSpec.ball(2, n)
        points = _ball_points(rng, 30, n)
        assert _same_bits(kernel_matrix(spec, points, points),
                          kernel_matrix(spec, points, points.copy()))
        rows = [tuple(z) for z in points]
        assert _same_bits(kernel_matrix(spec, rows, rows), kernel_matrix(spec, points, points))


def test_kernel_matrix_names_the_first_exterior_point_of_either_argument():
    for spec, edge, beyond in (
        (KernelSpec.ball(2, 2), (0.6, 0.8), (0.9, 0.9)),
        (KernelSpec.polydisc((1, 2)), (0.2, 1.0), (1.5, 0.0)),
    ):
        inside = np.array([(0.1, 0.2j), (0.0, 0.0)])
        with pytest.raises(DomainViolation) as expected:
            spec.require_interior(np.asarray(edge, dtype=complex))
        points = np.array([inside[0], edge, beyond, inside[1]])
        for p, q in ((points, inside), (inside, points), (points, points), (points, points.copy()),
                     (list(points), list(inside)), (list(inside), list(points))):
            with pytest.raises(DomainViolation) as raised:
                kernel_matrix(spec, p, q)
            assert str(raised.value) == str(expected.value)


def test_inverse_kernel_coeffs_convolution_delta():
    # the coefficients (-1)^{|j|} prod_i C(gamma_i, j_i) of the inverse kernel
    # prod_i (1 - x_i)^{gamma_i}, convolved against the kernel's series, give
    # the delta at 0
    for gamma in ((2, 1), (3, 2)):
        for k in indices_up_to(len(gamma), 8):
            total = 0.0
            for j in itertools.product(*(range(min(g, e) + 1) for g, e in zip(gamma, k))):
                coeff = (-1) ** sum(j) * math.prod(math.comb(g, e) for g, e in zip(gamma, j))
                rest = tuple(e - ji for e, ji in zip(k, j))
                total += coeff * polydisc_coeff(gamma, rest)
            expected = 1.0 if sum(k) == 0 else 0.0
            assert total == pytest.approx(expected, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.ball(0, 2)
    with pytest.raises(ValueError):
        KernelSpec.polydisc((1, 0))
    with pytest.raises(ValueError):
        KernelSpec.ball(1, 1, d_coeff=0)
