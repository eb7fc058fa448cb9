import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import schurlift
import schurlift.hypercontraction as hypercontraction
import schurlift.lifting_ball as lifting_ball
import schurlift.lifting_polydisc as lifting_polydisc
from schurlift import (
    AglerDecomposition,
    Inconclusive,
    KernelSpec,
    LiftResult,
    TupleOperator,
    agler_feasibility,
    build_subspace,
    lift_polydisc,
    model_tuple,
    np_solve_polydisc,
    np_target_operator,
    psi_gamma_diagnostics,
    verify_lift,
)
from schurlift.hypercontraction import defect, joint_eigenbasis
from schurlift.lifting_ball import KernelSpans
from schurlift.lifting_polydisc import (
    ANDERSON_DEPTH,
    _affine_projector,
    _entry_weights,
    hereditary_difference_residual,
    transformed_positivity,
)
from schurlift.linalg import herm, min_eig, opnorm

from conftest import random_polydisc_nodes, record_linalg, scaled_targets

INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"


def _load_benchmark_generators():
    """The benchmark's seeded instance generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location("perfbench_instances", INSTANCES)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclass looks its module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


GEN = _load_benchmark_generators()


def _bidisc_instance(rng, count=3, scale=0.6, gamma=(1, 1)):
    spec = KernelSpec.polydisc(gamma)
    nodes = random_polydisc_nodes(rng, count, len(gamma))
    q1 = build_subspace(spec, nodes)
    q2 = build_subspace(spec, nodes)
    targets = [scale * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
    x = np_target_operator(q1, targets, q2)
    return spec, nodes, q1, q2, model_tuple(q1), model_tuple(q2), x, targets


def test_feasibility_single_variable_immediate():
    rng = np.random.default_rng(0)
    spec = KernelSpec.polydisc((1,))
    nodes = random_polydisc_nodes(rng, 3, 1)
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    x = np_target_operator(space, scaled_targets(rng, spec, nodes, weight_one=False), space)
    dec = agler_feasibility(s, x, (1,))
    assert isinstance(dec, AglerDecomposition)
    assert dec.iterations == 1
    assert opnorm(dec.summands[0] - (np.eye(space.dim) - x @ x.conj().T)) < 1e-12


def test_feasibility_single_variable_weight_two_matches_ball_gap():
    # for one variable at weight two the forced summand is decided by the
    # same positivity gap as the ball pipeline
    rng = np.random.default_rng(1)
    spec = KernelSpec.polydisc((2,))
    nodes = random_polydisc_nodes(rng, 2, 1, radius=0.8, min_sep=0.1)
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    targets = [np.array([[0.9]]), np.array([[-0.9]])]
    x = np_target_operator(space, targets, space)
    if opnorm(x) <= 1:
        out = agler_feasibility(s, x, (2,))
        gap = transformed_positivity(s, (2,), 0, np.eye(space.dim) - x @ x.conj().T)
        if min_eig(gap) < -1e-8:
            assert isinstance(out, Inconclusive)


def test_feasibility_zero_intertwiner_even_split():
    rng = np.random.default_rng(2)
    spec = KernelSpec.polydisc((1, 1))
    nodes = random_polydisc_nodes(rng, 3, 2)
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    x = np.zeros((space.dim, space.dim), dtype=complex)
    # with X = 0 the default start is the even split I / 2
    dec = agler_feasibility(s, x, (1, 1))
    assert isinstance(dec, AglerDecomposition)
    # the even split is itself feasible: transformed halves stay PSD
    for i in range(2):
        assert min_eig(transformed_positivity(s, (1, 1), i, np.eye(space.dim) / 2)) > -1e-12


def test_feasibility_random_bidisc_instances():
    rng = np.random.default_rng(3)
    for _ in range(5):
        spec, nodes, q1, q2, t, s, x, targets = _bidisc_instance(rng)
        dec = agler_feasibility(s, x, (1, 1), tol=1e-10, max_iter=10000)
        assert isinstance(dec, AglerDecomposition)
        assert dec.reconstruction_residual <= 1e-10
        assert all(e >= -1e-10 for e in dec.cone_min_eigs)
        assert all(e >= -1e-10 for e in dec.summand_min_eigs)


def test_anderson_history_is_a_sliding_window(monkeypatch):
    """Each Anderson step solves with the real Gram of the held residual
    changes, oldest first: the previous Gram grown by the newest row and
    column, or its trailing block plus the newest row once
    ``ANDERSON_DEPTH`` are held, or 1x1 after the safeguard reset the
    history.  The iteration count is the one recorded for this class
    (design 0, r=8, gamma=(1,2))."""
    grams = []
    solve = np.linalg.solve

    def recording(a, b):
        # The hereditary conjugations solve complex systems; the Anderson
        # Gram is the one real matrix solved with.
        if not np.iscomplexobj(a):
            grams.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    nodes = GEN.polydisc_design(0, 8)
    spans = KernelSpans.build(KernelSpec.polydisc((1, 2)), nodes, GEN.z1z2_targets(nodes))
    out = agler_feasibility(spans.s, spans.x, (1, 2), tol=1e-10)
    assert isinstance(out, AglerDecomposition) and out.iterations == 120
    assert grams[0].shape == (1, 1)
    assert all(np.array_equal(g, g.T) for g in grams)
    kinds = set()
    for old, new in zip(grams, grams[1:]):
        if len(new) == len(old) + 1:
            assert np.array_equal(new[:-1, :-1], old)
            kinds.add("grown")
        elif len(new) == len(old) == ANDERSON_DEPTH:
            assert np.array_equal(new[:-1, :-1], old[1:, 1:])
            kinds.add("shifted")
        else:
            assert new.shape == (1, 1)
            kinds.add("reset")
    assert {"grown", "shifted"} <= kinds


def test_singular_anderson_gram_takes_the_plain_step(monkeypatch):
    """A Gram that ``np.linalg.solve`` rejects as singular clears the
    history: the next step solves with a 1x1 Gram, and the search still
    finds the decomposition."""
    grams = []
    solve = np.linalg.solve

    def failing_once_at_three(a, b):
        if not np.iscomplexobj(a):
            grams.append(np.array(a))
            if len(a) == 3 and [len(g) for g in grams].count(3) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_once_at_three)
    nodes = GEN.polydisc_design(0, 8)
    spans = KernelSpans.build(KernelSpec.polydisc((1, 2)), nodes, GEN.z1z2_targets(nodes))
    out = agler_feasibility(spans.s, spans.x, (1, 2), tol=1e-10)
    assert isinstance(out, AglerDecomposition)
    sizes = [len(g) for g in grams]
    assert sizes[sizes.index(3) + 1] == 1


def _fault_targets(nodes):
    return [np.array([[0.02 * (z[0] + z[1]) / 2]]) for z in nodes]


@pytest.mark.parametrize(
    "design, r, targets, gamma, iterations",
    [
        (0, 6, GEN.z1z2_targets, (1, 2), 30),
        (0, 6, GEN.z1z2_targets, (2, 2), 20),
        (0, 8, GEN.z1z2_targets, (1, 2), 120),
        (0, 8, GEN.z1z2_targets, (2, 2), 140),
        (0, 24, GEN.constant_targets, (1, 2), 10),
        (1, 16, _fault_targets, (1, 2), 50),
    ],
    ids=["r6-12", "r6-22", "r8-12", "r8-22", "r24-const", "fault-r16"],
)
def test_polydisc_benchmark_classes_keep_their_iteration_counts(
    design, r, targets, gamma, iterations
):
    """The six polydisc-solve classes, on their unrotated designs, solve in
    the Dykstra iteration counts recorded for them."""
    nodes = GEN.polydisc_design(design, r)
    out = np_solve_polydisc(KernelSpec.polydisc(gamma), nodes, targets(nodes))
    assert isinstance(out, LiftResult)
    assert out.certificate.extras["decomposition"].iterations == iterations


def test_cli_polydisc_documents_keep_their_iteration_counts(monkeypatch, tmp_path):
    """The benchmark's seed-1 polydisc ``scan`` (r=6, gamma=(1,2)) and
    ``certify`` (r=8, gamma=(2,2)) commands report 30 and 140 iterations."""
    monkeypatch.syspath_prepend(str(INSTANCES.parent))
    loaded = set(sys.modules)
    try:
        workloads = importlib.import_module("workloads")
        ops = workloads.cli_certify(schurlift, np.random.default_rng(1), str(tmp_path)).ops
    finally:
        # The benchmark imports its modules by bare name; drop them again.
        for name in {"workloads", "checks", "instances"} - loaded:
            sys.modules.pop(name, None)
    ops = {op.size: op for op in ops}
    for size, iterations in (("polydisc-scan", 30), ("polydisc-certify", 140)):
        code, text = ops[size].call()
        assert code == 0
        assert json.loads(text)["certificates"]["feasibility"]["iterations"] == iterations


def test_feasibility_inconclusive_at_iteration_cap():
    rng = np.random.default_rng(5)
    spec, nodes, q1, q2, t, s, x, targets = _bidisc_instance(rng, scale=0.9)
    out = agler_feasibility(s, x, (1, 1), tol=1e-14, max_iter=3)
    assert isinstance(out, Inconclusive)
    assert out.iterations == 3
    assert "reconstruction" in out.residuals


def test_feasibility_rejects_an_iteration_cap_below_one():
    rng = np.random.default_rng(5)
    spec, nodes, q1, q2, t, s, x, targets = _bidisc_instance(rng)
    with pytest.raises(ValueError, match="max_iter"):
        agler_feasibility(s, x, (1, 1), max_iter=0)


def _recomputed_summary(s, x, gamma, gs):
    """Reconstruction residual and bottom eigenvalues of the iterate ``gs``."""
    r_target = herm(np.eye(s.dim, dtype=complex) - x @ x.conj().T)
    recon = opnorm(sum(gs) - r_target)
    cone = [min_eig(transformed_positivity(s, gamma, i, g)) for i, g in enumerate(gs)]
    own = [min_eig(g) for g in gs]
    return recon, cone, own


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]),
    r=st.integers(1, 4),
    scale=st.floats(0.3, 1.3),
    max_iter=st.sampled_from([1, 3, 10, 40]),
    tol=st.sampled_from([1e-14, 1e-10]),
)
def test_feasibility_outcome_reports_its_own_iterate(seed, gamma, r, scale, max_iter, tol):
    """Both outcomes carry the numbers of the iterate they return, and an
    ``Inconclusive`` never passes the acceptance checks at the strict floor."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec.polydisc(gamma)
    nodes = random_polydisc_nodes(rng, r, len(gamma), radius=0.7, min_sep=0.1)
    targets = [scale * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    x = np_target_operator(space, targets, space)
    out = agler_feasibility(s, x, gamma, tol=tol, max_iter=max_iter)
    event(f"{type(out).__name__}, n = {len(gamma)}")
    gs = out.summands if isinstance(out, AglerDecomposition) else out.best
    assert all(np.array_equal(herm(g), g) for g in gs)
    recon, cone, own = _recomputed_summary(s, x, gamma, gs)
    if isinstance(out, AglerDecomposition):
        assert out.reconstruction_residual == recon
        assert list(out.cone_min_eigs) == cone and list(out.summand_min_eigs) == own
        assert recon <= tol and min(cone + own) >= -tol
    else:
        assert out.residuals == {
            "reconstruction": recon,
            "cone_min_eigs": cone,
            "summand_min_eigs": own,
        }
        assert out.iterations == (1 if len(gamma) == 1 else max_iter)
        assert not (recon <= tol and min(cone + own) >= tol)


def test_f_operators_single_variable():
    rng = np.random.default_rng(6)
    spec = KernelSpec.polydisc((1,))
    nodes = random_polydisc_nodes(rng, 2, 1)
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    x = np_target_operator(space, scaled_targets(rng, spec, nodes, weight_one=False), space)
    dec = agler_feasibility(s, x, (1,))
    square = transformed_positivity(s, (1,), 0, dec.summands[0])
    gap = np.eye(space.dim) - x @ x.conj().T
    assert opnorm(square - gap) < 1e-10


def test_f_operators_hardy_bidisc_formula():
    rng = np.random.default_rng(7)
    spec, nodes, q1, q2, t, s, x, targets = _bidisc_instance(rng)
    dec = agler_feasibility(s, x, (1, 1), tol=1e-10)
    g1 = dec.summands[0]
    expected = g1 - s[1] @ g1 @ s[1].conj().T
    assert opnorm(transformed_positivity(s, (1, 1), 0, g1) - expected) < 1e-9


def test_f_operators_sigma_sum_bounded_by_summand():
    rng = np.random.default_rng(8)
    spec, nodes, q1, q2, t, s, x, targets = _bidisc_instance(rng)
    dec = agler_feasibility(s, x, (1, 1), tol=1e-10)
    assert "squares" not in dec.to_json_dict()
    for i in range(2):
        # F_i^2 summed geometrically over the other coordinate stays below G_i;
        # the decomposition keeps it, the matrix the lift roots.
        square = transformed_positivity(s, (1, 1), i, dec.summands[i])
        assert np.array_equal(dec.squares[i], square)
        for order in (2, 5, 10, 25):
            powers = [np.linalg.matrix_power(s[1 - i], k) for k in range(order)]
            partial = sum(p @ square @ p.conj().T for p in powers)
            assert min_eig(dec.summands[i] - partial) >= -1e-8


def test_hereditary_difference_identity():
    rng = np.random.default_rng(9)
    spec, nodes, q1, q2, t, s, x, targets = _bidisc_instance(rng)
    assert hereditary_difference_residual(t, s, x, (1, 1)) <= 1e-9
    # One tuple on both sides reuses its defect, with the same bits.
    same = hereditary_difference_residual(s, s, x, (1, 1))
    assert same == hereditary_difference_residual(model_tuple(q2), s, x, (1, 1))


def _conjugation_sequence(s, gamma, i, a):
    """Reference: ``(1 - C_{S_j})`` applied ``gamma_j`` times per coordinate
    (``gamma_i - 1`` times at ``i``), coordinates in index order."""
    out = np.asarray(a, dtype=complex)
    for j in range(s.n):
        power = gamma[j] if j != i else gamma[j] - 1
        for _ in range(power):
            out = out - s.mats[j] @ out @ s.mats[j].conj().T
    return herm(out)


@pytest.mark.parametrize("gamma", [(1, 1), (1, 2), (2, 2), (3, 1, 2)])
def test_transformed_positivity_is_bit_identical_to_the_conjugation_sequence(gamma):
    rng = np.random.default_rng(sum(gamma))
    nodes = random_polydisc_nodes(rng, 3, len(gamma))
    s = model_tuple(build_subspace(KernelSpec.polydisc(gamma), nodes))
    single = _random_herm(rng, (s.dim, s.dim))
    stack = _random_herm(rng, (4, s.dim, s.dim))
    for i in range(s.n):
        for a in (single, stack):
            out = transformed_positivity(s, gamma, i, a)
            assert np.array_equal(out, _conjugation_sequence(s, gamma, i, a))


def test_lift_polydisc_identity_intertwiner():
    rng = np.random.default_rng(10)
    spec = KernelSpec.polydisc((1, 1))
    nodes = random_polydisc_nodes(rng, 3, 2)
    space = build_subspace(spec, nodes)
    s = model_tuple(space)
    x = np.eye(space.dim, dtype=complex)
    dec = agler_feasibility(s, x, (1, 1))
    assert isinstance(dec, AglerDecomposition)
    res = lift_polydisc(s, s, x, (1, 1), dec)
    assert res.certificate.generating_residual <= 1e-9
    assert verify_lift(res.phi, space, x, space) <= 1e-9


def test_lift_polydisc_single_variable_matches_moebius():
    # one node in the disc at Hardy weight: the interpolant takes the target value
    spec = KernelSpec.polydisc((1,))
    node = (0.2 + 0.1j,)
    target = np.array([[0.45 - 0.2j]])
    res = np_solve_polydisc(spec, [node], [target], feasibility_tol=1e-12)
    assert isinstance(res, LiftResult)
    assert abs(res.phi(node)[0, 0] - target[0, 0]) < 1e-10
    # and agrees with the ball route at the node
    from schurlift import np_solve

    ball = np_solve(KernelSpec.ball(1, 1), [node], [target])
    assert abs(ball.phi(node)[0, 0] - res.phi(node)[0, 0]) < 1e-10


def test_np_solve_polydisc_end_to_end():
    rng = np.random.default_rng(11)
    for trial in range(3):
        spec = KernelSpec.polydisc((1, 1))
        nodes = random_polydisc_nodes(rng, 3, 2)
        targets = [
            0.6 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)
        ]
        res = np_solve_polydisc(spec, nodes, targets, feasibility_tol=1e-10)
        assert isinstance(res, LiftResult)
        assert res.certificate.generating_residual <= 1e-9
        assert res.certificate.verify_residual <= 1e-6
        for z, w in zip(nodes, targets):
            assert opnorm(res.phi(z) - w) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
    r=st.integers(1, 4),
    d=st.sampled_from([1, 2]),
)
def test_np_solve_polydisc_is_lift_polydisc_without_its_checks(seed, gamma, r, d):
    """``lift_polydisc`` on the spans, with ``np_solve_polydisc``'s
    decomposition, runs every check and returns its lift bit for bit, once
    the defect coordinate maps are the spans' evaluations at the origin.
    ``defect`` would give other maps with the same Grams."""
    rng = np.random.default_rng(seed)
    spec = KernelSpec.polydisc(gamma)
    nodes = random_polydisc_nodes(rng, r, 2, radius=0.45, min_sep=0.25)
    targets = [0.55 * w for w in scaled_targets(rng, spec, nodes, d_out=d, weight_one=False)]
    res = np_solve_polydisc(spec, nodes, targets)
    event(type(res).__name__)
    assume(isinstance(res, LiftResult))
    spans = KernelSpans.build(spec, nodes, targets)
    t = model_tuple(spans.q1)
    maps = {id(spans.s): spans.q2.coeff_map_at_zero(), id(t): spans.q1.coeff_map_at_zero()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting_ball, "defect", lambda tup, _: SimpleNamespace(coord_map=maps[id(tup)]))
        dec = res.certificate.extras["decomposition"]
        general = lift_polydisc(t, spans.s, spans.x, gamma, dec)
    assert np.array_equal(general.colligation.matrix, res.colligation.matrix)
    assert general.certificate.generating_residual == res.certificate.generating_residual
    assert general.certificate.delta_min_eig == res.certificate.delta_min_eig


def test_np_solve_polydisc_reads_purity_from_the_joint_eigenvalues(monkeypatch):
    # Model tuples carry their joint eigenvalues, so the purity gate takes
    # no eigenvalues of any T_i.
    rng = np.random.default_rng(19)
    spec = KernelSpec.polydisc((1, 2))
    nodes = random_polydisc_nodes(rng, 4, 2)
    targets = [0.5 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
    calls = record_linalg(monkeypatch, ("eigvals",))
    assert isinstance(np_solve_polydisc(spec, nodes, targets), LiftResult)
    assert calls == []


@pytest.mark.parametrize("case", ["fault-r16", "const-r32"])
def test_np_solve_polydisc_verifies_ill_conditioned_pairs(case):
    """Pair Grams with eigenvalues near 1e-5 (``fault-r16``) and 1e-10
    (constant targets on 32 nodes) lift to a verify residual within the
    CLI's 1e-7 ``verify_tol``."""
    if case == "fault-r16":
        nodes = GEN.polydisc_design(1, 16)
        targets = [np.array([[0.02 * (z[0] + z[1]) / 2]]) for z in nodes]
    else:
        phases = GEN.random_phases(np.random.default_rng(1), 2)
        nodes = GEN.rotate(GEN.polydisc_design(0, 32), phases)
        targets = GEN.constant_targets(nodes)
    res = np_solve_polydisc(KernelSpec.polydisc((1, 2)), nodes, targets)
    assert isinstance(res, LiftResult)
    assert res.certificate.verify_residual <= 1e-7


def test_np_solve_polydisc_meets_the_strict_floor():
    """gamma=(1,2) on 12 design nodes with z1 z2 targets: plain Dykstra left
    a cone eigenvalue of 8e-11 against the 1e-10 floor after 10 000
    iterations; the accelerated iteration passes it."""
    nodes = GEN.polydisc_design(1, 12)
    res = np_solve_polydisc(KernelSpec.polydisc((1, 2)), nodes, GEN.z1z2_targets(nodes))
    assert isinstance(res, LiftResult)
    assert res.certificate.verify_residual <= 1e-7


def test_feasibility_memory_is_linear_in_the_summand_entries():
    """No ``q^2 x q^2`` array: the r=32 constant-target search (one
    ``q^4`` matrix alone is 8 MiB there) peaks below 8 MiB."""
    phases = GEN.random_phases(np.random.default_rng(1), 2)
    nodes = GEN.rotate(GEN.polydisc_design(0, 32), phases)
    spans = KernelSpans.build(KernelSpec.polydisc((1, 2)), nodes, GEN.constant_targets(nodes))
    tracemalloc.start()
    try:
        out = agler_feasibility(spans.s, spans.x, (1, 2), tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, AglerDecomposition)
    assert peak < 8 * 2**20


def test_feasibility_without_a_joint_eigenbasis_is_inconclusive():
    nilpotent = np.diag(np.ones(3), 1).astype(complex)
    s = TupleOperator((0.5 * nilpotent, 0.3 * nilpotent))
    out = agler_feasibility(s, 0.5 * np.eye(4), (1, 2))
    assert isinstance(out, Inconclusive)
    assert out.iterations == 0
    assert out.residuals == {"joint_eigenbasis": "none"}


def test_np_solve_polydisc_contractivity_screen():
    spec = KernelSpec.polydisc((1, 1))
    nodes = [(0.1, 0.2), (0.3, -0.1)]
    targets = [np.array([[1.4]]), np.array([[0.2]])]
    out = np_solve_polydisc(spec, nodes, targets)
    from schurlift import Infeasible

    assert isinstance(out, Infeasible)
    assert out.which == "contractivity"


def test_np_solve_polydisc_inconclusive_cap():
    rng = np.random.default_rng(12)
    spec = KernelSpec.polydisc((1, 1))
    nodes = random_polydisc_nodes(rng, 3, 2)
    targets = [0.6 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
    out = np_solve_polydisc(spec, nodes, targets, feasibility_tol=1e-14, max_iter=1)
    assert isinstance(out, Inconclusive)


def test_weight_two_polydisc_instances():
    rng = np.random.default_rng(13)
    for _ in range(5):
        spec = KernelSpec.polydisc((2, 1))
        nodes = random_polydisc_nodes(rng, 2, 2, radius=0.45, min_sep=0.25)
        targets = [0.55 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
        res = np_solve_polydisc(spec, nodes, targets, feasibility_tol=1e-10)
        assert isinstance(res, LiftResult)
        for z, w in zip(nodes, targets):
            assert opnorm(res.phi(z) - w) <= 1e-6


def test_psi_diagnostics_on_solved_instance():
    rng = np.random.default_rng(14)
    spec = KernelSpec.polydisc((1, 1))
    nodes = random_polydisc_nodes(rng, 3, 2, radius=0.45)
    targets = [0.6 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
    res = np_solve_polydisc(spec, nodes, targets, feasibility_tol=1e-11)
    assert isinstance(res, LiftResult)
    s = model_tuple(res.certificate.extras["np"]["q_codomain"])
    diag = psi_gamma_diagnostics(res.colligation, s, (1, 1), 60)
    assert all(g <= 1e-6 for g in diag.gamma_norms)
    assert diag.embed_residual <= 1e-9
    assert diag.psi_norm <= 1 + 1e-8


def test_psi_diagnostics_degree_zero_term():
    # the constant coefficient of the resolvent column is the corner block
    rng = np.random.default_rng(15)
    spec = KernelSpec.polydisc((1, 1))
    nodes = random_polydisc_nodes(rng, 2, 2)
    targets = [0.5 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)]
    res = np_solve_polydisc(spec, nodes, targets, feasibility_tol=1e-10)
    assert isinstance(res, LiftResult)
    s = model_tuple(res.certificate.extras["np"]["q_codomain"])
    diag0 = psi_gamma_diagnostics(res.colligation, s, (1, 1), 0)
    # at degree zero the pairing is the corner block pulled through the
    # coefficient map, so the row norm cannot exceed the block norm
    assert diag0.psi_norm <= opnorm(res.colligation.block_c) + 1e-12


# --- The entrywise affine projector ---


def _random_herm(rng, shape):
    return herm(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _hermitian_basis(q):
    """An orthonormal basis of the Hermitian ``q x q`` matrices under ``Re tr(A B*)``."""
    basis = []
    for a in range(q):
        for b in range(a, q):
            for value in ((1.0,) if a == b else (1 / np.sqrt(2), 1j / np.sqrt(2))):
                e = np.zeros((q, q), dtype=complex)
                e[a, b] = value
                e[b, a] = np.conj(value)
                basis.append(e)
    return np.stack(basis)


def _coords(basis, a):
    return np.einsum("kij,...ij->...k", basis.conj(), a).real


def _dense_reference_projection(s, gamma, target, v):
    """Dense least-squares projection of the stack ``v`` onto
    ``sum Gamma_i = target``, ``H_i = V^{-1} L_i(V Gamma_i V*) V^{-*}``, in the
    coordinates of ``_hermitian_basis``: the constraint matrix ``A`` applies
    the transformed positivity map ``L_i`` to the basis matrices, and the
    projection is ``v - A^T (A A^T)^{-1} (A v - b)``."""
    q, n = s.dim, s.n
    vecs, _ = joint_eigenbasis(s)
    vecs_inv = np.linalg.inv(vecs)
    basis = _hermitian_basis(q)
    k = len(basis)
    a = np.zeros(((n + 1) * k, 2 * n * k))
    for i in range(n):
        images = transformed_positivity(s, gamma, i, vecs @ basis @ vecs.conj().T)
        l_i = _coords(basis, vecs_inv @ images @ vecs_inv.conj().T).T
        a[:k, i * k : (i + 1) * k] = np.eye(k)
        a[(1 + i) * k : (2 + i) * k, i * k : (i + 1) * k] = -l_i
        a[(1 + i) * k : (2 + i) * k, (n + i) * k : (n + i + 1) * k] = np.eye(k)
    b = np.zeros((n + 1) * k)
    b[:k] = _coords(basis, target)
    flat = _coords(basis, v).ravel()
    return (flat - a.T @ np.linalg.solve(a @ a.T, a @ flat - b)).reshape(2 * n, k), basis


@pytest.mark.parametrize(
    "gamma, count",
    [((1, 1), 3), ((1, 2), 3), ((2, 2), 3), ((2, 2), 1), ((1, 2, 1), 2)],
)
def test_affine_projector_matches_dense_reference(gamma, count):
    """The entrywise projector in the joint eigenbasis is the orthogonal
    projection onto the affine set, with ``M_i`` the symbol of ``L_i``."""
    rng = np.random.default_rng(sum(gamma) * 10 + count)
    spec = KernelSpec.polydisc(gamma)
    nodes = random_polydisc_nodes(rng, count, len(gamma))
    s = model_tuple(build_subspace(spec, nodes))
    q, n = s.dim, s.n
    target = _random_herm(rng, (q, q))
    weights = _entry_weights(joint_eigenbasis(s)[1], gamma)
    project = _affine_projector(weights, target)
    for _ in range(3):
        v = _random_herm(rng, (2 * n, q, q))
        out = project(v)
        ref, basis = _dense_reference_projection(s, gamma, target, v)
        assert np.linalg.norm(_coords(basis, out) - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.allclose(out, herm(out), rtol=0, atol=1e-14)
        assert opnorm(sum(out[:n]) - target) <= 1e-12 * (1 + opnorm(target))
        assert np.linalg.norm(project(out) - out) <= 1e-12 * np.linalg.norm(out)


def test_feasibility_reads_the_cached_joint_eigenbasis(monkeypatch):
    calls = []
    compute = hypercontraction._compute_joint_eigenbasis

    def counted(t):
        calls.append(t)
        return compute(t)

    monkeypatch.setattr(hypercontraction, "_compute_joint_eigenbasis", counted)
    rng = np.random.default_rng(21)
    spec = KernelSpec.polydisc((1, 2))
    nodes = random_polydisc_nodes(rng, 3, 2)
    s = model_tuple(build_subspace(spec, nodes))
    x = 0.3 * np.eye(s.dim, dtype=complex)
    # The model tuple brings its basis; the same matrices without it
    # compute theirs once.
    assert isinstance(agler_feasibility(s, x, (1, 2)), AglerDecomposition)
    assert calls == []
    general = TupleOperator(s.mats)
    first = agler_feasibility(general, x, (1, 2))
    second = agler_feasibility(general, x, (1, 2))
    assert isinstance(first, AglerDecomposition)
    assert calls == [general]
    for a, b in zip(first.summands, second.summands):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 6),
    d=st.integers(1, 3),
    gamma=st.lists(st.integers(1, 3), min_size=2, max_size=3),
)
def test_inverse_entry_weights_are_kernel_grams(seed, r, d, gamma):
    """``1 / M_i`` is the Gram of the weight ``gamma - e_i`` kernel at the
    joint eigenvalues, so it is PSD: the reason Dykstra clips only the
    ``H_i = M_i o Gamma_i``."""
    nodes = random_polydisc_nodes(np.random.default_rng(seed), r, len(gamma))
    s = model_tuple(build_subspace(KernelSpec.polydisc(gamma, d), nodes))
    for inverse in 1.0 / _entry_weights(joint_eigenbasis(s)[1], gamma):
        assert min_eig(inverse) >= -1e-12 * opnorm(inverse)


def test_dykstra_clips_only_the_transformed_blocks(monkeypatch):
    shapes = []
    clip = lifting_polydisc.clip_psd

    def recorded(a):
        shapes.append(a.shape)
        return clip(a)

    monkeypatch.setattr(lifting_polydisc, "clip_psd", recorded)
    gamma = (1, 2)
    nodes = random_polydisc_nodes(np.random.default_rng(22), 4, 2)
    spans = KernelSpans.build(KernelSpec.polydisc(gamma), nodes, GEN.constant_targets(nodes))
    out = agler_feasibility(spans.s, spans.x, gamma, tol=1e-10)
    assert isinstance(out, AglerDecomposition)
    assert shapes and set(shapes) == {(2, spans.s.dim, spans.s.dim)}
