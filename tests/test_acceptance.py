"""Acceptance suite: one test per exit criterion, each printing a summary line."""

import time

import numpy as np
import pytest

from schurlift import (
    AglerDecomposition,
    GridSpec,
    Infeasible,
    KernelSpec,
    LiftResult,
    build_subspace,
    check_positivity,
    grid_points,
    kernel_eval,
    lift_p_gt_m,
    model_tuple,
    np_solve,
    np_solve_polydisc,
    np_target_operator,
    psi_gamma_diagnostics,
    schur_agler_certificate_ball,
    series_partial_lift,
)
from schurlift.colligation import UNITARY
from schurlift.hypercontraction import cp_map
from schurlift.lifting_polydisc import hereditary_difference_residual
from schurlift.linalg import min_eig, opnorm

from conftest import (
    random_ball_nodes,
    random_interior_points,
    random_polydisc_nodes,
    scaled_targets,
)


# ---------------------------------------------------------------- criterion 2 pool


@pytest.fixture(scope="module")
def ball_pool():
    """200 solvable ball instances spread over dimensions and weights."""
    rng = np.random.default_rng(2024)
    instances = []
    start = time.perf_counter()
    for i in range(200):
        n = (i % 3) + 1
        m = ((i // 3) % 3) + 1
        r = (i % 5) + 1
        d = 2 if i % 10 == 9 else 1
        spec = KernelSpec.ball(m, n, d_coeff=d)
        nodes = random_ball_nodes(rng, r, n, radius=0.55, min_sep=0.2)
        targets = scaled_targets(rng, spec, nodes, d_out=d, margin=0.01)
        result = np_solve(spec, nodes, targets, d_target=d)
        instances.append((spec, nodes, targets, result))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_1_moebius_closed_form():
    spec = KernelSpec.ball(1, 1)
    start = time.perf_counter()
    result = np_solve(spec, [(0.0,)], [np.array([[0.5]])])
    points = grid_points(GridSpec(radii=10, angles=10, radius=0.99), "ball", 1)
    worst = 0.0
    for z in points:
        expected = (0.5 + z[0]) / (1 + 0.5 * z[0])
        worst = max(worst, abs(result.phi(z)[0, 0] - expected))
    elapsed = time.perf_counter() - start
    assert isinstance(result, LiftResult)
    assert len(points) == 100
    assert worst <= 1e-10
    assert elapsed < 0.1
    print(
        f"\n[criterion 1] PASS moebius closed form: max deviation {worst:.2e} "
        f"on 100 grid points in {elapsed*1e3:.1f} ms"
    )


def test_criterion_2_np_ball_solvability_suite(ball_pool):
    instances, elapsed = ball_pool
    worst = 0.0
    for spec, nodes, targets, result in instances:
        assert isinstance(result, LiftResult), f"instance unsolved: {type(result)}"
        for z, w in zip(nodes, targets):
            worst = max(worst, opnorm(result.phi(z) - w))
    assert worst <= 1e-7
    assert elapsed < 60.0
    print(
        f"\n[criterion 2] PASS 200/200 solved: max node residual {worst:.2e}, "
        f"solve time {elapsed:.1f} s"
    )


def test_criterion_3_necessity_suite():
    rng = np.random.default_rng(31)
    checked = 0
    worst_gap = 0.0
    while checked < 50:
        m = int(rng.choice([2, 3]))
        n = int(rng.choice([1, 2]))
        spec = KernelSpec.ball(m, n)
        nodes = random_ball_nodes(rng, 2, n, radius=0.8, min_sep=0.05)
        space = build_subspace(spec, nodes)
        s = model_tuple(space)
        hit = None
        for s_val in np.linspace(0.2, 0.99, 80):
            targets = [np.array([[s_val]]), np.array([[-s_val]])]
            x = np_target_operator(space, targets, space)
            if opnorm(x) > 1 - 1e-6:
                continue
            gap = check_positivity(s, x, m).min_eig
            if gap <= -0.01:
                hit = (targets, x, gap)
                break
        if hit is None:
            continue
        targets, x, gap = hit
        outcome = np_solve(spec, nodes, targets)
        assert isinstance(outcome, Infeasible)
        assert outcome.which == "positivity-gap"
        # independent assembly: iterate the one-step difference map
        direct = np.eye(space.dim, dtype=complex) - x @ x.conj().T
        for _ in range(m - 1):
            direct = direct - cp_map(s, direct)
        assert abs(outcome.delta_min_eig - min_eig(direct)) <= 1e-9
        worst_gap = min(worst_gap, outcome.delta_min_eig)
        checked += 1
    print(
        f"\n[criterion 3] PASS 50/50 engineered violations rejected, "
        f"deepest gap eigenvalue {worst_gap:.3f}"
    )


def test_criterion_4_colligation_invariants(ball_pool):
    instances, _ = ball_pool
    worst_gen = 0.0
    worst_norm = 0.0
    worst_unitary = 0.0
    unitary_count = 0
    for _, _, _, result in instances:
        coll = result.colligation
        worst_gen = max(worst_gen, coll.generating_residual)
        worst_norm = max(worst_norm, coll.norm)
        if coll.kind == UNITARY:
            unitary_count += 1
            worst_unitary = max(worst_unitary, coll.unitary_defect)
    assert worst_gen <= 1e-9
    assert worst_norm <= 1 + 1e-10
    assert worst_unitary <= 1e-10
    print(
        f"\n[criterion 4] PASS colligation invariants on 200 instances: "
        f"generating residual {worst_gen:.2e}, norm excess {worst_norm - 1:.2e}, "
        f"unitary defect {worst_unitary:.2e} ({unitary_count} unitary completions)"
    )


def test_criterion_5_series_lemma():
    rng = np.random.default_rng(5)
    worst_final = 0.0
    for idx in range(20):
        n = (idx % 2) + 1
        m = (idx % 3) + 1
        spec = KernelSpec.ball(m, n)
        nodes = random_ball_nodes(rng, 2, n, radius=0.2, min_sep=0.08)
        targets = scaled_targets(rng, spec, nodes, margin=0.01)
        result = np_solve(spec, nodes, targets)
        assert isinstance(result, LiftResult)
        coll = result.colligation
        s = model_tuple(result.certificate.extras["np"]["q_codomain"])
        prev = None
        final = None
        for order in range(1, 13):
            partial, bound = series_partial_lift(coll, s, order)
            residual = opnorm(partial - coll.out_target)
            assert residual <= bound + 1e-12
            if prev is not None:
                assert residual <= prev + 1e-12
            prev = residual
            final = residual
        assert final <= 1e-8
        worst_final = max(worst_final, final)
    print(
        f"\n[criterion 5] PASS series lemma on 20 instances: residuals "
        f"nonincreasing, bounded, final residual <= {worst_final:.2e} at order 12"
    )


def test_criterion_6_schur_agler_certificates(ball_pool):
    instances, _ = ball_pool
    rng = np.random.default_rng(6)
    worst = 0.0
    for spec, _, _, result in instances:
        samples = random_interior_points(rng, 200, spec.n, radius=0.9)
        cert = schur_agler_certificate_ball(result.phi, samples, tol=1e-7)
        worst = min(worst, cert.min_eig)
        assert cert.min_eig >= -1e-7
    print(
        f"\n[criterion 6] PASS certificates on 200 emitted functions over "
        f"200-point samples: min eigenvalue {worst:.2e}"
    )


def test_criterion_7_composite_pipeline():
    rng = np.random.default_rng(7)
    worst_node = 0.0
    worst_iso = 0.0
    worst_pair = 0.0
    for idx in range(50):
        n = (idx % 2) + 1
        p = (idx % 2) + 2  # p in {2, 3}
        r = (idx % 3) + 1
        nodes = random_ball_nodes(rng, r, n, radius=0.5, min_sep=0.15)
        q1 = build_subspace(KernelSpec.ball(1, n), nodes)
        spec_p = KernelSpec.ball(p, n)
        q2 = build_subspace(spec_p, nodes)
        targets = scaled_targets(rng, spec_p, nodes, margin=0.01, weight_one=False)
        x = np_target_operator(q1, targets, q2)
        comp = lift_p_gt_m(q1, q2, x)
        for z, w in zip(nodes, targets):
            worst_node = max(worst_node, opnorm(comp.composite(z) - w))
        worst_iso = max(worst_iso, comp.dilation.isometry_residual)
        a, b = comp.positivity_min_eigs
        worst_pair = max(worst_pair, abs(a - b))
    assert worst_node <= 1e-6
    assert worst_iso <= 1e-10
    assert worst_pair <= 1e-10
    print(
        f"\n[criterion 7] PASS 50 composite lifts: node residual {worst_node:.2e}, "
        f"dilation residual {worst_iso:.2e}, positivity pair gap {worst_pair:.2e}"
    )


@pytest.fixture(scope="module")
def bidisc_pool():
    rng = np.random.default_rng(88)
    out = []
    for idx in range(100):
        r = (idx % 3) + 2  # 2..4 nodes
        spec = KernelSpec.polydisc((1, 1))
        nodes = random_polydisc_nodes(rng, r, 2, radius=0.5, min_sep=0.2)
        targets = [
            0.6 * w for w in scaled_targets(rng, spec, nodes, weight_one=False)
        ]
        result = np_solve_polydisc(
            spec, nodes, targets, feasibility_tol=1e-10, max_iter=10000
        )
        out.append((spec, nodes, targets, result))
    return out


def test_criterion_8_polydisc_suite(bidisc_pool):
    worst_node = 0.0
    worst_hered = 0.0
    worst_gen = 0.0
    worst_iters = 0
    for spec, nodes, targets, result in bidisc_pool:
        assert isinstance(result, LiftResult), f"not solved: {type(result).__name__}"
        dec = result.certificate.extras["decomposition"]
        assert isinstance(dec, AglerDecomposition)
        worst_iters = max(worst_iters, dec.iterations)
        assert dec.iterations <= 10000
        for z, w in zip(nodes, targets):
            worst_node = max(worst_node, opnorm(result.phi(z) - w))
        worst_hered = max(
            worst_hered, result.certificate.extras["hereditary_difference_residual"]
        )
        worst_gen = max(worst_gen, result.colligation.generating_residual)
        assert result.certificate.verify_residual <= 1e-6
        assert result.colligation.norm <= 1 + 1e-10
    assert worst_node <= 1e-6
    assert worst_hered <= 1e-9
    assert worst_gen <= 1e-9
    print(
        f"\n[criterion 8] PASS 100 bidisc lifts: node residual {worst_node:.2e}, "
        f"hereditary identity residual {worst_hered:.2e}, generating residual "
        f"{worst_gen:.2e}, max iterations {worst_iters}"
    )


def test_criterion_9_psi_diagnostics(bidisc_pool):
    worst_gamma = 0.0
    worst_embed = 0.0
    count = 0
    for spec, nodes, targets, result in bidisc_pool:
        if count >= 10:
            break
        if not isinstance(result, LiftResult):
            continue
        s = model_tuple(result.certificate.extras["np"]["q_codomain"])
        diag = psi_gamma_diagnostics(result.colligation, s, (1, 1), 60)
        worst_gamma = max(worst_gamma, max(diag.gamma_norms))
        worst_embed = max(worst_embed, diag.embed_residual)
        count += 1
    assert count == 10
    assert worst_gamma <= 1e-6
    assert worst_embed <= 1e-9
    print(
        f"\n[criterion 9] PASS diagnostics on 10 instances at degree 60: "
        f"state-pairing residual {worst_gamma:.2e}, recursion residual {worst_embed:.2e}"
    )


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(10)
    spec = KernelSpec.ball(1, 1)
    tested = 0
    skipped = 0
    disagreements = 0
    for idx in range(500):
        r = (idx % 2) + 1
        nodes = random_ball_nodes(rng, r, 1, radius=0.9, min_sep=0.05)
        targets = []
        for _ in range(r):
            w = rng.uniform(0, 1.1) * np.exp(2j * np.pi * rng.uniform())
            targets.append(np.array([[w]]))
        # brute-force oracle straight from the kernel values
        pick = np.zeros((r, r), dtype=complex)
        for a in range(r):
            for b in range(r):
                pick[a, b] = (
                    1 - targets[a][0, 0] * np.conj(targets[b][0, 0])
                ) * kernel_eval(spec, nodes[a], nodes[b])
        lam = min_eig(pick)
        if abs(lam) < 1e-6:
            skipped += 1
            continue
        outcome = np_solve(spec, nodes, targets)
        solved = isinstance(outcome, LiftResult)
        if solved != (lam > 0):
            disagreements += 1
        tested += 1
    assert disagreements == 0
    assert tested >= 400
    print(
        f"\n[criterion 10] PASS oracle equivalence: {tested} decided instances "
        f"({skipped} inside the margin band), 0 disagreements"
    )
