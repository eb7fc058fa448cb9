"""Self-check of the benchmark: every correctness check rejects a wrong answer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import schurlift  # noqa: E402

import checks  # noqa: E402
import instances as gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure, Realization  # noqa: E402


@pytest.fixture(scope="module")
def ball_case():
    rng = np.random.default_rng(0)
    inst = gen.ball_instance(rng, 4, 2, 2, 1, True)
    spec = schurlift.KernelSpec.ball(2, 2)
    result = schurlift.np_solve(spec, inst.nodes, inst.targets)
    assert isinstance(result, schurlift.LiftResult)
    return inst, result


@pytest.fixture(scope="module")
def polydisc_case():
    nodes = gen.polydisc_design(workloads.POLY_DESIGN, 6)
    inst = gen.Instance("polydisc", 2, nodes, gen.z1z2_targets(nodes), gamma=(1, 2))
    result = schurlift.np_solve_polydisc(schurlift.KernelSpec.polydisc((1, 2)), nodes,
                                         inst.targets)
    assert isinstance(result, schurlift.LiftResult)
    return inst, result


def test_own_evaluator_matches_the_program(ball_case, polydisc_case):
    for inst, result in (ball_case, polydisc_case):
        phi = Realization.from_colligation(result.colligation)
        for z in gen.sample_points(np.random.default_rng(1), 5, 2, inst.geometry):
            assert np.allclose(phi(z), result.phi(z), atol=1e-12)
        doc = json.loads(json.dumps(result.colligation.to_json_dict()))
        assert np.allclose(Realization.from_json(doc)(inst.nodes[0]), phi(inst.nodes[0]))


def test_perturbed_phi_value_is_rejected(ball_case):
    inst, result = ball_case
    phi = Realization.from_colligation(result.colligation)
    checks.check_interpolates(phi, inst)
    matrix = result.colligation.matrix.copy()
    matrix[0, 0] += 1e-5
    coll = result.colligation
    bad = Realization(matrix, coll.geometry, coll.in_defect_dim, coll.in_state_dims,
                      coll.out_defect_dim)
    with pytest.raises(CheckFailure, match="node residual"):
        checks.check_interpolates(bad, inst)


def test_non_contractive_value_is_rejected(ball_case):
    inst, result = ball_case
    phi = Realization.from_colligation(result.colligation)
    points = gen.sample_points(np.random.default_rng(2), 50, 2, "ball", radius=0.999)
    top = checks.check_contractive(phi, points)
    # Rescaled so that its largest sampled value has norm 1 + 1e-6.
    with pytest.raises(CheckFailure, match="exceeds 1"):
        checks.check_contractive(lambda z: (1.0 + 1e-6) / top * phi(z), points)


def test_flipped_verdict_is_rejected():
    rng = np.random.default_rng(3)
    spec = schurlift.KernelSpec.ball(1, 2)
    for solvable in (True, False):
        inst = gen.ball_instance(rng, 5, 2, 1, 1, solvable)
        assert gen.weight_one_verdict(inst) is solvable
        out = schurlift.np_solve(spec, inst.nodes, inst.targets)
        solved = isinstance(out, schurlift.LiftResult)
        checks.check_verdict(solved, solvable)
        with pytest.raises(CheckFailure, match="contradicts"):
            checks.check_verdict(not solved, solvable)


def test_non_psd_summand_is_rejected(polydisc_case):
    inst, result = polydisc_case
    dec = result.certificate.extras["decomposition"]
    x = result.certificate.extras["np"]["x"]
    checks.check_summands(dec.summands, inst, x=x)
    g0, g1 = (np.array(g) for g in dec.summands)
    lam, vecs = np.linalg.eigh(g0)
    shift = 1e-3 * np.outer(vecs[:, 0], vecs[:, 0].conj())
    # Same sum, but mass moved out of the first summand's bottom eigenvector.
    move = (lam[0] / 1e-3 + 1.0) * shift
    with pytest.raises(CheckFailure, match="eigenvalue"):
        checks.check_summands([g0 - move, g1 + move], inst, x=x)
    # PSD summands whose sum misses I - XX*.
    with pytest.raises(CheckFailure, match="I - XX"):
        checks.check_summands([g0 + shift, g1], inst, x=x)
    # Without the program's X, the spectrum comparison still catches it.
    with pytest.raises(CheckFailure, match="spectrum"):
        checks.check_summands([g0 + shift, g1], inst)


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re(z1),im(z1),re(z2),im(z2),opnorm\n")
        for z, norm in rows:
            fh.write(",".join(f"{v:.17g}" for c in z for v in (c.real, c.imag)))
            fh.write(f",{norm:.17g}\n")


def test_scan_csv_rows_are_checked(tmp_path, polydisc_case):
    inst, result = polydisc_case
    phi = Realization.from_colligation(result.colligation)
    points = gen.sample_points(np.random.default_rng(4), 20, 2, "polydisc")
    rows = [(z, float(np.linalg.norm(phi(z), 2))) for z in points]
    path = str(tmp_path / "scan.csv")
    _write_csv(path, rows)
    checks.check_scan_csv(path, 2, len(rows), phi, probe_every=1)

    _write_csv(path, rows[:-1])
    with pytest.raises(CheckFailure, match="rows"):
        checks.check_scan_csv(path, 2, len(rows), phi, probe_every=1)

    bad = list(rows)
    bad[3] = (bad[3][0], 1.0 + 1e-6)
    _write_csv(path, bad)
    with pytest.raises(CheckFailure, match="> 1"):
        checks.check_scan_csv(path, 2, len(rows), phi, probe_every=100)

    bad[3] = (bad[3][0], 0.5 * rows[3][1])
    _write_csv(path, bad)
    with pytest.raises(CheckFailure, match="differs"):
        checks.check_scan_csv(path, 2, len(rows), phi, probe_every=1)


def test_exit_code_must_match_status():
    text = json.dumps({"status": "infeasible"})
    checks.check_report(2, text, "infeasible")
    with pytest.raises(CheckFailure, match="exit code"):
        checks.check_report(0, text, "infeasible")
    with pytest.raises(CheckFailure, match="status"):
        checks.check_report(2, text, "solved")


def test_cli_reports_are_checked(tmp_path):
    wl = workloads.cli_certify(schurlift, np.random.default_rng(5), str(tmp_path))
    op = next(o for o in wl.ops if o.size == "ball-certify")
    code, text = op.call()
    assert op.failure((code, text)) is None
    op.check((code, text))
    # A report that differs from the first one for the same instance.
    with pytest.raises(CheckFailure, match="differs"):
        op.check((code, text.replace('"status": "solved"', '"status": "solved" ')))
    # A report whose node table misses its target.
    report = json.loads(text)
    report["nodes"][0]["phi"][0][0][0] += 1e-3
    fresh = workloads.cli_certify(schurlift, np.random.default_rng(5), str(tmp_path))
    op2 = next(o for o in fresh.ops if o.size == "ball-certify")
    with pytest.raises(CheckFailure, match="misses a target"):
        op2.check((code, json.dumps(report, sort_keys=True, indent=2)))


def test_generators_are_seeded_and_nonzero():
    a = gen.ball_instance(np.random.default_rng(7), 6, 2, 1, 2, True)
    b = gen.ball_instance(np.random.default_rng(7), 6, 2, 1, 2, True)
    assert all(np.array_equal(x, y) for x, y in zip(a.targets, b.targets))
    assert a.nodes == b.nodes
    with pytest.raises(ValueError, match="zero"):
        gen.Instance("ball", 1, [(0.1,)], [np.zeros((1, 1))], m=1)


def test_tracer_rebinds_names_imported_elsewhere(ball_case):
    inst, _ = ball_case
    import schurlift.lifting_ball as lb
    import schurlift.hypercontraction as hc

    original = hc.is_pure
    tracer = tracing.Tracer().install()
    try:
        assert lb.is_pure is hc.is_pure is not original
        tracer.op_id = 0
        schurlift.np_solve(schurlift.KernelSpec.ball(2, 2), inst.nodes, inst.targets)
        tracer.op_id = None
    finally:
        tracer.uninstall()
    assert lb.is_pure is original and hc.is_pure is original
    assert tracer.calls["hypercontraction.is_pure"] == 2
    assert tracer.calls["lifting_ball.lift_ball"] == 1
    assert tracer.calls["kernels.kernel_eval"] > 0
    names = {span[3] for span in tracer.spans}
    assert "lifting_ball.np_solve" in names and "kernels.kernel_eval" not in names
    root = next(s for s in tracer.spans if s[3] == "lifting_ball.np_solve")
    lift = next(s for s in tracer.spans if s[3] == "lifting_ball.lift_ball")
    assert root[1] is None and lift[1] == root[0]
    total = sum(tracer.self_time.values())
    assert total == pytest.approx(root[5] - root[4], rel=1e-9)


def test_benchmark_file_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = dict(tracing.LAYER_METRICS, **{"trace.instances_per_s": "1/s"})
    assert listed == expected
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
