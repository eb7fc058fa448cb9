import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import schurlift.cli as cli
import schurlift.transfer as transfer
from schurlift import (
    KernelSpec,
    LiftResult,
    TupleOperator,
    build_subspace,
    lift_p_gt_m,
    model_tuple,
    np_solve,
    np_solve_polydisc,
    np_target_operator,
)
from schurlift.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_INFEASIBLE,
    EXIT_SOLVED,
    main,
    parse_instance,
    report_to_json,
    run,
)
from schurlift.errors import ParseError, ValidationError
from schurlift.hypercontraction import joint_eigenbasis
from schurlift.lifting_polydisc import Inconclusive
from schurlift.transfer import TransferFunction

from conftest import random_ball_nodes, random_polydisc_nodes, scaled_targets
from test_transfer import _count_cond, _loop_eval, _loop_sup_norm_scan, _loop_values

MOEBIUS = {
    "geometry": "ball",
    "m": 1,
    "n": 1,
    "dE": 1,
    "dEstar": 1,
    "nodes": [[[0.0, 0.0]]],
    "targets": [[[[0.5, 0.0]]]],
    "mode": "np-ball",
    "options": {},
}

BIDISC = {
    "geometry": "polydisc",
    "gamma": [1, 1],
    "n": 2,
    "dE": 1,
    "dEstar": 1,
    "nodes": [
        [[0.3, 0.0], [0.1, 0.2]],
        [[-0.2, 0.1], [0.35, 0.0]],
    ],
    "targets": [[[[0.25, 0.05]]], [[[-0.15, 0.0]]]],
    "mode": "lift-polydisc",
    "options": {"max_iter": 10000},
}


BALL_CERTIFY = {
    "geometry": "ball",
    "m": 1,
    "n": 2,
    "dE": 1,
    "dEstar": 1,
    "nodes": [
        [[0.3, 0.0], [0.1, 0.2]],
        [[-0.2, 0.1], [0.35, 0.0]],
        [[0.0, -0.25], [-0.1, -0.3]],
    ],
    "targets": [[[[0.2, 0.05]]], [[[-0.1, 0.0]]], [[[0.05, 0.15]]]],
    "mode": "certify",
    "options": {"samples": 40, "seed": 3},
}


def test_parse_minimal_instance():
    inst = parse_instance(json.dumps(MOEBIUS))
    assert inst.spec.geometry == "ball"
    assert inst.spec.m == 1
    assert inst.nodes == [(0j,)]
    assert inst.targets[0][0, 0] == 0.5


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")


def test_parse_rejects_boundary_node():
    doc = dict(MOEBIUS, nodes=[[[1.0, 0.0]]])
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_parse_rejects_wrong_target_rows():
    doc = dict(MOEBIUS, targets=[[[[0.5, 0.0]], [[0.1, 0.0]]]])
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_parse_rejects_unknown_mode():
    doc = dict(MOEBIUS, mode="optimize")
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_parse_requires_p_for_composite():
    doc = dict(MOEBIUS, mode="lift-pm")
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "doc, path",
    [
        (dict(MOEBIUS, n=0), "$.n"),
        (dict(BIDISC, n=0), "$.n"),
        (dict(MOEBIUS, dE=0), "$.dE"),
        (dict(BIDISC, dEstar=0), "$.dEstar"),
    ],
)
def test_parse_rejects_empty_dimensions_at_their_field(doc, path):
    with pytest.raises(ValidationError) as info:
        parse_instance(json.dumps(doc))
    assert info.value.path == path


def test_run_moebius_solved():
    inst = parse_instance(json.dumps(MOEBIUS))
    report, code = run(inst)
    assert code == EXIT_SOLVED
    assert report["status"] == "solved"
    assert report["certificates"]["max_node_residual"] <= 1e-10
    assert report["colligation"]["kind"] == "unitary"
    assert len(report["nodes"]) == 1
    # The series is checked at its limit, so no truncation order is reported.
    assert "series_residual" in report["certificates"]
    assert "series_order" not in report["certificates"]


def test_run_infeasible_two_node():
    doc = dict(
        MOEBIUS,
        nodes=[[[0.0, 0.0]], [[0.1, 0.0]]],
        targets=[[[[0.0, 0.0]]], [[[0.9, 0.0]]]],
    )
    inst = parse_instance(json.dumps(doc))
    report, code = run(inst)
    assert code == EXIT_INFEASIBLE
    assert report["status"] == "infeasible"
    assert report["certificates"]["pick_min_eig"] < -1e-6


#: Three nodes of the disc, for targets ``c z`` there.
THREE_NODES = [[[0.0, 0.0]], [[0.5, 0.0]], [[-0.3, 0.2]]]


def _linear_targets(c: float) -> list:
    return [[[[c * z[0][0], c * z[0][1]]]] for z in THREE_NODES]


def _main_report(tmp_path, capsys, doc, *flags):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", str(path), *flags])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("m, failed_test", [(1, "contractivity"), (2, "positivity-gap")])
def test_loose_psd_tol_still_reports_infeasible(tmp_path, capsys, m, failed_test):
    # (1 + 1e-7) z passes both Pick gates at --psd-tol 1e-5; the lift's own
    # contraction check (m = 1) or gap check (m = 2) then rejects it.
    doc = dict(MOEBIUS, m=m, nodes=THREE_NODES, targets=_linear_targets(1 + 1e-7))
    code, report = _main_report(tmp_path, capsys, doc, "--psd-tol", "1e-5")
    assert code == EXIT_INFEASIBLE
    assert report["status"] == "infeasible"
    assert report["certificates"]["failed_test"] == failed_test
    assert report["certificates"]["pick_min_eig"] < 0


def test_loose_psd_tol_still_reports_polydisc_infeasible(tmp_path, capsys):
    # (1 + 2e-7) z1 passes the Pick gate at --psd-tol 1e-5; the lift's own
    # contraction check rejects it before any Dykstra iteration.
    doc = dict(
        BIDISC,
        nodes=[[[0, 0], [0, 0]], [[0.5, 0], [0, 0]], [[-0.3, 0.2], [0.1, 0]]],
        targets=[[[[0, 0]]], [[[0.5000001, 0]]], [[[-0.30000003, 0.20000002]]]],
        options={},
    )
    code, report = _main_report(tmp_path, capsys, doc, "--psd-tol", "1e-5")
    assert code == EXIT_INFEASIBLE
    assert report["status"] == "infeasible"
    assert report["certificates"]["failed_test"] == "contractivity"
    assert report["certificates"]["pick_min_eig"] < 0


def test_verification_failure_is_an_error_report(tmp_path, capsys):
    doc = dict(MOEBIUS, nodes=THREE_NODES, targets=_linear_targets(0.5))
    code, report = _main_report(tmp_path, capsys, doc, "--verify-tol", "1e-30")
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert report["error"]["type"] == "VerificationFailure"


def test_lift_pm_reports_the_positivity_gap(tmp_path, capsys):
    # 0.8 z is contractive at weight p = 3 but not at weight m = 2.
    doc = dict(MOEBIUS, mode="lift-pm", m=2, p=3, nodes=[[[0.0, 0.0]], [[0.5, 0.0]]],
               targets=[[[[0.0, 0.0]]], [[[0.8, 0.0]]]])
    code, report = _main_report(tmp_path, capsys, doc)
    assert code == EXIT_INFEASIBLE
    assert report["status"] == "infeasible"
    assert report["certificates"]["failed_test"] == "positivity-gap"
    assert report["certificates"]["delta_min_eig"] == pytest.approx(-0.0551, abs=1e-4)


@pytest.mark.parametrize("mode", ["np-ball", "lift-ball", "lift-pm", "factorize"])
@pytest.mark.parametrize("c, expected", [(1.5, EXIT_INFEASIBLE), (0.5, EXIT_SOLVED)])
def test_every_ball_mode_reports_the_verdict(tmp_path, capsys, mode, c, expected):
    doc = dict(MOEBIUS, mode=mode, p=2, nodes=THREE_NODES, targets=_linear_targets(c),
               options={"samples": 20})
    code, report = _main_report(tmp_path, capsys, doc)
    assert code == expected
    if expected == EXIT_INFEASIBLE:
        assert report["status"] == "infeasible"
        assert report["certificates"]["failed_test"] == "contractivity"
        assert report["certificates"]["pick_min_eig"] < 0
    else:
        assert report["status"] == "solved"


@pytest.mark.parametrize("c", [1.5, 0.5])
def test_lift_ball_reports_what_np_ball_reports(c):
    doc = dict(MOEBIUS, nodes=THREE_NODES, targets=_linear_targets(c))
    reports = {mode: run(parse_instance(json.dumps(dict(doc, mode=mode))))[0]
               for mode in ("np-ball", "lift-ball")}
    assert reports["np-ball"].pop("mode") == "np-ball"
    assert reports["lift-ball"].pop("mode") == "lift-ball"
    assert report_to_json(reports["lift-ball"]) == report_to_json(reports["np-ball"])


def test_run_polydisc_solved_and_inconclusive():
    inst = parse_instance(json.dumps(BIDISC))
    report, code = run(inst)
    assert code == EXIT_SOLVED
    assert report["certificates"]["feasibility"]["iterations"] <= 10000

    capped = dict(BIDISC, options={"max_iter": 1, "feasibility_tol": 1e-14})
    inst = parse_instance(json.dumps(capped))
    report, code = run(inst)
    assert code == EXIT_INCONCLUSIVE
    assert report["status"] == "inconclusive"


#: Two nodes on which the generic combination ``sum_k w_k S_k`` of
#: ``joint_eigenbasis``, ``w_k = exp(i sqrt(2) k) (1 + k / 2)``, takes one
#: eigenvalue: ``w_1 (0.3 - 0) + w_2 (z - 0) = 0``.
DEGENERATE_PAIR_Z2 = -0.225 * np.exp(-1j * np.sqrt(2.0))
DEGENERATE_PAIR = dict(
    BIDISC,
    nodes=[[[0.0, 0.0], [0.0, 0.0]], [[0.3, 0.0], [DEGENERATE_PAIR_Z2.real, DEGENERATE_PAIR_Z2.imag]]],
    targets=[[[[0.1, 0.0]]], [[[-0.05, 0.0]]]],
)


@pytest.mark.parametrize("gamma", [[1, 1], [1, 2]])
def test_run_polydisc_solves_nodes_of_a_degenerate_combination(gamma):
    report, code = run(parse_instance(json.dumps(dict(DEGENERATE_PAIR, gamma=gamma))))
    assert code == EXIT_SOLVED
    assert report["certificates"]["verify_residual"] <= 1e-10
    assert report["certificates"]["max_node_residual"] <= 1e-10


def test_inconclusive_report_without_a_joint_eigenbasis(monkeypatch):
    monkeypatch.setattr(
        cli,
        "np_solve_polydisc",
        lambda *args, **kwargs: Inconclusive(0, {"joint_eigenbasis": "none"}, ()),
    )
    report, code = run(parse_instance(json.dumps(BIDISC)))
    assert code == EXIT_INCONCLUSIVE
    assert report["status"] == "inconclusive"
    assert report["certificates"]["iterations"] == 0
    assert report["certificates"]["joint_eigenbasis"] == "none"


def test_run_lift_pm_mode():
    doc = dict(
        MOEBIUS,
        mode="lift-pm",
        p=2,
        nodes=[[[0.2, 0.0]], [[-0.3, 0.1]]],
        targets=[[[[0.4, 0.0]]], [[[0.1, -0.2]]]],
    )
    inst = parse_instance(json.dumps(doc))
    report, code = run(inst)
    assert code == EXIT_SOLVED
    assert report["certificates"]["dilation_isometry_residual"] <= 1e-10
    a, b = report["certificates"]["positivity_min_eigs"]
    assert abs(a - b) <= 1e-10


def test_run_factorize_mode():
    doc = dict(
        MOEBIUS,
        mode="factorize",
        p=3,
        nodes=[[[0.2, 0.0]]],
        targets=[[[[0.4, 0.0]]]],
        options={"samples": 40, "seed": 1},
    )
    inst = parse_instance(json.dumps(doc))
    report, code = run(inst)
    assert code == EXIT_SOLVED
    assert report["certificates"]["factorization"]["pass"] is True


#: A solved n=1 factorize document whose sampled kernel matrix grows like
#: ``0.19^{-p}`` (the samples reach radius 0.9).
FACTORIZE_AT_ZERO = dict(
    MOEBIUS,
    mode="factorize",
    p=15,
    nodes=[[[0.0, 0.0]], [[0.1, 0.0]]],
    targets=[[[[0.0, 0.0]]], [[[0.05, 0.0]]]],
)


@pytest.mark.parametrize("p", [15, 20, 40])
def test_factorization_certificate_takes_the_relative_psd_rule(p):
    # The kernel matrix's norm grows with p; scaled to a unit diagonal its
    # bottom eigenvalue is round-off at every p (unscaled, -3.7e12 at p = 40).
    report, code = run(parse_instance(json.dumps(dict(FACTORIZE_AT_ZERO, p=p))))
    assert code == EXIT_SOLVED
    factorization = report["certificates"]["factorization"]
    assert factorization["pass"] is True and factorization["min_eig"] >= -1e-12


def test_factorization_certificate_still_fails_a_non_contraction():
    # Relative to the unscaled matrix's norm, which grows like 0.19^{-p},
    # the constants from 1.001 on passed at p = 15, 20 and 40.
    inst = parse_instance(json.dumps(FACTORIZE_AT_ZERO))
    samples = cli._sample_points(inst, inst.options.samples)
    cases = [(1.5, 5), (10.0, 15), (10.0, 20), (10.0, 40)]
    cases += [(value, p) for value in (1.001, 1.01, 1.5) for p in (15, 20, 40)]
    for value, p in cases:
        crit = cli.factorization_criterion(lambda z: np.array([[value]]), 1, p, samples, 1e-7, n=1)
        assert not crit.passed
    for p in (15, 20, 40):
        crit = cli.factorization_criterion(lambda z: np.eye(1), 1, p, samples, 1e-7, n=1)
        assert crit.passed and crit.min_eig >= -1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "doc, weight",
    [
        (dict(MOEBIUS, m=3000, nodes=[[[0.0, 0.0]], [[0.5, 0.0]]],
              targets=[[[[0.0, 0.0]]], [[[0.1, 0.0]]]]), "3000"),
        (dict(BIDISC, gamma=[3000, 1], nodes=[[[0.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.1, 0.0]]],
              options={}), "(3000, 1)"),
        (dict(FACTORIZE_AT_ZERO, p=500), "500"),
    ],
    ids=["ball", "polydisc", "factorize"],
)
def test_kernel_overflow_is_reported_as_ill_conditioned(tmp_path, capsys, doc, weight):
    # An overflowing kernel must not reach eigh as inf/NaN, which gives a
    # garbage Gram spectrum or a LinAlgError.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_ERROR
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {
        "type": "IllConditioned",
        "message": f"kernel values overflow at weight {weight}",
    }


def test_run_certify_mode():
    doc = dict(MOEBIUS, mode="certify", options={"samples": 60, "seed": 2})
    inst = parse_instance(json.dumps(doc))
    report, code = run(inst, certify=True)
    assert code == EXIT_SOLVED
    assert report["certificates"]["schur_agler"]["pass"] is True


def test_report_determinism():
    inst1 = parse_instance(json.dumps(MOEBIUS))
    inst2 = parse_instance(json.dumps(MOEBIUS))
    text1 = report_to_json(run(inst1)[0])
    text2 = report_to_json(run(inst2)[0])
    assert text1 == text2


def test_error_report_on_ill_conditioned(tmp_path):
    doc = dict(
        MOEBIUS,
        nodes=[[[0.3, 0.0]], [[0.3, 1e-12]]],
        targets=[[[[0.1, 0.0]]], [[[0.1, 0.0]]]],
    )
    inst = parse_instance(json.dumps(doc))
    report, code = run(inst)
    assert code == 1
    assert report["status"] == "error"
    assert report["error"]["type"] == "IllConditioned"


def test_main_solve_and_scan(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(MOEBIUS))
    code = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_SOLVED
    assert json.loads(out)["status"] == "solved"

    csv_path = tmp_path / "scan.csv"
    code = main(["scan", str(path), "--grid", "5:8:0.9", "--csv-out", str(csv_path)])
    capsys.readouterr()
    assert code == EXIT_SOLVED
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "re(z1),im(z1),opnorm"
    assert len(lines) == 41


def test_main_missing_file(capsys):
    code = main(["solve", "/nonexistent/instance.json"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["status"] == "error"


MOEBIUS_TEXT = json.dumps(MOEBIUS)


@pytest.mark.parametrize(
    "command, data, flag, target",
    [
        ("scan", MOEBIUS_TEXT.encode("utf-8"), "--csv-out", "missing/x.csv"),
        ("solve", MOEBIUS_TEXT.encode("utf-8"), "--out", "missing/r.json"),
        # UTF-16 with its byte-order mark: not UTF-8 from the first byte on
        ("solve", b"\xff\xfe" + MOEBIUS_TEXT.encode("utf-16-le"), "--out", "r.json"),
    ],
    ids=["unopenable-csv-out", "unopenable-out", "not-utf-8"],
)
def test_main_bad_paths_and_encodings_give_a_json_error_report(
    tmp_path, capsys, command, data, flag, target
):
    path = tmp_path / "inst.json"
    path.write_bytes(data)
    out_path = tmp_path / target
    code = main([command, str(path), flag, str(out_path)])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().out)["status"] == "error"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "command, expected",
    [("solve", EXIT_SOLVED), ("scan", EXIT_ERROR)],
    ids=["solved", "unopenable-csv-out"],
)
def test_out_holds_the_printed_report(tmp_path, capsys, command, expected):
    # The scan's --csv-out cannot be opened, after --out was.
    path = tmp_path / "inst.json"
    path.write_text(MOEBIUS_TEXT)
    out_path = tmp_path / "r.json"
    flags = ["--csv-out", str(tmp_path / "missing" / "x.csv")] if command == "scan" else []
    code = main([command, str(path), "--out", str(out_path), *flags])
    printed = capsys.readouterr().out
    assert code == expected
    assert out_path.read_text(encoding="utf-8") == printed


def test_main_byte_identical_runs(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(MOEBIUS, mode="certify", options={"samples": 30, "seed": 7})))
    main(["certify", str(path)])
    first = capsys.readouterr().out
    main(["certify", str(path)])
    second = capsys.readouterr().out
    assert first == second


@settings(max_examples=45, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["certify", "np-ball", "lift-pm"]),
    r=st.integers(1, 4),
    data=st.data(),
)
def test_identical_documents_give_byte_identical_reports(seed, mode, r, data):
    """Identical documents give byte-identical reports and scan CSVs:
    polydisc ``certify`` documents, solved or capped to ``inconclusive``,
    and ball ``np-ball`` and ``lift-pm`` documents."""
    rng = np.random.default_rng(seed)
    options = {"samples": 20, "seed": 1, "grid": [2, 3, 0.8], "max_iter": 300}
    if mode == "certify":
        gamma = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 2)]), label="gamma")
        cap = data.draw(st.sampled_from([None, 1, 3]), label="cap")
        if cap is not None:
            options.update(max_iter=cap, feasibility_tol=1e-14)
        spec = KernelSpec.polydisc(gamma)
        nodes = random_polydisc_nodes(rng, r, 2)
        targets = scaled_targets(rng, spec, nodes, weight_one=False)
        doc = dict(BIDISC, gamma=list(gamma))
    else:
        m = data.draw(st.integers(1, 2), label="m")
        spec = KernelSpec.ball(m, 2)
        nodes = random_ball_nodes(rng, r, 2)
        targets = scaled_targets(rng, spec, nodes)
        doc = dict(MOEBIUS, m=m, n=2)
        if mode == "lift-pm":
            doc["p"] = m + data.draw(st.integers(1, 2), label="p - m")
    doc.update(
        nodes=[[[z.real, z.imag] for z in node] for node in nodes],
        targets=[[[[0.7 * w[0, 0].real, 0.7 * w[0, 0].imag]]] for w in targets],
        mode=mode,
        options=options,
    )

    def outputs():
        csv = io.StringIO()
        report, code = run(parse_instance(json.dumps(doc)), csv_stream=csv)
        return code, report_to_json(report), csv.getvalue()

    first = outputs()
    event(f"{mode} status {json.loads(first[1])['status']}")
    assert first[0] in (EXIT_SOLVED, EXIT_INCONCLUSIVE, EXIT_ERROR)
    assert outputs() == first


#: Valid documents of each geometry and of the modes with extra fields.
VALID_DOCUMENTS = {
    "np-ball": MOEBIUS,
    "certify-ball": BALL_CERTIFY,
    "lift-pm": dict(MOEBIUS, mode="lift-pm", p=2),
    "lift-polydisc": BIDISC,
}

#: Values of every JSON type; a field is retyped to one of another type.
JSON_VALUES = (None, True, False, 0, 2, 2.5, "x", [], [[0.0, 0.0]], {}, {"n": 1})


def _numeric_leaves(doc, path=()):
    """Paths to the numbers of a document, booleans excepted."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []
    return [leaf for key, value in items for leaf in _numeric_leaves(value, path + (key,))]


def _damage(doc, data, damage):
    """A deep copy of the document with one field dropped, retyped or made non-finite."""
    doc = json.loads(json.dumps(doc))
    if damage == "drop":
        # Every field but ``options`` is required.
        del doc[data.draw(st.sampled_from(sorted(set(doc) - {"options"})), label="dropped")]
    elif damage == "retype":
        key = data.draw(st.sampled_from(sorted(doc)), label="retyped")
        others = [v for v in JSON_VALUES if type(v) is not type(doc[key])]
        doc[key] = data.draw(st.sampled_from(others), label="to")
    else:
        *parents, leaf = data.draw(st.sampled_from(_numeric_leaves(doc)), label="number")
        holder = functools.reduce(lambda d, k: d[k], parents, doc)
        holder[leaf] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="to")
    return doc


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(VALID_DOCUMENTS)),
    damage=st.sampled_from(["drop", "retype", "non-finite"]),
    command=st.sampled_from(["solve", "certify", "scan"]),
    data=st.data(),
)
def test_damaged_documents_give_a_json_error_report(tmp_path_factory, name, damage, command, data):
    """A valid document with a field dropped, retyped or set to a non-finite
    number is rejected when it is parsed: ``main`` prints a JSON error
    report and returns 1, and never raises."""
    doc = _damage(VALID_DOCUMENTS[name], data, damage)
    event(damage)
    workdir = tmp_path_factory.mktemp("damaged")
    path = workdir / "inst.json"
    path.write_text(json.dumps(doc))  # ``NaN`` and ``Infinity`` as Python's JSON writes them
    argv = [command, str(path)]
    if command == "scan":
        argv += ["--csv-out", str(workdir / "scan.csv")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert report["error"]["type"] in ("ParseError", "ValidationError")
    assert not (workdir / "scan.csv").exists()


@pytest.mark.parametrize(
    "doc",
    [
        dict(MOEBIUS, m=True),
        dict(MOEBIUS, dE=True),
        dict(MOEBIUS, dEstar=True),
        dict(BIDISC, gamma=[True, 1]),
        dict(MOEBIUS, nodes=[[[False, 0.0]]]),
        dict(MOEBIUS, targets=[[[[0.5, False]]]]),
    ],
)
def test_booleans_are_not_numbers(tmp_path, capsys, doc):
    # Python counts ``True`` as the integer 1, so each document would solve.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["error"]["type"] in ("ParseError", "ValidationError")


def test_valid_documents_of_the_damage_property_solve(tmp_path, capsys):
    for doc in VALID_DOCUMENTS.values():
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_SOLVED
        assert json.loads(capsys.readouterr().out)["status"] == "solved"


def _forbid_solves(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the instance was solved before its input was validated")

    for name in ("np_solve", "np_solve_polydisc", "lift_p_gt_m"):
        monkeypatch.setattr(cli, name, solve)


@pytest.mark.parametrize(
    "command, options, flags",
    [
        ("certify", {}, ["--grid", "2:x:0.9"]),
        ("certify", {}, ["--grid", "2:2"]),
        ("certify", {}, ["--grid", "2:2:1.5"]),
        ("scan", {}, ["--grid", "2:2:1.5"]),
        ("certify", {"grid": [2, 2, 1.5]}, []),
        ("scan", {"grid": [2, 2, 0.0]}, []),
        ("certify", {"seed": "abc"}, []),
        ("solve", {"psd_tol": "1e-9"}, []),
        ("solve", {"max_iter": 2.5}, []),
        ("solve", {"samples": True}, []),
        ("certify", {"sample_radius": [0.5]}, []),
        ("certify", {"samples": 0}, []),
        ("certify", {}, ["--seed", "-1"]),
        ("certify", {}, ["--seed", "abc"]),
        ("solve", {}, ["--psd-tol", "x"]),
        ("solve", {}, ["--max-iter", "1.5"]),
    ],
)
def test_malformed_options_are_rejected_before_solving(
    tmp_path, capsys, monkeypatch, command, options, flags
):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(MOEBIUS, options=options)))
    _forbid_solves(monkeypatch)
    argv = [command, str(path), *flags]
    if command == "scan":
        argv += ["--csv-out", str(tmp_path / "scan.csv")]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert report["error"]["type"] == "ValidationError"


#: A solvable lift-pm document: targets z / 2 at three nodes of the disc.
HALF_Z = dict(MOEBIUS, mode="lift-pm", p=2, nodes=THREE_NODES, targets=_linear_targets(0.5))


@pytest.mark.parametrize("mode", ["lift-pm", "factorize"])
@pytest.mark.parametrize(
    "options, flags, path",
    [({"psd_tol": 1e-5}, [], "$.options.psd_tol"), ({}, ["--psd-tol", "1e-5"], "--psd-tol")],
    ids=["document", "flag"],
)
def test_lift_pm_modes_reject_a_psd_tol_they_do_not_use(
    tmp_path, capsys, monkeypatch, mode, options, flags, path
):
    _forbid_solves(monkeypatch)
    doc = dict(HALF_Z, mode=mode, options=options)
    code, report = _main_report(tmp_path, capsys, doc, *flags)
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert report["error"]["type"] == "ValidationError"
    assert report["error"]["message"].startswith(f"{path}:")


@pytest.mark.parametrize("mode", ["lift-pm", "factorize"])
def test_lift_pm_modes_accept_the_default_psd_tol(tmp_path, capsys, mode):
    doc = dict(HALF_Z, mode=mode)
    code, plain = _main_report(tmp_path, capsys, doc)
    stated = _main_report(tmp_path, capsys, dict(doc, options={"psd_tol": 1e-9}),
                          "--psd-tol", "1e-9")
    assert code == EXIT_SOLVED
    assert stated == (code, plain)


@pytest.mark.parametrize("mode", ["np-ball", "lift-ball"])
def test_ball_modes_on_polydisc_documents_are_rejected_before_solving(
    tmp_path, capsys, monkeypatch, mode
):
    _forbid_solves(monkeypatch)
    code, report = _main_report(tmp_path, capsys, dict(BIDISC, mode=mode))
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert report["error"]["type"] == "ValidationError"
    assert report["error"]["message"].startswith("$.mode:")


@pytest.mark.parametrize(
    "command, doc",
    [
        ("certify", dict(MOEBIUS, mode="certify")),
        ("scan", MOEBIUS),
        ("certify", dict(MOEBIUS, mode="lift-pm", p=2)),
        ("scan", dict(MOEBIUS, mode="lift-ball")),
        ("certify", BIDISC),
    ],
)
def test_each_command_solves_once(tmp_path, capsys, monkeypatch, command, doc):
    calls = []
    for name in ("np_solve", "np_solve_polydisc", "lift_p_gt_m"):
        original = getattr(cli, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(doc, options={"samples": 20, "grid": [2, 3, 0.9]})))
    code = main([command, str(path), "--csv-out", str(tmp_path / "scan.csv")]
                if command == "scan" else [command, str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_SOLVED
    assert report["certificates"].get("schur_agler", report["certificates"].get("sup_norm"))
    assert len(calls) == 1


def test_scan_of_certify_document_scans_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(BIDISC, mode="certify")))
    main(["certify", str(path), "--grid", "3:3:0.9"])
    certified = capsys.readouterr().out

    scans = []
    original = cli.grid_scan

    def counted(*args, **kwargs):
        scans.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "grid_scan", counted)
    csv_path = tmp_path / "scan.csv"
    code = main(["scan", str(path), "--grid", "3:3:0.9", "--csv-out", str(csv_path)])
    assert code == EXIT_SOLVED
    assert len(scans) == 1
    # The scan command reports what certify reports and adds the CSV of the same grid.
    assert capsys.readouterr().out == certified
    assert len(csv_path.read_text().strip().split("\n")) == 1 + 81


def _pointwise(phi):
    """Single-point evaluator: the reference formula for transfer functions."""
    return functools.partial(_loop_eval, phi) if isinstance(phi, TransferFunction) else phi


def test_batched_outputs_match_pointwise_reference(tmp_path, capsys, monkeypatch):
    """Reports (node table and certificates included) and the scan CSV match
    the ones built from single-point evaluations, one ``opnorm`` per scan row
    and certificates over those values.  The ball report is byte-identical.
    The polydisc scan eliminates a state block on the grid, so its norms and
    ``sup_norm.max`` agree within 1e-13 and every other byte is equal."""
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps(BALL_CERTIFY))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(BIDISC))

    def outputs(tag):
        csv = tmp_path / f"{tag}.csv"
        assert main(["certify", str(ball)]) == EXIT_SOLVED
        certified = capsys.readouterr().out
        assert main(["scan", str(poly), "--grid", "4:5:0.9", "--csv-out", str(csv)]) == EXIT_SOLVED
        return certified, json.loads(capsys.readouterr().out), csv.read_text()

    batched = outputs("batched")
    monkeypatch.setattr(transfer, "values_at", lambda phi, pts: _loop_values(_pointwise(phi), pts))
    monkeypatch.setattr(
        cli, "grid_scan",
        lambda phi, grid, geometry, n: _loop_sup_norm_scan(
            _pointwise(phi), transfer.grid_points(grid, geometry, n)),
    )
    pointwise = outputs("pointwise")
    assert pointwise[0] == batched[0] and '"schur_agler"' in batched[0]

    got, want = batched[1]["certificates"]["sup_norm"], pointwise[1]["certificates"]["sup_norm"]
    assert abs(got["max"] - want["max"]) <= 1e-13
    want["max"] = got["max"]
    assert report_to_json(pointwise[1]) == report_to_json(batched[1])

    rows, reference = batched[2].split("\n"), pointwise[2].split("\n")
    assert len(rows) == len(reference) == 1 + 20**2 + 1 and rows[0] == reference[0]
    for row, ref in zip(rows[1:-1], reference[1:-1]):
        coords, norm = row.rsplit(",", 1)
        ref_coords, ref_norm = ref.rsplit(",", 1)
        assert coords == ref_coords and abs(float(norm) - float(ref_norm)) <= 1e-13


def test_polydisc_scan_skips_every_resolvent_svd(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bidisc.json"
    path.write_text(json.dumps(BIDISC))
    seen = _count_cond(monkeypatch)
    csv_path = tmp_path / "scan.csv"
    code = main(["scan", str(path), "--grid", "5:8:0.9", "--csv-out", str(csv_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_SOLVED and report["certificates"]["sup_norm"]["points"] == 40**2
    assert sum(seen) == 0


def test_polydisc_grid_scan_solves_below_the_full_state_size(tmp_path, capsys, monkeypatch):
    """The bidisc scan eliminates state block 1 once per axis value, so no
    ``np.linalg.solve`` of the scan sees a matrix of the full state size."""
    path = tmp_path / "bidisc.json"
    path.write_text(json.dumps(BIDISC))
    sizes, states = [], []
    scan = cli.grid_scan

    def solve(a, b):
        sizes.append(np.shape(a)[-1])
        return np.linalg.solve(a, b)

    def counted(phi, *args):
        states.append(sum(phi.colligation.in_state_dims))
        linalg = types.SimpleNamespace(**{**vars(np.linalg), "solve": solve})
        with monkeypatch.context() as patch:
            patch.setattr(transfer, "np", types.SimpleNamespace(**{**vars(np), "linalg": linalg}))
            return scan(phi, *args)

    monkeypatch.setattr(cli, "grid_scan", counted)
    code = main(["scan", str(path), "--grid", "5:8:0.9", "--csv-out", str(tmp_path / "scan.csv")])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_SOLVED and report["certificates"]["sup_norm"]["points"] == 40**2
    assert len(states) == 1 and states[0] >= 2
    assert sizes and max(sizes) < states[0]


def test_kernel_span_solves_take_no_eigenproblem(tmp_path, capsys, monkeypatch):
    """Model tuples bring their joint eigenbasis, so no kernel-span solve and
    no ball certify calls ``np.linalg.eig``.  A bidisc certify or scan makes
    exactly one call, on the ``(len(axis), k2, k2)`` stack of its grid lines."""
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    rng = np.random.default_rng(31)
    ball = KernelSpec.ball(2, 2)
    nodes = random_ball_nodes(rng, 4, 2)
    assert isinstance(np_solve(ball, nodes, scaled_targets(rng, ball, nodes)), LiftResult)
    q1 = build_subspace(KernelSpec.ball(1, 2), nodes)
    q2 = build_subspace(ball, nodes)
    targets = scaled_targets(rng, ball, nodes, weight_one=False)
    assert lift_p_gt_m(q1, q2, np_target_operator(q1, targets, q2)).verify_residual <= 1e-6
    bidisc = KernelSpec.polydisc((1, 2))
    nodes = random_polydisc_nodes(rng, 3, 2)
    targets = [0.5 * w for w in scaled_targets(rng, bidisc, nodes, weight_one=False)]
    assert isinstance(np_solve_polydisc(bidisc, nodes, targets), LiftResult)
    assert calls == []
    for doc in (BALL_CERTIFY, BIDISC):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(dict(doc, options={"samples": 20, "grid": [2, 3, 0.9]})))
        for command in (["certify", str(path)], ["scan", str(path), "--csv-out", str(tmp_path / "scan.csv")]):
            assert main(command) == EXIT_SOLVED
            report = json.loads(capsys.readouterr().out)
            if doc is BALL_CERTIFY:
                assert calls == []
            else:
                k2 = report["colligation"]["in_state_dims"][1]
                assert calls == [(2 * 3, k2, k2)]
                calls.clear()
    # The general path still takes its eigenproblem through the wrapper.
    joint_eigenbasis(TupleOperator(model_tuple(q2).mats))
    assert calls


def _per_point_samples(seed: int, n: int, count: int, radius: float) -> np.ndarray:
    """Reference: the sampling formula one point at a time."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform() ** (1.0 / (2 * n))
        points.append(tuple(r * direction))
    return np.array(points, dtype=complex).reshape(count, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sample_points_equal_the_per_point_formula_bit_for_bit(n):
    for seed, count, radius in ((0, 1, 0.9), (3, 40, 0.9), (7, 200, 0.5), (11, 13, 0.99)):
        doc = dict(BALL_CERTIFY, n=n, nodes=[[[0.0, 0.0]] * n],
                   targets=[[[[0.1, 0.0]]]], options={"seed": seed, "sample_radius": radius})
        got = cli._sample_points(parse_instance(json.dumps(doc)), count)
        want = _per_point_samples(seed, n, count, radius)
        assert got.shape == (count, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("doc", [dict(BALL_CERTIFY, mode="np-ball"), BIDISC, dict(MOEBIUS, dEstar=2,
                                 targets=[[[[0.3, 0.0]], [[0.0, 0.2]]]])],
                         ids=["ball", "bidisc", "ball-d2"])
def test_node_table_reads_the_lift_values_at_the_nodes(monkeypatch, doc):
    """A front end's node table is the lift's spectrum values at the nodes,
    equal to evaluating the interpolant there, with no evaluation of its own."""
    inst = parse_instance(json.dumps(doc))
    solve = np_solve if inst.spec.geometry == "ball" else np_solve_polydisc
    result = solve(inst.spec, inst.nodes, inst.targets, d_target=inst.d_target)
    want = cli._node_table(inst, result.phi.eval_many(inst.nodes))

    calls = []
    original = TransferFunction.eval_many

    def counted(self, points):
        calls.append(len(points))
        return original(self, points)

    monkeypatch.setattr(TransferFunction, "eval_many", counted)
    report, code = run(inst)
    assert code == EXIT_SOLVED
    assert calls == [len(inst.nodes) * inst.d_target]
    assert report_to_json({"nodes": report["nodes"], "worst": report["certificates"]["max_node_residual"]}) \
        == report_to_json({"nodes": want[0], "worst": want[1]})


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Two commands in one process, on the once-built parser, give the reports,
    exit codes and scan CSV that each gives as the first call of a new process."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(BALL_CERTIFY))
    commands = (["scan", str(path)], ["certify", str(path), "--samples", "50"])

    def fresh(argv, cwd):
        cwd.mkdir()
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from schurlift.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            cwd=cwd, capture_output=True, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=src),
        )
        csv = cwd / "scan.csv"
        return proc.returncode, proc.stdout, csv.read_text() if csv.exists() else None

    expected = [fresh(argv, tmp_path / f"fresh-{argv[0]}") for argv in commands]
    shared = tmp_path / "shared"
    shared.mkdir()
    monkeypatch.chdir(shared)
    cli._parser.cache_clear()
    got = []
    for argv in commands:
        code = main(argv)
        csv = shared / "scan.csv"
        got.append((code, capsys.readouterr().out, csv.read_text() if csv.exists() else None))
        csv.unlink(missing_ok=True)
    assert cli._parser.cache_info().misses == 1
    assert got == expected
    assert expected[0][0] == expected[1][0] == EXIT_SOLVED and expected[0][2]
    assert json.loads(got[1][1])["certificates"]["schur_agler"]["samples"] == 50
