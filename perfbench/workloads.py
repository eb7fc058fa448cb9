"""The three workloads: a fixed round of operations built from the seed.

A run repeats its round until the time is up, so every run attempts whole
rounds and the one fault operation per round fails in the same share of
attempts whatever the seed and the run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import instances as gen
from instances import Instance

#: ``verify_tol`` default of ``schurlift solve``: a result whose own
#: kernel-basis residual exceeds it is reported as an error there, so the
#: benchmark counts it as a failed operation too.
VERIFY_TOL = 1e-7

#: Ball fault: m=2, n=2 on 26 nodes drawn at radius 0.6 with separation
#: 0.15.  The hereditary defect of the model tuple is PSD in exact
#: arithmetic; the binomial expansion's round-off drives its bottom
#: eigenvalue to about -4.5e-9, past the 2e-9 tolerance, and ``np_solve``
#: raises ``NotHypercontraction``.
BALL_FAULT_SEED, BALL_FAULT_NODES = 53, 26

#: Polydisc fault: gamma=(1,2) on 16 design nodes with targets
#: 0.02 (z1 + z2) / 2.  Dykstra converges, but the lift's verification
#: residual is about 2e-6, above ``VERIFY_TOL``.
POLYDISC_FAULT_DESIGN, POLYDISC_FAULT_NODES = 1, 16

#: Node designs whose Dykstra runs converge (see ``instances.polydisc_design``).
POLY_DESIGN = 0
CONST_DESIGN = 0


@dataclass
class Op:
    """One closed-loop operation: a call into the program and its check.

    ``check`` raises ``checks.CheckFailure`` on a wrong answer and returns
    the largest residual it saw, or ``None`` when no interpolant came
    back.  ``failure`` returns a message when the program itself reports
    failure (an exception, an inconclusive search, or a verification
    residual above ``VERIFY_TOL``).
    """

    label: str
    size: str
    call: Callable[[], object]
    check: Callable[[object], float | None]
    failure: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    heavy: str  # size class reported as scale_p50_s


def _raised(out) -> str | None:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    return None


def _lift_failure(out) -> str | None:
    """Program-reported failure of a solve that should return an interpolant."""
    msg = _raised(out)
    if msg is not None:
        return msg
    cert = getattr(out, "certificate", None)
    if cert is None:
        return f"returned {type(out).__name__}"
    if cert.verify_residual > VERIFY_TOL:
        return f"verify_residual {cert.verify_residual:.3e} exceeds {VERIFY_TOL:.0e}"
    return None


def _spec(sl, inst: Instance):
    if inst.geometry == "ball":
        return sl.KernelSpec.ball(inst.m, inst.n, inst.d_in)
    return sl.KernelSpec.polydisc(inst.gamma, inst.d_in)


# ------------------------------------------------------------------ ball-solve


def _np_solve_op(sl, inst: Instance, size: str, points, expected: bool) -> Op:
    """``np_solve`` on a ball instance whose weight-one Pick verdict is ``expected``."""

    def call():
        return sl.np_solve(_spec(sl, inst), inst.nodes, inst.targets, d_target=inst.d_out)

    def check(out):
        solved = isinstance(out, sl.LiftResult)
        checks.check_verdict(solved, expected)
        if not solved:
            checks.require(out.which in ("contractivity", "positivity-gap"),
                           f"infeasible instance stopped at {out.which!r}")
            return None
        phi = checks.Realization.from_colligation(out.colligation)
        resid = checks.check_interpolates(phi, inst)
        checks.check_contractive(phi, points)
        return max(resid, out.certificate.verify_residual)

    def failure(out):
        msg = _raised(out)
        if msg is None and isinstance(out, sl.LiftResult):
            return _lift_failure(out)
        return msg

    kind = "solvable" if expected else "infeasible"
    return Op(f"np_solve {kind} r={inst.r} d={inst.d_in} m={inst.m}", size, call, check, failure)


def _composite_op(sl, inst: Instance, size: str) -> Op:
    """``lift_p_gt_m`` from weight m into weight p = m + 1 on one span."""

    def call():
        q1 = sl.build_subspace(_spec(sl, inst), inst.nodes)
        q2 = sl.build_subspace(sl.KernelSpec.ball(inst.p, inst.n, inst.d_out), inst.nodes)
        return sl.lift_p_gt_m(q1, q2, sl.np_target_operator(q1, inst.targets, q2))

    def check(out):
        resid = checks.check_interpolates(out.composite, inst)
        low, high = out.positivity_min_eigs
        checks.require(abs(low - high) <= 1e-9, "positivity gap differs across the dilation")
        return max(resid, out.verify_residual)

    def failure(out):
        msg = _raised(out)
        if msg is None and out.verify_residual > VERIFY_TOL:
            msg = f"verify_residual {out.verify_residual:.3e} exceeds {VERIFY_TOL:.0e}"
        return msg

    return Op(f"lift_p_gt_m r={inst.r} m={inst.m} p={inst.p}", size, call, check, failure)


def ball_solve(sl, rng) -> Workload:
    points = gen.sample_points(rng, 24, 2, "ball")
    ops: list[Op] = []

    def solve(r, m, d, solvable, size):
        inst = gen.ball_instance(rng, r, 2, m, d, solvable)
        ops.append(_np_solve_op(sl, inst, size, points, solvable))

    # Six operations below the r=10 class and six above it, so the pooled
    # median lands in the middle of the r=10 class.
    for m, d in ((1, 1), (2, 2), (3, 2)):
        solve(5, m, d, True, "r5")
    for m in (1, 2, 3):
        solve(10, m, 1, False, "infeasible")
        for _ in range(4):
            solve(10, m, 1, True, "r10")
        for _ in range(2):
            solve(20, m, 1, True, "r20")
    for m in (1, 2):
        inst = gen.ball_instance(rng, 10, 2, m, 1, True)
        inst.p = m + 1
        ops.append(_composite_op(sl, inst, "composite-r10"))

    fault_rng = np.random.default_rng(BALL_FAULT_SEED)
    nodes = gen.ball_nodes(fault_rng, BALL_FAULT_NODES, 2, radius=0.6, min_sep=0.15)
    fault = Instance("ball", 2, nodes, gen.drury_arveson_targets(fault_rng, nodes, 1), m=2)
    ops.append(_np_solve_op(sl, fault, "fault-r26", points, True))
    return Workload(ops, heavy="r20")


# ------------------------------------------------------------------ polydisc-solve


def _polydisc_op(sl, inst: Instance, size: str, points) -> Op:
    def call():
        return sl.np_solve_polydisc(_spec(sl, inst), inst.nodes, inst.targets,
                                    d_target=inst.d_out)

    def check(out):
        checks.require(isinstance(out, sl.LiftResult), "solvable instance not solved")
        phi = checks.Realization.from_colligation(out.colligation)
        resid = checks.check_interpolates(phi, inst)
        checks.check_contractive(phi, points)
        extras = out.certificate.extras
        checks.check_summands(extras["decomposition"].summands, inst, x=extras["np"]["x"])
        return max(resid, out.certificate.verify_residual)

    return Op(f"np_solve_polydisc gamma={inst.gamma} r={inst.r}", size, call, check,
              _lift_failure)


def polydisc_solve(sl, rng) -> Workload:
    points = gen.sample_points(rng, 24, 2, "polydisc")
    ops: list[Op] = []
    design6 = gen.polydisc_design(POLY_DESIGN, 6)
    design8 = gen.polydisc_design(POLY_DESIGN, 8)

    def rotated(design, gamma, size):
        nodes = gen.rotate(design, gen.random_phases(rng, 2))
        inst = Instance("polydisc", 2, nodes, gen.z1z2_targets(nodes), gamma=gamma)
        ops.append(_polydisc_op(sl, inst, size, points))

    # Rotations of one design are unitarily equivalent problems, so the
    # twelve gamma=(2,2) r=6 operations cost the same and the pooled median
    # (four cheaper operations below them, five dearer above) sits among them.
    for _ in range(4):
        rotated(design6, (1, 2), "r6")
    for _ in range(12):
        rotated(design6, (2, 2), "r6")
    for gamma in ((1, 2), (2, 2)):
        for _ in range(2):
            rotated(design8, gamma, "r8")
    nodes = gen.rotate(gen.polydisc_design(CONST_DESIGN, 24), gen.random_phases(rng, 2))
    ops.append(_polydisc_op(sl, Instance("polydisc", 2, nodes, gen.constant_targets(nodes),
                                         gamma=(1, 2)), "r24-const", points))

    nodes = gen.polydisc_design(POLYDISC_FAULT_DESIGN, POLYDISC_FAULT_NODES)
    targets = [np.array([[0.02 * (z[0] + z[1]) / 2]]) for z in nodes]
    fault = Instance("polydisc", 2, nodes, targets, gamma=(1, 2))
    ops.append(_polydisc_op(sl, fault, "fault-r16", points))
    return Workload(ops, heavy="r24-const")


# ------------------------------------------------------------------ cli-certify


def instance_document(inst: Instance, mode: str) -> dict:
    pair = lambda c: [float(c.real), float(c.imag)]  # noqa: E731
    doc = {
        "geometry": inst.geometry,
        "n": inst.n,
        "dE": inst.d_in,
        "dEstar": inst.d_out,
        "nodes": [[pair(c) for c in z] for z in inst.nodes],
        "targets": [[[pair(v) for v in row] for row in np.atleast_2d(w)] for w in inst.targets],
        "mode": mode,
        "options": {"seed": 0},
    }
    if inst.geometry == "ball":
        doc["m"] = inst.m
    else:
        doc["gamma"] = list(inst.gamma)
    return doc


def _cli_op(sl_cli, label, size, argv, check) -> Op:
    """``schurlift.cli.main(argv)`` in-process; the output is (exit code, report)."""

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sl_cli.main(list(argv))
        return code, buf.getvalue()

    def failure(out):
        msg = _raised(out)
        if msg is None:
            report = json.loads(out[1])
            if report.get("status") == "error":
                msg = report.get("error", {}).get("message", "error")
        return msg

    return Op(label, size, call, check, failure)


def cli_certify(sl, rng, workdir: str) -> Workload:
    import schurlift.cli as sl_cli

    points = {g: gen.sample_points(rng, 24, 2, g) for g in ("ball", "polydisc")}
    first_report: dict[str, str] = {}
    os.makedirs(workdir, exist_ok=True)

    def write(name, inst, mode):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(instance_document(inst, mode), fh)
        return path

    def repeatable(key, text):
        """Reports of one instance are byte-identical on every call."""
        first = first_report.setdefault(key, text)
        checks.require(text == first, f"report of {key} differs between identical calls")

    def certify_ball_check(key, inst):
        def check(out):
            code, text = out
            repeatable(key, text)
            report = checks.check_report(code, text, "solved")
            schur = report["certificates"]["schur_agler"]
            checks.require(schur["pass"] and schur["samples"] == 200,
                           "Schur-Agler certificate did not pass on 200 samples")
            resid = checks.check_report_nodes(report, inst)
            checks.check_contractive(checks.Realization.from_json(report["colligation"]),
                                     points["ball"])
            return max(resid, report["certificates"]["verify_residual"])
        return check

    ops: list[Op] = []
    for key in ("ball-a", "ball-b"):
        inst = gen.ball_instance(rng, 8, 2, 2, 1, True)
        path = write(f"{key}.json", inst, "np-ball")
        repeats = 2 if key == "ball-a" else 1
        for _ in range(repeats):
            ops.append(_cli_op(sl_cli, f"certify {key} r=8", "ball-certify",
                               ["certify", path, "--samples", "200"],
                               certify_ball_check(key, inst)))

    nodes = gen.rotate(gen.polydisc_design(POLY_DESIGN, 6), gen.random_phases(rng, 2))
    scan_inst = Instance("polydisc", 2, nodes, gen.z1z2_targets(nodes), gamma=(1, 2))
    scan_path = write("scan.json", scan_inst, "lift-polydisc")
    csv_path = os.path.join(workdir, "scan.csv")
    grid_points = (10 * 10) ** 2

    def scan_check(out):
        code, text = out
        repeatable("scan", text)
        report = checks.check_report(code, text, "solved")
        resid = checks.check_report_nodes(report, scan_inst)
        phi = checks.Realization.from_json(report["colligation"])
        worst = checks.check_scan_csv(csv_path, 2, grid_points, phi, probe_every=97)
        sup = report["certificates"]["sup_norm"]
        checks.require(sup["points"] == grid_points and abs(sup["max"] - worst) <= 1e-15,
                       "sup_norm certificate disagrees with the CSV")
        return max(resid, report["certificates"]["verify_residual"])

    ops.append(_cli_op(sl_cli, "scan polydisc r=6", "polydisc-scan",
                       ["scan", scan_path, "--grid", "10:10:0.95", "--csv-out", csv_path],
                       scan_check))

    nodes = gen.rotate(gen.polydisc_design(POLY_DESIGN, 8), gen.random_phases(rng, 2))
    cert_inst = Instance("polydisc", 2, nodes, gen.z1z2_targets(nodes), gamma=(2, 2))
    cert_path = write("certify-polydisc.json", cert_inst, "certify")

    def certify_polydisc_check(out):
        code, text = out
        repeatable("certify-polydisc", text)
        report = checks.check_report(code, text, "solved")
        resid = checks.check_report_nodes(report, cert_inst)
        feas = report["certificates"]["feasibility"]
        checks.check_summands([checks.parse_complex_matrix(g) for g in feas["summands"]],
                              cert_inst)
        sup = report["certificates"]["sup_norm"]
        checks.require(sup["max"] <= 1.0 + checks.CONTRACTION_TOL,
                       f"sup_norm {sup['max']:.12f} exceeds 1")
        checks.check_contractive(checks.Realization.from_json(report["colligation"]),
                                 points["polydisc"])
        return max(resid, report["certificates"]["verify_residual"])

    ops.append(_cli_op(sl_cli, "certify polydisc r=8", "polydisc-certify",
                       ["certify", cert_path], certify_polydisc_check))

    infeasible = gen.ball_instance(rng, 8, 2, 2, 1, False)
    infeasible_path = write("infeasible.json", infeasible, "np-ball")

    def infeasible_check(out):
        code, text = out
        repeatable("infeasible", text)
        checks.check_report(code, text, "infeasible")
        return None

    ops.append(_cli_op(sl_cli, "solve infeasible ball r=8", "ball-infeasible",
                       ["solve", infeasible_path], infeasible_check))
    return Workload(ops, heavy="polydisc-scan")


def build(name: str, sl, rng, workdir: str) -> Workload:
    if name == "ball-solve":
        return ball_solve(sl, rng)
    if name == "polydisc-solve":
        return polydisc_solve(sl, rng)
    if name == "cli-certify":
        return cli_certify(sl, rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ball-solve", "polydisc-solve", "cli-certify")
