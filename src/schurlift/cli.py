"""JSON-in / JSON-out command line front end.

Subcommands ``solve``, ``certify``, and ``scan`` read a problem instance
document, dispatch to the pipelines, and print a report document.  Exit
codes: 0 solved, 2 infeasible, 3 inconclusive, 1 error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    NotContraction,
    NotPositive,
    ParseError,
    SchurliftError,
    ValidationError,
)
from .kernels import KernelSpec
from .lifting_ball import Infeasible, LiftResult, lift_p_gt_m, np_solve
from .lifting_polydisc import Inconclusive, np_solve_polydisc
from .linalg import complex_pairs, opnorms
from .model_space import build_subspace, np_target_operator
from .transfer import (
    GridSpec,
    factorization_criterion,
    grid_scan,
    schur_agler_certificate_ball,
    values_at,
    write_scan_csv,
)

MODES = ("np-ball", "lift-ball", "lift-pm", "lift-polydisc", "factorize", "certify")

EXIT_SOLVED = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class Options:
    psd_tol: float = 1e-9
    verify_tol: float = 1e-7
    max_iter: int = 10000
    feasibility_tol: float = 1e-10
    samples: int = 200
    seed: int = 0
    grid: tuple[int, int, float] = (5, 8, 0.9)
    sample_radius: float = 0.9


@dataclass
class ProblemInstance:
    spec: KernelSpec
    d_target: int
    nodes: list[tuple[complex, ...]]
    targets: list[np.ndarray]
    mode: str
    p: int | None = None
    options: Options = field(default_factory=Options)


def _as_complex(value, path: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ParseError("complex numbers are [re, im] pairs", path)
    if not all(math.isfinite(v) for v in value):
        raise ParseError("complex numbers must be finite", path)
    return complex(value[0], value[1])


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError("option must be a number", path)
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("option must be an integer", path)
    return value


def _check_options(options: Options, mode: str, from_flags: bool = False) -> None:
    """Range checks shared by the instance document and the command-line flags.

    The document is checked when it is parsed, so a failure after the
    flags are applied names the flag.  The ``lift-pm`` and ``factorize`` lifts
    test positivity at a fixed tolerance, so there ``psd_tol`` keeps its default.
    """

    def path(key: str) -> str:
        return "--" + key.replace("_", "-") if from_flags else f"$.options.{key}"

    for key in ("psd_tol", "verify_tol", "feasibility_tol"):
        value = getattr(options, key)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(f"{key} must be finite and nonnegative", path(key))
    if mode in ("lift-pm", "factorize") and options.psd_tol != Options.psd_tol:
        raise ValidationError(
            f"{mode} does not take psd_tol; leave it at {Options.psd_tol:g}", path("psd_tol")
        )
    if not 0.0 < options.sample_radius < 1.0:
        raise ValidationError("sample_radius must lie in (0, 1)", path("sample_radius"))
    for key in ("max_iter", "samples"):
        if getattr(options, key) < 1:
            raise ValidationError(f"{key} must be at least 1", path(key))
    if options.seed < 0:
        raise ValidationError("seed must be nonnegative", path("seed"))
    try:
        GridSpec(*options.grid)
    except ValueError as exc:
        raise ValidationError(str(exc), path("grid")) from None


def _get(doc: dict, key: str, types, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ParseError(f"missing field '{key}'", path)
        return default
    value = doc[key]
    # No field is a boolean, and a JSON boolean is no integer.
    if types is not None and (isinstance(value, bool) or not isinstance(value, types)):
        raise ParseError(f"field '{key}' has wrong type", f"{path}.{key}")
    return value


def parse_instance(text: str) -> ProblemInstance:
    """Parse and validate an instance document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")

    geometry = _get(doc, "geometry", str, "$")
    n = _get(doc, "n", int, "$")
    d_e = _get(doc, "dE", int, "$")
    d_star = _get(doc, "dEstar", int, "$")
    for key, value in (("n", n), ("dE", d_e), ("dEstar", d_star)):
        if value < 1:
            raise ValidationError(f"{key} must be at least 1", f"$.{key}")
    mode = _get(doc, "mode", str, "$")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}", "$.mode")

    if geometry == "ball":
        m = _get(doc, "m", int, "$")
        try:
            spec = KernelSpec.ball(m, n, d_e)
        except ValueError as exc:
            raise ValidationError(str(exc), "$.m")
    elif geometry == "polydisc":
        if mode in ("np-ball", "lift-ball"):
            raise ValidationError(f"mode {mode!r} needs ball geometry", "$.mode")
        gamma = _get(doc, "gamma", list, "$")
        if len(gamma) != n or not all(isinstance(g, int) and not isinstance(g, bool) for g in gamma):
            raise ValidationError("gamma must be a list of n integers", "$.gamma")
        try:
            spec = KernelSpec.polydisc(gamma, d_e)
        except ValueError as exc:
            raise ValidationError(str(exc), "$.gamma")
    else:
        raise ValidationError("geometry must be 'ball' or 'polydisc'", "$.geometry")

    p = _get(doc, "p", int, "$", required=(mode in ("lift-pm", "factorize")), default=None)
    if p is not None:
        if geometry != "ball":
            raise ValidationError("the p > m pipeline needs ball geometry", "$.p")
        if p <= spec.m:
            raise ValidationError(f"p must exceed m, got p={p}, m={spec.m}", "$.p")

    raw_nodes = _get(doc, "nodes", list, "$")
    if not raw_nodes:
        raise ValidationError("at least one node is required", "$.nodes")
    nodes = []
    for j, raw in enumerate(raw_nodes):
        path = f"$.nodes[{j}]"
        if not isinstance(raw, list) or len(raw) != n:
            raise ParseError(f"node must have {n} coordinates", path)
        z = tuple(_as_complex(c, f"{path}[{i}]") for i, c in enumerate(raw))
        try:
            spec.require_interior(z)
        except SchurliftError as exc:
            raise ValidationError(str(exc), path)
        nodes.append(z)
    if len(set(nodes)) != len(nodes):
        raise ValidationError("nodes must be pairwise distinct", "$.nodes")

    raw_targets = _get(doc, "targets", list, "$")
    if len(raw_targets) != len(nodes):
        raise ValidationError(
            f"got {len(raw_targets)} targets for {len(nodes)} nodes", "$.targets"
        )
    targets = []
    for j, raw in enumerate(raw_targets):
        path = f"$.targets[{j}]"
        if not isinstance(raw, list) or len(raw) != d_star:
            raise ValidationError(f"target must have {d_star} rows", path)
        rows = []
        for a, raw_row in enumerate(raw):
            if not isinstance(raw_row, list) or len(raw_row) != d_e:
                raise ValidationError(f"target row must have {d_e} entries", f"{path}[{a}]")
            rows.append([_as_complex(c, f"{path}[{a}][{b}]") for b, c in enumerate(raw_row)])
        targets.append(np.array(rows, dtype=complex))

    options = Options()
    raw_opts = _get(doc, "options", dict, "$", required=False, default={})
    for key in ("psd_tol", "verify_tol", "feasibility_tol", "sample_radius"):
        if key in raw_opts:
            setattr(options, key, _real(raw_opts[key], f"$.options.{key}"))
    for key in ("max_iter", "samples", "seed"):
        if key in raw_opts:
            setattr(options, key, _integer(raw_opts[key], f"$.options.{key}"))
    if "grid" in raw_opts:
        g = raw_opts["grid"]
        if not isinstance(g, list) or len(g) != 3:
            raise ValidationError("grid is [radii, angles, radius]", "$.options.grid")
        options.grid = (
            _integer(g[0], "$.options.grid[0]"),
            _integer(g[1], "$.options.grid[1]"),
            _real(g[2], "$.options.grid[2]"),
        )
    _check_options(options, mode)

    return ProblemInstance(
        spec=spec,
        d_target=d_star,
        nodes=nodes,
        targets=targets,
        mode=mode,
        p=p,
        options=options,
    )


def _sample_points(inst: ProblemInstance, count: int) -> np.ndarray:
    """Uniform points in the ball of radius ``sample_radius`` as a ``(count, n)``
    array; only ball modes sample.

    The loop only draws, in the stream order of the per-point formula: ``2n``
    normals (the real parts, then the imaginary parts) and one uniform,
    whose radius is a Python-float power.  Each direction is scaled by its
    norm, taken as ``np.linalg.norm`` takes it (over the real and imaginary
    views of the point), so the points equal the per-point formula's bit
    for bit.
    """
    rng = np.random.default_rng(inst.options.seed)
    n = inst.spec.n
    exponent = 1.0 / (2 * n)
    draws = np.empty((count, 2 * n))
    radii = np.empty(count)
    for a in range(count):
        draws[a] = rng.standard_normal(2 * n)
        radii[a] = inst.options.sample_radius * rng.uniform() ** exponent
    points = draws[:, :n] + 1j * draws[:, n:]
    norms = [math.sqrt(re.dot(re) + im.dot(im)) for re, im in zip(points.real, points.imag)]
    points /= np.array(norms)[:, None]
    points *= radii[:, None]
    return points


def _node_table(inst: ProblemInstance, values: np.ndarray) -> tuple[list[dict], float]:
    """Rows of the report's node table from the function's values at the
    nodes, and the largest node residual (0 for none)."""
    residuals = opnorms(values - np.stack(inst.targets)).tolist()
    rows = [
        {
            "z": complex_pairs(z),
            "target": complex_pairs(w),
            "phi": complex_pairs(value),
            "residual": residual,
        }
        for z, w, value, residual in zip(inst.nodes, inst.targets, values, residuals)
    ]
    return rows, max(residuals, default=0.0)


def _base_report(inst: ProblemInstance) -> dict:
    return {
        "mode": inst.mode,
        "options_used": asdict(inst.options),
        "status": None,
        "certificates": {},
        "colligation": None,
        "nodes": [],
    }


def _finish_solved(
    report: dict, inst: ProblemInstance, result: LiftResult, node_values: np.ndarray
) -> int:
    cert = result.certificate
    rows, worst = _node_table(inst, node_values)
    report["nodes"] = rows
    report["certificates"].update(
        {
            "delta_min_eig": cert.delta_min_eig,
            "generating_residual": cert.generating_residual,
            "verify_residual": cert.verify_residual,
            "max_node_residual": worst,
            "colligation_norm": result.colligation.norm,
            "unitary_defect": result.colligation.unitary_defect,
        }
    )
    if cert.series_residual is not None:
        report["certificates"]["series_residual"] = cert.series_residual
    for key in ("pick_weight_m_min_eig", "pick_weight_1_min_eig", "pick_min_eig",
                "hereditary_difference_residual"):
        if key in cert.extras:
            report["certificates"][key] = cert.extras[key]
    if "decomposition" in cert.extras:
        report["certificates"]["feasibility"] = cert.extras["decomposition"].to_json_dict()
    report["colligation"] = result.colligation.to_json_dict()
    if cert.verify_residual > inst.options.verify_tol:
        report["status"] = "error"
        report["error"] = {
            "type": "VerificationFailure",
            "message": f"lift verification residual {cert.verify_residual:.3e} "
            f"exceeds {inst.options.verify_tol:.3e}",
        }
        return EXIT_ERROR
    report["status"] = "solved"
    return EXIT_SOLVED


def _finish_infeasible(
    report: dict, failed_test: str, pick_min_eig: float, delta_min_eig: float | None = None
) -> int:
    report["status"] = "infeasible"
    report["certificates"].update(
        {
            "failed_test": failed_test,
            "pick_min_eig": pick_min_eig,
            "delta_min_eig": delta_min_eig,
        }
    )
    return EXIT_INFEASIBLE


def _finish_inconclusive(report: dict, outcome: Inconclusive) -> int:
    # Every residual of the outcome: an iterate's three, or ``joint_eigenbasis``.
    report["status"] = "inconclusive"
    report["certificates"]["iterations"] = outcome.iterations
    for key, value in outcome.residuals.items():
        key = "reconstruction_residual" if key == "reconstruction" else key
        report["certificates"][key] = value
    return EXIT_INCONCLUSIVE


def _finish_outcome(report: dict, inst: ProblemInstance, outcome):
    """Exit code and evaluator of an interpolation front end's outcome."""
    if isinstance(outcome, Infeasible):
        code = _finish_infeasible(
            report, outcome.which, outcome.pick_min_eig, outcome.delta_min_eig
        )
        return code, None
    if isinstance(outcome, Inconclusive):
        return _finish_inconclusive(report, outcome), None
    # The lift's values at the joint eigenvalues: the nodes, each d times.
    node_values = outcome.spectrum_values[:: inst.d_target]
    return _finish_solved(report, inst, outcome, node_values), outcome.phi


def _finish_error(report: dict, exc: Exception) -> dict:
    report["status"] = "error"
    report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return report


def _solve_ball_np(inst: ProblemInstance, report: dict):
    outcome = np_solve(inst.spec, inst.nodes, inst.targets, d_target=inst.d_target,
                       psd_base_tol=inst.options.psd_tol)
    return _finish_outcome(report, inst, outcome)


def _solve_lift_pm(inst: ProblemInstance, report: dict):
    q1 = build_subspace(inst.spec, inst.nodes)
    spec_p = KernelSpec.ball(inst.p, inst.spec.n, inst.d_target)
    q2 = build_subspace(spec_p, q1.nodes)
    x = np_target_operator(q1, inst.targets, q2)
    try:
        composite = lift_p_gt_m(q1, q2, x)
    except NotContraction as exc:
        return _finish_infeasible(report, "contractivity", 1.0 - exc.norm**2), None
    except NotPositive as exc:
        return _finish_infeasible(report, "positivity-gap", exc.min_eig, exc.min_eig), None
    report["certificates"].update(
        {
            "dilation_isometry_residual": composite.dilation.isometry_residual,
            "positivity_min_eigs": list(composite.positivity_min_eigs),
        }
    )
    inner = composite.inner
    inner.certificate.verify_residual = composite.verify_residual
    # The composite is not the inner lift, so it is evaluated at the nodes.
    node_values = values_at(composite.composite, q2.nodes)
    code = _finish_solved(report, inst, inner, node_values)
    return code, composite.composite


def _solve_polydisc(inst: ProblemInstance, report: dict):
    outcome = np_solve_polydisc(
        inst.spec,
        inst.nodes,
        inst.targets,
        d_target=inst.d_target,
        psd_base_tol=inst.options.psd_tol,
        feasibility_tol=inst.options.feasibility_tol,
        max_iter=inst.options.max_iter,
    )
    return _finish_outcome(report, inst, outcome)


def run(inst: ProblemInstance, *, csv_stream=None, certify: bool = False) -> tuple[dict, int]:
    """Execute an instance and return (report document, exit code).

    Each instance is solved once; the certification passes reuse the
    evaluator the solve returned.
    """
    report = _base_report(inst)
    try:
        if inst.mode in ("lift-pm", "factorize"):
            code, phi = _solve_lift_pm(inst, report)
            if code == EXIT_SOLVED and inst.mode == "factorize":
                points = _sample_points(inst, inst.options.samples)
                crit = factorization_criterion(
                    phi, inst.spec.m, inst.p, points, tol=1e-7, n=inst.spec.n,
                )
                report["certificates"]["factorization"] = crit.to_json_dict()
        elif inst.spec.geometry == "polydisc":
            code, phi = _solve_polydisc(inst, report)
        else:
            # np-ball, lift-ball, and lift-polydisc or certify of a ball document.
            code, phi = _solve_ball_np(inst, report)

        certifying = certify or inst.mode == "certify"
        on_ball = inst.spec.geometry == "ball"
        if code == EXIT_SOLVED and certifying and on_ball:
            points = _sample_points(inst, inst.options.samples)
            crit = schur_agler_certificate_ball(phi, points, tol=1e-7)
            report["certificates"]["schur_agler"] = crit.to_json_dict()
        # The polydisc certificate and the CSV share one scan of the grid.
        if code == EXIT_SOLVED and ((certifying and not on_ball) or csv_stream is not None):
            scan = grid_scan(phi, GridSpec(*inst.options.grid), inst.spec.geometry, inst.spec.n)
            report["certificates"]["sup_norm"] = {
                "max": scan.max_norm,
                "points": len(scan.norms),
            }
            if csv_stream is not None:
                write_scan_csv(scan, inst.spec.n, csv_stream)
        return report, code
    except Exception as exc:  # noqa: BLE001 - the contract is report-not-crash
        return _finish_error(report, exc), EXIT_ERROR


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", help="path to the instance JSON document")
    # Numbers are converted in ``_apply_flags``, so a malformed one gets a JSON report.
    parser.add_argument("--psd-tol", default=None)
    parser.add_argument("--verify-tol", default=None)
    parser.add_argument("--max-iter", default=None)
    parser.add_argument("--samples", default=None)
    parser.add_argument("--seed", default=None)
    parser.add_argument(
        "--grid", type=str, default=None, help="grid as RADII:ANGLES:RADIUS"
    )
    parser.add_argument("--out", type=str, default=None, help="write the report here")


def _apply_flags(inst: ProblemInstance, args) -> None:
    for key, convert in (("psd_tol", float), ("verify_tol", float), ("max_iter", int),
                         ("samples", int), ("seed", int)):
        text = getattr(args, key)
        if text is not None:
            flag = "--" + key.replace("_", "-")
            try:
                setattr(inst.options, key, convert(text))
            except ValueError:
                raise ValidationError("must be a number", flag) from None
    if args.grid is not None:
        try:
            radii, angles, radius = args.grid.split(":")
            inst.options.grid = (int(radii), int(angles), float(radius))
        except ValueError:
            raise ValidationError("grid flag is RADII:ANGLES:RADIUS", "--grid") from None
    _check_options(inst.options, inst.mode, from_flags=True)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="schurlift",
        description="interpolation and intertwining lifting on weighted Bergman spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "run the instance's mode and print the report"),
        ("certify", "solve, then certify the emitted function by sampling"),
        ("scan", "solve, then scan the sup norm over a grid and emit CSV"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common_flags(p)
        if name == "scan":
            p.add_argument("--csv-out", type=str, default="scan.csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with contextlib.ExitStack() as outputs:
        # Output files are opened before the solve, so a bad path is an error
        # report (also in ``--out`` once that is open), not a traceback.
        out = None
        try:
            with open(args.instance, "r", encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as exc:
                    raise ParseError(f"instance file is not UTF-8: {exc}") from None
            inst = parse_instance(text)
            _apply_flags(inst, args)
            if args.out:
                out = outputs.enter_context(open(args.out, "w", encoding="utf-8"))
            csv_stream = None
            if args.command == "scan":
                csv_stream = outputs.enter_context(open(args.csv_out, "w", encoding="utf-8"))
        except (OSError, SchurliftError) as exc:
            report, code = _finish_error({}, exc), EXIT_ERROR
        else:
            report, code = run(inst, csv_stream=csv_stream, certify=args.command == "certify")
        text = report_to_json(report)
        if out is not None:
            out.write(text + "\n")
    print(text)
    return code


def console_main() -> None:
    sys.exit(main())
