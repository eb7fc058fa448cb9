"""Span recorder that wraps the public functions of ``schurlift`` from outside.

``Tracer.install`` replaces each listed function with a timing wrapper
and rebinds every module-level name that refers to it, because most of
them are imported by name (``from .hypercontraction import is_pure``).
A wrapped call records a span (id, parent id, operation id, name, start,
end) in memory; the hot leaf functions in ``AGGREGATE_ONLY`` are
counted and timed without storing a span each.  Self time is a call's
duration minus the time its wrapped children covered.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (module, attribute) pairs that are wrapped.  Classes are given as
#: "Class.method"; ``TransferFunction.__call__`` is an alias of ``eval``.
WRAPPED = (
    ("kernels", "kernel_eval"),
    ("model_space", "build_subspace"),
    ("model_space", "model_tuple"),
    ("model_space", "multiplier_adjoint_action"),
    ("hypercontraction", "is_pure"),
    ("hypercontraction", "defect"),
    ("hypercontraction", "cp_map"),
    ("lifting_ball", "np_solve"),
    ("lifting_ball", "lift_p_gt_m"),
    ("lifting_ball", "target_pick_matrix"),
    ("lifting_ball", "check_positivity"),
    ("lifting_ball", "dilate_p_to_m"),
    ("lifting_ball", "lift_ball"),
    ("lifting_ball", "verify_lift"),
    ("colligation", "build_ball_colligation"),
    ("colligation", "build_polydisc_colligation"),
    ("transfer", "series_partial_lift"),
    ("transfer", "TransferFunction.eval"),
    ("transfer", "write_scan_csv"),
    ("transfer", "schur_agler_certificate_ball"),
    ("transfer", "sup_norm_scan"),
    ("lifting_polydisc", "np_solve_polydisc"),
    ("lifting_polydisc", "lift_polydisc"),
    ("lifting_polydisc", "agler_feasibility"),
    ("lifting_polydisc", "transformed_positivity"),
    ("linalg", "clip_psd"),
    ("linalg", "opnorm"),
    ("cli", "main"),
    ("cli", "parse_instance"),
    ("cli", "report_to_json"),
)

AGGREGATE_ONLY = frozenset({
    "kernels.kernel_eval",
    "hypercontraction.cp_map",
    "transfer.eval",
    "lifting_polydisc.transformed_positivity",
    "linalg.clip_psd",
    "linalg.opnorm",
})

#: Solver entry points counted by ``cli.solves_per_command``.
SOLVERS = ("lifting_ball.np_solve", "lifting_ball.lift_p_gt_m",
           "lifting_polydisc.np_solve_polydisc")

TIMED = (
    "model_space.build_subspace", "model_space.model_tuple",
    "model_space.multiplier_adjoint_action", "hypercontraction.is_pure",
    "hypercontraction.defect", "lifting_ball.target_pick_matrix",
    "lifting_ball.check_positivity", "lifting_ball.dilate_p_to_m", "lifting_ball.lift_ball",
    "colligation.build_ball_colligation", "lifting_ball.verify_lift",
    "transfer.series_partial_lift", "colligation.build_polydisc_colligation",
    "lifting_polydisc.lift_polydisc", "lifting_polydisc.agler_feasibility", "transfer.eval",
    "transfer.write_scan_csv", "transfer.schur_agler_certificate_ball",
    "transfer.sup_norm_scan", "cli.parse_instance", "cli.report_to_json",
)
COUNTED = (
    "kernels.kernel_eval", "hypercontraction.cp_map", "lifting_polydisc.transformed_positivity",
    "linalg.clip_psd", "transfer.eval", "linalg.opnorm",
)

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {f"{name}_s": "s" for name in TIMED}
LAYER_METRICS.update({f"{name}_calls": "count" for name in COUNTED})
LAYER_METRICS["lifting_polydisc.dykstra_iterations"] = "count"
LAYER_METRICS["cli.solves_per_command"] = "count"


class Tracer:
    """Records spans of wrapped calls made while an operation is active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.dykstra_iterations = 0
        self.cli_commands = 0
        self.cli_solves = 0
        self.op_id: int | None = None
        self._stack: list[list] = []  # open calls: [span id, time covered by children]
        self._next_id = 0
        self._cli_depth = 0
        self._solver_depth = 0
        self._restore: list[tuple] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, func):
        tracer = self
        keep_span = name not in AGGREGATE_ONLY
        is_solver = name in SOLVERS
        is_cli = name == "cli.main"
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return func(*args, **kwargs)
            if is_solver:
                if tracer._cli_depth and not tracer._solver_depth:
                    tracer.cli_solves += 1
                tracer._solver_depth += 1
            if is_cli:
                tracer.cli_commands += 1
                tracer._cli_depth += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + duration - frame[1]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if keep_span:
                    tracer.spans.append((frame[0], parent, tracer.op_id, name, start, end))
                if is_solver:
                    tracer._solver_depth -= 1
                if is_cli:
                    tracer._cli_depth -= 1
            if name == "lifting_polydisc.agler_feasibility" and hasattr(result, "summands"):
                tracer.dykstra_iterations += result.iterations
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every function in ``WRAPPED`` and rebind all references to it."""
        import schurlift.cli  # noqa: F401  (the package imports every other module)

        modules = [m for key, m in sys.modules.items()
                   if key == "schurlift" or key.startswith("schurlift.")]
        for mod_name, attr in WRAPPED:
            module = sys.modules[f"schurlift.{mod_name}"]
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[meth]
                owners = [owner]
            else:
                original = getattr(module, attr)
                owners = modules
            wrapper = self._wrap(f"{mod_name}.{meth}", original)
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, value))
                        setattr(target, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -------------------------------------------------------------- results

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer self times and counts, per round of the workload."""
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}_s"] = self.self_time.get(name, 0.0) / rounds
        for name in COUNTED:
            out[f"{name}_calls"] = self.calls.get(name, 0) / rounds
        out["lifting_polydisc.dykstra_iterations"] = self.dykstra_iterations / rounds
        out["cli.solves_per_command"] = (
            self.cli_solves / self.cli_commands if self.cli_commands else 0.0
        )
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
