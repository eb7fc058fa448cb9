"""Correctness checks, computed in numpy independently of ``schurlift``.

Every check raises ``CheckFailure`` on a wrong answer.  The transfer
function is re-evaluated from the colligation's block matrix with the
formula ``Phi(z) = A* + C* (I - Z D*)^{-1} Z B*`` instead of through the
program's evaluator, and the polydisc summands are re-checked against an
interpolation operator built here from the Gram matrix.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from instances import Instance, polydisc_gram

NODE_TOL = 1e-7
CONTRACTION_TOL = 1e-9
SUMMAND_TOL = 1e-8
EXIT_CODES = {"solved": 0, "error": 1, "infeasible": 2, "inconclusive": 3}


class CheckFailure(AssertionError):
    """A program output contradicts an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ------------------------------------------------------------------ transfer function


class Realization:
    """Block colligation ``U = [[A, B], [C, D]]`` with its partition.

    ``geometry`` is ``"ball-row"`` (``Z`` is the row of coordinates) or
    ``"polydisc-diag"`` (``Z`` acts diagonally on the state blocks).
    """

    def __init__(self, matrix, geometry, in_defect_dim, in_state_dims, out_defect_dim):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.geometry = geometry
        self.in_state_dims = tuple(in_state_dims)
        i, o = in_defect_dim, out_defect_dim
        self.a, self.b = self.matrix[:o, :i], self.matrix[:o, i:]
        self.c, self.d = self.matrix[o:, :i], self.matrix[o:, i:]

    @classmethod
    def from_colligation(cls, coll) -> "Realization":
        return cls(coll.matrix, coll.geometry, coll.in_defect_dim, coll.in_state_dims,
                   coll.out_defect_dim)

    @classmethod
    def from_json(cls, doc: dict) -> "Realization":
        entries = np.array(doc["entries"], dtype=float)
        return cls(entries[..., 0] + 1j * entries[..., 1], doc["geometry"],
                   doc["in_defect_dim"], doc["in_state_dims"], doc["out_defect_dim"])

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex).reshape(-1)
        if self.d.shape[0] == 0:
            return self.a.conj().T
        if self.geometry == "polydisc-diag":
            weights = np.repeat(z, self.in_state_dims)
            zd = weights[:, None] * self.d.conj().T
            zb = weights[:, None] * self.b.conj().T
        else:
            cuts = np.cumsum((0,) + self.in_state_dims)
            zd = sum(z[i] * self.d[:, cuts[i]:cuts[i + 1]].conj().T for i in range(z.size))
            zb = sum(z[i] * self.b[:, cuts[i]:cuts[i + 1]].conj().T for i in range(z.size))
        resolvent = np.eye(zd.shape[0]) - zd
        return self.a.conj().T + self.c.conj().T @ np.linalg.solve(resolvent, zb)


def node_residual(phi, inst: Instance) -> float:
    """``max_j ||Phi(z_j) - W_j||`` for any evaluator ``phi``."""
    return max(float(np.linalg.norm(np.asarray(phi(z)) - w, 2))
               for z, w in zip(inst.nodes, inst.targets))


def check_interpolates(phi, inst: Instance) -> float:
    resid = node_residual(phi, inst)
    require(resid <= NODE_TOL, f"node residual {resid:.3e} exceeds {NODE_TOL:.0e}")
    return resid


def check_contractive(phi, points) -> float:
    worst = max(float(np.linalg.norm(phi(z), 2)) for z in points)
    require(worst <= 1.0 + CONTRACTION_TOL, f"sampled ||Phi(z)|| = {worst:.12f} exceeds 1")
    return worst


# ------------------------------------------------------------------ verdicts


def check_verdict(solved: bool, expected: bool) -> None:
    require(solved == expected,
            f"verdict {'solved' if solved else 'infeasible'} contradicts the weight-one "
            f"Pick matrix ({'PSD' if expected else 'not PSD'})")


# ------------------------------------------------------------------ polydisc summands


def orthonormal_interpolation_operator(inst: Instance) -> np.ndarray:
    """Polydisc ``X`` in Cholesky-orthonormal coordinates, built from the
    definition ``X* (k_j (x) eta) = k_j (x) W_j* eta``.  Any orthonormal basis
    gives a unitarily equivalent ``X``, so spectra can be compared with the
    program's."""
    gram = polydisc_gram(inst.nodes, inst.gamma)

    def factor(d):
        full = np.kron(gram, np.eye(d))
        return np.linalg.cholesky(full).conj().T  # G = R* R

    r_in, r_out = factor(inst.d_in), factor(inst.d_out)
    blocks = np.zeros((inst.r * inst.d_in, inst.r * inst.d_out), dtype=complex)
    for j, w in enumerate(inst.targets):
        blocks[j * inst.d_in:(j + 1) * inst.d_in, j * inst.d_out:(j + 1) * inst.d_out] = \
            np.asarray(w).conj().T
    x_adj = r_in @ blocks @ np.linalg.inv(r_out)
    return x_adj.conj().T


def check_summands(summands, inst: Instance, x: np.ndarray | None = None) -> None:
    """Summands are PSD and add up to ``I - X X*``.

    With the program's ``x`` the sum is compared entrywise; in every case
    its spectrum is compared with that of ``I - X X*`` for the
    independently built ``X``.
    """
    summands = [np.asarray(g, dtype=complex) for g in summands]
    total = sum(summands)
    scale = 1.0 + float(np.linalg.norm(total, 2))
    for i, g in enumerate(summands):
        require(float(np.linalg.norm(g - g.conj().T, 2)) <= SUMMAND_TOL * scale,
                f"summand {i} is not Hermitian")
        lam = float(np.linalg.eigvalsh((g + g.conj().T) / 2)[0])
        require(lam >= -SUMMAND_TOL * scale, f"summand {i} has eigenvalue {lam:.3e} < 0")
    if x is not None:
        gap = np.eye(x.shape[0]) - x @ x.conj().T
        resid = float(np.linalg.norm(total - gap, 2))
        require(resid <= SUMMAND_TOL * scale, f"summands miss I - XX* by {resid:.3e}")
    own = orthonormal_interpolation_operator(inst)
    want = np.linalg.eigvalsh(np.eye(own.shape[0]) - own @ own.conj().T)
    got = np.linalg.eigvalsh((total + total.conj().T) / 2)
    require(got.shape == want.shape, "summands have the wrong dimension")
    dev = float(np.max(np.abs(got - want)))
    require(dev <= SUMMAND_TOL * scale, f"spectrum of the summand sum is off by {dev:.3e}")


# ------------------------------------------------------------------ CLI outputs


def parse_complex_matrix(doc) -> np.ndarray:
    arr = np.array(doc, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def check_report(code: int, text: str, expected_status: str) -> dict:
    """The report parses, carries the expected status, and the exit code matches it."""
    report = json.loads(text)
    status = report.get("status")
    require(status == expected_status, f"status {status!r}, expected {expected_status!r}")
    require(code == EXIT_CODES[status], f"exit code {code} does not match status {status!r}")
    return report


def check_report_nodes(report: dict, inst: Instance) -> float:
    """Node table values and the serialized colligation both interpolate."""
    rows = report["nodes"]
    require(len(rows) == inst.r, f"node table has {len(rows)} rows for {inst.r} nodes")
    table = {tuple(map(tuple, row["z"])): parse_complex_matrix(row["phi"]) for row in rows}
    for z, w in zip(inst.nodes, inst.targets):
        key = tuple((float(c.real), float(c.imag)) for c in z)
        require(key in table, f"node {z} missing from the report")
        resid = float(np.linalg.norm(table[key] - w, 2))
        require(resid <= NODE_TOL, f"reported Phi misses a target by {resid:.3e}")
    return check_interpolates(Realization.from_json(report["colligation"]), inst)


def check_scan_csv(path: str, n: int, expected_rows: int, phi, probe_every: int) -> float:
    """One row per grid point, every opnorm at most one, and probed rows agree
    with the independently evaluated ``||Phi(z)||``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) == expected_rows + 1, f"CSV has {len(rows) - 1} rows, expected {expected_rows}")
    require(rows[0][-1] == "opnorm" and len(rows[0]) == 2 * n + 1, "CSV header is malformed")
    worst = 0.0
    for k, row in enumerate(rows[1:]):
        require(len(row) == 2 * n + 1, f"CSV row {k} has {len(row)} fields")
        norm = float(row[-1])
        require(norm <= 1.0 + CONTRACTION_TOL, f"CSV row {k} has opnorm {norm:.12f} > 1")
        worst = max(worst, norm)
        if k % probe_every == 0:
            vals = [float(v) for v in row[:-1]]
            z = [complex(vals[2 * i], vals[2 * i + 1]) for i in range(n)]
            own = float(np.linalg.norm(phi(z), 2))
            require(abs(own - norm) <= 1e-9 * (1.0 + own),
                    f"CSV row {k} opnorm {norm:.12f} differs from ||Phi(z)|| = {own:.12f}")
    return worst
