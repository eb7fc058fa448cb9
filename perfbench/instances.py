"""Seeded instance generators for the benchmark workloads.

Everything here is plain numpy and independent of ``schurlift``: the
benchmark draws nodes and targets, decides ground truth from its own
Pick matrices, and hands the program only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Half-width of the excluded band around the weight-one Pick boundary, in
#: terms of ``pick_gap``.  Instances inside it are redrawn, so a verdict
#: never hinges on round-off.
PICK_MARGIN = 1e-6


@dataclass
class Instance:
    """One interpolation problem: nodes in C^n and ``d_out x d_in`` targets."""

    geometry: str
    n: int
    nodes: list[tuple[complex, ...]]
    targets: list[np.ndarray]
    m: int | None = None
    gamma: tuple[int, ...] | None = None
    p: int | None = None

    def __post_init__(self):
        require_nonzero(self.targets)

    @property
    def r(self) -> int:
        return len(self.nodes)

    @property
    def d_in(self) -> int:
        return self.targets[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.targets[0].shape[0]


# ------------------------------------------------------------------ nodes


def ball_nodes(rng, r: int, n: int, radius: float = 0.8, min_sep: float = 0.3):
    """Distinct points of the ball of the given radius, pairwise separated.

    The defaults keep the weight-one Gram condition number near 1e5 at
    r=20.  Denser nodes (radius 0.6, separation 0.15: condition 1e7 and
    more) make some r=20 solves fail on round-off, which the ball
    workload keeps only as its fixed fault instance.
    """
    nodes: list[np.ndarray] = []
    while len(nodes) < r:
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        z = radius * rng.uniform(0.2, 1.0) * direction
        if all(np.linalg.norm(z - w) > min_sep for w in nodes):
            nodes.append(z)
    return [tuple(z) for z in nodes]


def polydisc_design(design_seed: int, r: int, n: int = 2):
    """Fixed node design on the polydisc: moduli in [0.2, 0.6], separation 0.25.

    Dykstra's iteration count on random polydisc nodes ranges over an
    order of magnitude and some draws end ``Inconclusive``, so the
    polydisc families use fixed designs and let the seed act through a
    torus rotation (see ``rotate``).
    """
    rng = np.random.default_rng(design_seed)
    nodes: list[np.ndarray] = []
    while len(nodes) < r:
        z = np.array(
            [rng.uniform(0.2, 0.6) * np.exp(2j * np.pi * rng.uniform()) for _ in range(n)]
        )
        if all(np.linalg.norm(z - w) > 0.25 for w in nodes):
            nodes.append(z)
    return [tuple(z) for z in nodes]


def rotate(nodes, phases):
    """Apply the torus rotation ``z_i -> phases_i z_i`` to every node."""
    return [tuple(np.asarray(z) * phases) for z in nodes]


def random_phases(rng, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(size=n))


def sample_points(rng, count: int, n: int, geometry: str, radius: float = 0.95):
    """Interior points for the contractivity check."""
    points = []
    for _ in range(count):
        if geometry == "ball":
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d /= np.linalg.norm(d)
            points.append(tuple(radius * rng.uniform() ** (1.0 / (2 * n)) * d))
        else:
            points.append(
                tuple(radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                      for _ in range(n))
            )
    return points


# ------------------------------------------------------------------ kernels and Pick matrices


def ball_gram(nodes, m: int) -> np.ndarray:
    """Scalar Gram matrix ``(1 - <z_a, z_b>)^{-m}``."""
    z = np.array(nodes, dtype=complex)
    return (1.0 - z @ z.conj().T) ** (-m)


def polydisc_gram(nodes, gamma) -> np.ndarray:
    """Scalar Gram matrix ``prod_i (1 - z_ai conj(z_bi))^{-gamma_i}``."""
    z = np.array(nodes, dtype=complex)
    out = np.ones((len(nodes), len(nodes)), dtype=complex)
    for i, g in enumerate(gamma):
        out *= (1.0 - np.outer(z[:, i], z[:, i].conj())) ** (-g)
    return out


def pick_matrix(gram: np.ndarray, targets) -> np.ndarray:
    """Block matrix ``[(I - W_a W_b*) K(z_a, z_b)]``."""
    w = np.stack([np.asarray(t, dtype=complex) for t in targets])  # (r, d_out, d_in)
    r, d, _ = w.shape
    ww = np.einsum("aij,bkj->aibk", w, w.conj())  # (W_a W_b*)_{ik}
    eye = np.eye(d)[None, :, None, :]
    blocks = (eye - ww) * gram[:, None, :, None]
    mat = blocks.reshape(r * d, r * d)
    return (mat + mat.conj().T) / 2.0


def pick_gap(gram: np.ndarray, targets) -> float:
    """Bottom eigenvalue of the Pick matrix congruence-normalized by the Gram
    matrix, ``lambda_min(R^{-*} P R^{-1})`` with ``G = R* R``.

    It equals ``1 - ||X||^2`` for the interpolation operator ``X`` in
    orthonormal coordinates, so its sign is that of the Pick matrix's
    bottom eigenvalue while its size does not shrink with the Gram
    matrix's conditioning.
    """
    d = np.asarray(targets[0]).shape[0]
    chol = np.linalg.cholesky(np.kron(gram, np.eye(d)))  # G = L L*
    half = np.linalg.solve(chol, pick_matrix(gram, targets))
    normalized = np.linalg.solve(chol, half.conj().T)
    return float(np.linalg.eigvalsh((normalized + normalized.conj().T) / 2.0)[0])


# ------------------------------------------------------------------ ball targets


def column_contraction(rng, n: int, d: int) -> list[np.ndarray]:
    """Matrices ``A_1..A_n`` whose stacked column has norm one."""
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(n)]
    norm = np.linalg.norm(np.vstack(mats), 2)
    return [a / norm for a in mats]


def drury_arveson_targets(rng, nodes, d: int, scale: float = 0.8):
    """``W_j = scale * sum_i z_ji A_i``: values of a Drury-Arveson contraction.

    With ``[A_1; ...; A_n]`` a contraction the multiplier factors as the
    row of coordinate shifts times that column, so it is contractive on the
    Drury-Arveson space and hence on every weighted Bergman space of the
    ball: the targets are solvable for every weight.
    """
    mats = column_contraction(rng, len(nodes[0]), d)
    return [scale * sum(zi * a for zi, a in zip(z, mats)) for z in nodes]


def infeasible_targets(rng, nodes, d: int, overshoot: float = 1.25):
    """Random targets scaled ``overshoot`` times past the weight-one Pick boundary.

    Scaling the targets by ``t`` turns the normalized gap ``1 - ||X||^2``
    into ``1 - t^2 ||X||^2``, so the boundary is at ``t = 1 / ||X||``.
    """
    raw = []
    for _ in nodes:
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(mat / np.linalg.norm(mat, 2))
    x_norm = np.sqrt(1.0 - pick_gap(ball_gram(nodes, 1), raw))
    return [overshoot / x_norm * w for w in raw]


def weight_one_verdict(inst: Instance) -> bool | None:
    """Solvability from the weight-one Pick matrix; ``None`` inside the margin band."""
    gap = pick_gap(ball_gram(inst.nodes, 1), inst.targets)
    if abs(gap) <= PICK_MARGIN:
        return None
    return gap > 0.0


def ball_instance(rng, r: int, n: int, m: int, d: int, solvable: bool) -> Instance:
    """A ball instance outside the margin band, redrawn until it qualifies."""
    while True:
        nodes = ball_nodes(rng, r, n)
        if solvable:
            targets = drury_arveson_targets(rng, nodes, d)
        else:
            targets = infeasible_targets(rng, nodes, d)
        inst = Instance("ball", n, nodes, targets, m=m)
        if weight_one_verdict(inst) is solvable:
            return inst


# ------------------------------------------------------------------ polydisc targets


def z1z2_targets(nodes, scale: float = 0.3):
    """``W_j = scale * z_j1 z_j2``: a polynomial of multiplier norm ``scale``."""
    return [np.array([[scale * z[0] * z[1]]]) for z in nodes]


def constant_targets(nodes, value: float = 0.5):
    return [np.array([[value]], dtype=complex) for _ in nodes]


def require_nonzero(targets) -> None:
    """Guard against degenerate all-zero target sets."""
    if not any(np.any(np.abs(np.asarray(w)) > 0.0) for w in targets):
        raise ValueError("generated target set is identically zero")
