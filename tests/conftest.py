"""Shared instance generators for the test suite."""

from __future__ import annotations

import numpy as np

from schurlift import KernelSpec
from schurlift.kernels import kernel_matrix
from schurlift.lifting_ball import target_pick_matrix
from schurlift.linalg import min_eig
from schurlift.model_space import TupleOperator


def random_ball_nodes(rng, count, n, radius=0.6, min_sep=0.15):
    """Distinct points in the ball of the given radius, pairwise separated."""
    nodes = []
    while len(nodes) < count:
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        z = tuple(radius * rng.uniform(0.2, 1.0) * direction)
        if all(np.linalg.norm(np.array(z) - np.array(w)) > min_sep for w in nodes):
            nodes.append(z)
    return nodes


def random_polydisc_nodes(rng, count, n, radius=0.5, min_sep=0.15):
    nodes = []
    while len(nodes) < count:
        z = tuple(
            radius * np.sqrt(rng.uniform(0.05, 1.0)) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(n)
        )
        if all(np.linalg.norm(np.array(z) - np.array(w)) > min_sep for w in nodes):
            nodes.append(z)
    return nodes


def random_contraction(rng, d_out, d_in, norm_cap=0.8):
    mat = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    return norm_cap * mat / max(np.linalg.norm(mat, 2), 1e-12)


def scaled_targets(rng, spec, nodes, d_out=1, margin=0.01, weight_one=True):
    """Random nonzero targets rescaled so the weight-one block matrix clears ``margin``.

    The scaling is found by bisection on a common factor.  The tested gap
    is the bottom eigenvalue of ``L^{-1} P L^{-*}``, where ``P`` is the
    block matrix and ``G = L L*`` the Gram matrix of the same kernel: it is
    1 at zero targets whatever the Gram conditioning, so the bisection
    never collapses to zero.  The returned targets always admit the lift
    (the positivity gap is controlled by the weight-one matrix).
    """
    raw = [random_contraction(rng, d_out, spec.d_coeff, norm_cap=0.95) for _ in nodes]
    test_spec = (
        KernelSpec.ball(1, spec.n, spec.d_coeff)
        if (weight_one and spec.geometry == "ball")
        else spec
    )
    chol = np.linalg.cholesky(np.kron(kernel_matrix(test_spec, nodes, nodes), np.eye(d_out)))

    def check(tau):
        pick = target_pick_matrix(test_spec, nodes, [tau * w for w in raw])
        half = np.linalg.solve(chol, pick)
        return min_eig(np.linalg.solve(chol, half.conj().T))

    if check(1.0) >= margin:
        return raw
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if check(mid) >= margin:
            lo = mid
        else:
            hi = mid
    tau = lo * 0.999
    assert tau > 0.0, "target scaling collapsed to zero"
    return [tau * w for w in raw]


def random_normal_tuple(rng, dim, n, radius=0.7, geometry="ball"):
    """Commuting normal tuple with joint spectrum strictly inside the domain."""
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(ginibre)
    if geometry == "ball":
        points = []
        for _ in range(dim):
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d /= np.linalg.norm(d)
            points.append(radius * rng.uniform(0.1, 1.0) * d)
    else:
        points = [
            [
                radius * np.sqrt(rng.uniform(0.05, 1.0)) * np.exp(2j * np.pi * rng.uniform())
                for _ in range(n)
            ]
            for _ in range(dim)
        ]
    mats = []
    for i in range(n):
        diag = np.diag([p[i] for p in points])
        mats.append(q @ diag @ q.conj().T)
    return TupleOperator(tuple(mats))


def random_interior_points(rng, count, n, radius=0.9, geometry="ball"):
    points = []
    for _ in range(count):
        if geometry == "ball":
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d /= np.linalg.norm(d)
            points.append(tuple(radius * rng.uniform() ** (1.0 / (2 * n)) * d))
        else:
            points.append(
                tuple(
                    radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                    for _ in range(n)
                )
            )
    return points


def record_linalg(monkeypatch, names):
    """Record ``(name, argument)`` of every call of the named ``np.linalg``
    functions; ``calls_on`` counts those that took one given matrix."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.array(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def calls_on(calls, name, mat) -> int:
    """How many recorded ``name`` calls took ``mat`` (alone or as a one-matrix stack)."""
    return sum(
        n == name and a.size == mat.size and np.array_equal(a.reshape(mat.shape), mat)
        for n, a in calls
    )
