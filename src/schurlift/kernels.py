"""Reproducing kernels on the unit ball and unit polydisc.

Two families are supported: ``(1 - <z,w>)^{-m}`` on the ball (integer
weight ``m >= 1``) and ``prod_i (1 - z_i conj(w_i))^{-gamma_i}`` on the
polydisc (integer weight vector ``gamma``).  Alongside the closed forms
this module exposes the power-series coefficient sequences.  The
inverse kernels ``(1 - <z,w>)^m`` and ``prod_i (1 - z_i conj(w_i))^{gamma_i}``
enter only as the hereditary operators ``hypercontraction.hereditary``
applies, evaluated as repeated one-step maps in the tuple.

Coefficients are always accumulated as floating-point products of small
ratios, never as raw factorials, so orders up to ~60 stay exact to
double precision without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainViolation, IllConditioned

MultiIndex = tuple[int, ...]

#: Strict-interior margin: a point is accepted only if its boundary gap
#: exceeds this.  The transfer-function resolvent degenerates at the
#: boundary, so exact-boundary points are rejected.
DOMAIN_MARGIN = 1e-12

BALL = "ball"
POLYDISC = "polydisc"


@dataclass(frozen=True)
class KernelSpec:
    """Selects the geometry, its weight and the coefficient-space dimension.

    ``geometry`` is ``"ball"`` (weight ``m``) or ``"polydisc"`` (weight
    vector ``gamma`` of length ``n``).  ``d_coeff`` is the dimension of
    the coefficient space the kernel is tensored with.
    """

    geometry: str
    n: int
    m: int | None = None
    gamma: tuple[int, ...] | None = None
    d_coeff: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.n}")
        if self.d_coeff < 1:
            raise ValueError(f"coefficient dimension must be >= 1, got {self.d_coeff}")
        if self.geometry == BALL:
            if self.m is None or self.m < 1:
                raise ValueError(f"ball weight must be a positive integer, got {self.m}")
        elif self.geometry == POLYDISC:
            if self.gamma is None or len(self.gamma) != self.n:
                raise ValueError("polydisc weight vector must have one entry per variable")
            if any(g < 1 for g in self.gamma):
                raise ValueError(f"polydisc weights must be positive integers, got {self.gamma}")
        else:
            raise ValueError(f"unknown geometry {self.geometry!r}")

    @classmethod
    def ball(cls, m: int, n: int, d_coeff: int = 1) -> "KernelSpec":
        return cls(geometry=BALL, n=n, m=int(m), d_coeff=d_coeff)

    @classmethod
    def polydisc(cls, gamma, d_coeff: int = 1) -> "KernelSpec":
        gamma = tuple(int(g) for g in gamma)
        return cls(geometry=POLYDISC, n=len(gamma), gamma=gamma, d_coeff=d_coeff)

    def with_coeff_dim(self, d_coeff: int) -> "KernelSpec":
        return KernelSpec(self.geometry, self.n, self.m, self.gamma, d_coeff)

    def boundary_gap(self, z) -> float:
        """Distance-like gap to the boundary: positive strictly inside."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        if z.size != self.n:
            raise DimensionMismatch(f"point has {z.size} coordinates, spec expects {self.n}")
        return float(self._gaps(z))

    def _gaps(self, points: np.ndarray) -> np.ndarray:
        """Boundary gap of each point along the last axis."""
        squares = np.abs(points) ** 2
        if self.geometry == BALL:
            return 1.0 - np.sum(squares, axis=-1)
        return 1.0 - np.max(squares, axis=-1)

    def require_interior(self, z) -> None:
        gap = self.boundary_gap(z)
        if gap <= DOMAIN_MARGIN:
            raise DomainViolation(
                f"point {np.asarray(z)} is not strictly inside the {self.geometry} "
                f"(boundary gap {gap:.3e})"
            )

    def interior_points(self, points) -> np.ndarray:
        """Stack ``points`` into an ``(N, n)`` array, each checked to be strictly
        interior exactly as ``require_interior`` checks one point: the one
        point check of every evaluator, from kernels to transfer functions.

        An ``(N, n)`` array is checked and used as it is, without a list of
        rows; any other sequence is stacked row by row.  The first row with
        the wrong coordinate count raises ``DimensionMismatch``; otherwise
        the first row not strictly inside raises ``DomainViolation``.
        """
        return self._interior(points)[0]

    def _interior(self, points) -> tuple[np.ndarray, np.ndarray]:
        """``interior_points`` and the boundary gap of each of its rows."""
        if isinstance(points, np.ndarray) and points.ndim == 2 and points.shape[1] == self.n:
            pts = points.astype(complex, copy=False)
        else:
            rows = [np.asarray(z, dtype=complex).reshape(-1) for z in points]
            for z in rows:
                if z.size != self.n:
                    raise DimensionMismatch(f"point has {z.size} coordinates, spec expects {self.n}")
            pts = np.array(rows, dtype=complex).reshape(len(rows), self.n)
        gaps = self._gaps(pts)
        exterior = np.flatnonzero(gaps <= DOMAIN_MARGIN)
        if exterior.size:
            self.require_interior(pts[exterior[0]])
        return pts, gaps

    def first_exterior(self, pts: np.ndarray) -> int:
        """Index of the first row of an ``(N, n)`` array that ``require_interior``
        rejects, or ``N`` when every row is strictly interior."""
        bad = np.flatnonzero(self._gaps(pts) <= DOMAIN_MARGIN)
        return int(bad[0]) if bad.size else len(pts)


def _check_index(k, n: int | None = None) -> MultiIndex:
    k = tuple(int(e) for e in k)
    if any(e < 0 for e in k):
        raise ValueError(f"multi-index entries must be nonnegative, got {k}")
    if n is not None and len(k) != n:
        raise DimensionMismatch(f"multi-index {k} has length {len(k)}, expected {n}")
    return k


def ball_coeff(m: int, k) -> float:
    """Series coefficient of the ball kernel at multi-index ``k``.

    Equals ``(m + |k| - 1)! / (k! (m-1)!)``, accumulated as a product of
    ratios ``(m + t - 1) / j`` so no factorial is ever materialized.
    """
    if m < 1:
        raise ValueError(f"ball weight must be >= 1, got {m}")
    k = _check_index(k)
    value = 1.0
    total = 0
    for entry in k:
        for j in range(1, entry + 1):
            total += 1
            value *= (m + total - 1) / j
    return value


def polydisc_coeff(gamma, k) -> float:
    """Series coefficient of the polydisc kernel: a product of one-variable
    binomials ``C(gamma_i + k_i - 1, k_i)``."""
    gamma = tuple(int(g) for g in gamma)
    if any(g < 1 for g in gamma):
        raise ValueError(f"polydisc weights must be >= 1, got {gamma}")
    k = _check_index(k, len(gamma))
    value = 1.0
    for g, entry in zip(gamma, k):
        for j in range(1, entry + 1):
            value *= (g + j - 1) / j
    return value


def series_coeff(spec: KernelSpec, k) -> float:
    """Series coefficient of the spec's kernel at multi-index ``k``."""
    if spec.geometry == BALL:
        return ball_coeff(spec.m, _check_index(k, spec.n))
    return polydisc_coeff(spec.gamma, k)


def kernel_eval(spec: KernelSpec, z, w) -> complex:
    """Scalar kernel value ``K(z, w)``; both points must be strictly interior."""
    spec.require_interior(z)
    spec.require_interior(w)
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if spec.geometry == BALL:
        pairing = complex(np.sum(z * w.conj()))
        return (1.0 - pairing) ** (-spec.m)
    value = 1.0 + 0.0j
    for zi, wi, g in zip(z, w, spec.gamma):
        value *= (1.0 - zi * wi.conjugate()) ** (-g)
    return value


def kernel_matrix(spec: KernelSpec, p, q) -> np.ndarray:
    """Scalar kernel values ``[K(p_a, q_b)]`` for two lists of points.

    ``p`` and ``q`` are sequences of points or ``(N, n)`` arrays, taken by
    ``KernelSpec.interior_points``: every point is checked to be strictly
    interior, with the margin and the error of ``require_interior``, ``p``
    before ``q``, and once when ``p is q``.  The closed forms of
    ``kernel_eval`` are then evaluated for all pairs at once by
    broadcasting.  A value that overflows (a large weight) raises
    ``IllConditioned``.

    On the ball the products ``p_ai conj(q_bi)`` are formed as one
    contiguous ``(N, M)`` plane per coordinate ``i`` and added in index
    order.
    """
    same = p is q
    p = spec.interior_points(p)
    q = p if same else spec.interior_points(q)
    return _kernel_values(spec, p, q)


def _kernel_values(spec: KernelSpec, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kernel_matrix`` of two ``(N, n)`` arrays already checked to be interior."""
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.geometry == BALL:
            planes = p.T[:, :, None] * np.ascontiguousarray(q.T).conj()[:, None, :]
            values = (1.0 - sum(planes[1:], planes[0])) ** (-spec.m)
        else:
            products = p[:, None, :] * q[None, :, :].conj()
            values = np.prod((1.0 - products) ** (-np.asarray(spec.gamma)), axis=-1)
    if not np.isfinite(values).all():
        raise IllConditioned(f"kernel values overflow at weight {spec.m or spec.gamma}")
    return values


def indices_of_degree(n: int, total: int) -> list[MultiIndex]:
    """All multi-indices of length ``n`` with ``|k| = total``, lexicographic."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in indices_of_degree(n - 1, total - first):
            out.append((first,) + rest)
    return out


def indices_up_to(n: int, degree: int) -> list[MultiIndex]:
    """All multi-indices with ``|k| <= degree`` in graded lexicographic order."""
    out: list[MultiIndex] = []
    for total in range(degree + 1):
        out.extend(indices_of_degree(n, total))
    return out
