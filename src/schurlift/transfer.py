"""Transfer-function evaluation and Schur-class certificates.

The transfer function of the adjoint of a colligation is evaluated by
stacked resolvent solves over chunks of points (never an explicit
inverse), and on polydisc product grids one state block smaller, with
each line of a bidisc grid in pole-residue form where its eigenvectors
are well conditioned (values at round-off from the solves); the lifting
series is summed by an operator recursion that is linear in the
truncation order, and its limit is read off the values at the joint
eigenvalues (one Stein solve without a joint eigenbasis); Schur-class
membership of emitted functions is certified by sampling the Pick-type
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolation, NearSingularResolvent
from .colligation import BALL_ROW, Colligation
from .hypercontraction import cp_map, joint_eigenbasis
from .kernels import KernelSpec, kernel_matrix
from .linalg import as_matrix, herm, opnorm, opnorms, pick_blocks, psd_fails
from .model_space import TupleOperator

#: Points where the resolvent condition number exceeds this are rejected.
COND_LIMIT = 1e12

#: A point whose proven bound on the resolvent condition number lies below
#: this skips the SVD.  The factor keeps SVD round-off, ``O(q eps)``
#: relative, far from moving any ``COND_LIMIT`` decision.
_GATE_LIMIT = COND_LIMIT * 1e-4

#: Points per stacked resolvent ``cond`` and ``solve`` in ``eval_many``.  It
#: bounds the stacked working set, and with it the peak memory of long scans.
EVAL_CHUNK = 256

#: Largest ``||V||_F ||V^{-1}||_F``, a bound on ``cond(V)``, for which a
#: bidisc grid line is evaluated from the eigenvectors ``V`` of its
#: reduced state matrix: it scales the round-off of that path.
_EIGVEC_LIMIT = 1e3


@dataclass
class TransferFunction:
    """Evaluator ``z -> A* + C* (I - Z D*)^{-1} Z B*``, one point or a batch.

    ``d_in`` is the dimension the function acts on (the colligation's
    output defect block) and ``d_out`` the dimension it maps into (the
    input defect block); for a contractive colligation every interior
    value is a contraction.
    """

    colligation: Colligation
    d_in: int = field(init=False)
    d_out: int = field(init=False)
    domain: KernelSpec = field(init=False)
    _d_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.d_in = self.colligation.out_defect_dim
        self.d_out = self.colligation.in_defect_dim
        # ``||D||`` for the resolvent gate; NaN (gate off) when D has a
        # non-finite entry, whose SVD would not converge.
        block_d = self.colligation.block_d
        self._d_norm = opnorm(block_d) if np.isfinite(block_d).all() else np.nan
        # Only the geometry of the weight-one spec matters: it carries the
        # package's single interior check.
        if self.geometry == BALL_ROW:
            self.domain = KernelSpec.ball(1, self.n)
        else:
            self.domain = KernelSpec.polydisc((1,) * self.n)

    @property
    def geometry(self) -> str:
        return self.colligation.geometry

    @property
    def n(self) -> int:
        return len(self.colligation.in_state_dims)

    def eval(self, z) -> np.ndarray:
        return self.eval_many([z])[0]

    __call__ = eval

    def eval_many(self, points) -> np.ndarray:
        """Values at each point, stacked as ``(k, d_out, d_in)``.

        ``points`` is a sequence of points or an ``(N, n)`` array, checked
        in full by ``KernelSpec.interior_points`` before any value is
        computed.  The points are then taken ``EVAL_CHUNK`` at a time: one
        stacked ``solve`` gives the values of a chunk, and one stacked
        ``cond`` makes the ``COND_LIMIT`` decision for the points the
        resolvent gate cannot clear.
        """
        return self._eval_interior(*self.domain._interior(points))

    def _eval_interior(self, pts: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """``eval_many`` at an ``(N, n)`` array already checked to be interior,
        given the boundary gap of each point."""
        values = np.empty((len(pts), self.d_out, self.d_in), dtype=complex)
        for start in range(0, len(pts), EVAL_CHUNK):
            chunk = slice(start, start + EVAL_CHUNK)
            values[chunk] = self._eval_chunk(pts[chunk], gaps[chunk])
        return values

    def _eval_chunk(self, pts: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """Values at checked points; ``NearSingularResolvent`` at the first cond >= COND_LIMIT."""
        coll = self.colligation
        a_adj = coll.block_a.conj().T
        if sum(coll.in_state_dims) == 0:
            return np.broadcast_to(a_adj, (len(pts),) + a_adj.shape)
        # Every factor is 3-D so that the complex products take the same
        # numpy kernel for one point as for many; the ball terms are
        # summed in index order, as the single-point formula sums them.
        if self.geometry == BALL_ROW:
            zd = sum(pts[:, i, None, None] * d.conj().T[None]
                     for i, d in enumerate(coll.d_blocks()))
            zb = sum(pts[:, i, None, None] * b.conj().T[None]
                     for i, b in enumerate(coll.b_blocks()))
        else:
            weights = np.repeat(pts, coll.in_state_dims, axis=1)[:, :, None]
            zd = weights * coll.block_d.conj().T[None]
            zb = weights * coll.block_b.conj().T[None]
        # The resolvents ``I - Z D*`` are built in the buffer of ``zd``.
        resolvents = np.subtract(np.eye(zd.shape[-1], dtype=complex), zd, out=zd)
        unsure = np.flatnonzero(~self._gate_clears(gaps))
        singular = unsure[np.linalg.cond(resolvents[unsure]) >= COND_LIMIT]
        if singular.size:
            raise NearSingularResolvent(f"resolvent nearly singular at {pts[singular[0]]}")
        return a_adj + coll.block_c.conj().T @ np.linalg.solve(resolvents, zb)

    def _grid_values(self, axis: np.ndarray, points: np.ndarray) -> np.ndarray | None:
        """Values at ``points``, the product grid of ``axis`` in
        ``grid_points`` order, or None where this path does not apply.

        It applies to a polydisc function of n >= 2 variables with state,
        when the resolvent gate clears every axis value.  A grid point's
        gap is the smallest gap of its coordinates, so the gate then clears
        every point: each resolvent ``I - Z M`` (``M = D*``) and each
        ``I - z1 M11`` is well conditioned, and so is invertible, and the
        Schur complement below is invertible too.  With ``M``, ``B*`` and
        ``C*`` split after state block 1, one stacked ``k1 x k1`` solve per
        axis value gives ``E = (I - z1 M11)^{-1} [M12 | B1*]``.  What is
        left is the (n-1)-variable realization with state blocks 2..n

            F = M22 + z1 M21 E_M,     B' = B2* + z1 M21 E_B,
            A' = A* + z1 C1* E_B,     C' = C2* + z1 C1* E_M,

        evaluated by stacked solves of ``I - Z' F``, ``EVAL_CHUNK`` points
        at a time.  For n = 2 each axis value leaves a line in ``z2``; when
        ``_line_residues`` diagonalizes the ``F`` of every line, the values
        are taken in pole-residue form, each block's stacked solve becoming
        a division in the eigenbasis of ``F``.  ``I - z2 F`` is a Schur
        complement of the resolvent, so the cleared gate bounds
        ``1 / |1 - z2 pole|`` by ``1 / (1 - t)``, and the eigenvector gate
        bounds ``cond(V)``: the values agree with ``eval_many`` at round-off
        on either path, not bit for bit.  A grid with a line that fails the
        eigenvector gate, or without a second state block, keeps the solves.
        """
        coll = self.colligation
        dims = coll.in_state_dims
        if self.geometry == BALL_ROW or self.n < 2 or not sum(dims):
            return None
        column = axis[:, None]
        exterior = self.domain.first_exterior(column) < len(column)
        if exterior or not self._gate_clears(self.domain._gaps(column)).all():
            return None
        k1 = dims[0]
        m = coll.block_d.conj().T
        b = coll.block_b.conj().T
        c = coll.block_c.conj().T
        z1 = axis[:, None, None]
        head = np.concatenate([m[:k1, k1:], b[:k1]], axis=1)
        pivots = np.eye(k1, dtype=complex) - z1 * m[None, :k1, :k1]
        e = z1 * np.linalg.solve(pivots, np.broadcast_to(head, (len(axis),) + head.shape))
        e_m, e_b = np.split(e, [len(m) - k1], axis=-1)
        f = m[k1:, k1:] + m[k1:, :k1] @ e_m
        b_rest = b[k1:] + m[k1:, :k1] @ e_b
        a_rest = coll.block_a.conj().T + c[:, :k1] @ e_b
        c_rest = c[:, k1:] + c[:, :k1] @ e_m

        per_axis = len(points) // len(axis)
        lines = _line_residues(f, b_rest, c_rest) if self.n == 2 else None
        if lines is not None:
            # In the eigenbasis ``I - z2 F`` is diagonal: its solve is a division.
            poles, c_rest, b_rest = lines
        weights = np.repeat(points[:per_axis, 1:], dims[1:], axis=1)[:, :, None]
        eye = np.eye(f.shape[-1], dtype=complex)
        values = np.empty((len(points), self.d_out, self.d_in), dtype=complex)
        for start in range(0, len(points), EVAL_CHUNK):
            index = np.arange(start, min(start + EVAL_CHUNK, len(points)))
            block, rest = np.divmod(index, per_axis)
            zs = weights[rest]
            if lines is None:
                states = np.linalg.solve(eye - zs * f[block], zs * b_rest[block])
            else:
                states = zs / (1.0 - zs * poles[block, :, None]) * b_rest[block]
            values[start : start + EVAL_CHUNK] = a_rest[block] + c_rest[block] @ states
        return values

    def _gate_clears(self, gaps: np.ndarray) -> np.ndarray:
        """Mask of the points, given by their boundary gaps, whose resolvent
        is provably well conditioned.

        With ``t = ||Z|| ||D||`` and ``||Z|| = sqrt(1 - gap)`` (the ball row
        norm or the polydisc max modulus), Weyl's inequality gives
        ``cond(I - Z D*) <= (1 + t) / (1 - t)`` when ``t < 1``.  The test
        below fails for ``t >= 1`` and for a NaN ``t``, so those points keep
        the SVD.
        """
        t = np.sqrt(1.0 - gaps) * self._d_norm
        return 1.0 + t < _GATE_LIMIT * (1.0 - t)


def _line_residues(f: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Poles and residue factors of the lines ``z -> A + C z (I - z F)^{-1} B``
    of an ``(L, k, k)`` stack ``F``, or None when one ``F`` is not safely
    diagonalizable.

    One stacked ``eig`` gives ``F = V diag(poles) V^{-1}``, so a line's value
    at ``z`` is ``A + sum_k (C V)_k (V^{-1} B)_k z / (1 - z poles_k)``.  The
    decomposition is used only when every ``V`` inverts and
    ``||V||_F ||V^{-1}||_F`` (``sqrt(k) ||V^{-1}||_F``, as ``eig`` returns
    unit columns) is at most ``_EIGVEC_LIMIT``: a defective or nearly
    defective ``F`` returns None.
    """
    k = f.shape[-1]
    if not k:
        return None
    try:
        poles, vecs = np.linalg.eig(f)
        inverse = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return None
    if not (np.sqrt(k) * np.linalg.norm(inverse, axis=(1, 2)) <= _EIGVEC_LIMIT).all():
        return None
    return poles, c @ vecs, inverse @ b


def values_at(phi_eval, points) -> np.ndarray:
    """Values of an evaluator at the points, stacked as ``(k, d_out, d_in)``.

    Evaluators with an ``eval_many`` method (``TransferFunction``) are
    evaluated in one batch; any other callable is called once per point.
    """
    if hasattr(phi_eval, "eval_many"):
        return phi_eval.eval_many(points)
    values = [as_matrix(phi_eval(z)) for z in points]
    return np.stack(values) if values else np.zeros((0, 0, 0), dtype=complex)


def series_partial_lift(
    coll: Colligation, s: TupleOperator, order: int
) -> tuple[np.ndarray, float]:
    """Partial sum of the lifting series through word length ``order - 1``.

    Returns the partial sum (approximating the coupled defect target the
    colligation was built from) and the a-priori tail bound
    ``||Delta|| * ||sigma_S^{order+1}(I)||^{1/2}``.  The word sum over all
    length-``i`` products collapses to ``i`` applications of the map
    ``Y -> sum_l D_l Y S_l*``, so cost is linear in ``order``.
    """
    if coll.geometry != BALL_ROW:
        raise ValueError("the lifting series is defined for ball colligations")
    if order < 1:
        raise ValueError(f"truncation order must be >= 1, got {order}")
    if coll.in_map is None:
        raise ValueError("colligation lacks its construction maps")
    in_map = coll.in_map
    adjoints = s.adjoints()
    b_blocks = coll.b_blocks()
    d_blocks = coll.d_blocks()

    partial = coll.block_a @ in_map
    word = coll.block_c @ in_map
    for _ in range(order):
        layer = np.zeros_like(partial)
        for j in range(s.n):
            layer += b_blocks[j] @ word @ adjoints[j]
        partial = partial + layer
        nxt = np.zeros_like(word)
        for l in range(s.n):
            nxt += d_blocks[l] @ word @ adjoints[l]
        word = nxt

    tail = np.eye(s.dim, dtype=complex)
    for _ in range(order + 1):
        tail = cp_map(s, tail)
    bound = float(np.sqrt(opnorm(tail)))
    if coll.delta_norm is not None:
        bound *= coll.delta_norm
    return partial, bound


def _series_limit(coll: Colligation, s: TupleOperator, values: np.ndarray | None) -> np.ndarray:
    """The limit ``A E + sum_j B_j Y S_j*`` of ``series_partial_lift``.

    ``E`` is ``coll.in_map`` and ``Y = sum_i L^i(C E)``, ``L(Y) = sum_l D_l
    Y S_l*``, solves the Stein equation ``Y = C E + L(Y)``; ``L`` has
    spectral radius below one because ``s`` is pure and ``D`` contractive.

    With a joint eigenbasis ``S_l = V diag(lambda_l) V^{-1}`` the columns of
    ``Y V^{-*}`` decouple: column ``a`` of the limit times ``V^{-*}`` is
    ``Phi(lambda_a)*`` applied to ``(E V^{-*})_a``, read off ``values``, the
    ``eval_many`` values at the joint eigenvalues (``None`` without them).
    Mapping through ``V^{-1}`` costs about ``eps cond(V)`` relative accuracy:
    on kernel spans ``cond(V) <= sqrt(gram_cond)``, and any other tuple's
    eigenbasis passed ``cond(V) <= JOINT_COND_LIMIT``.  A tuple without one
    (a Jordan block) takes one ``kq x kq`` solve of ``(I - sum_l conj(S_l)
    (x) D_l) vec Y = vec(C E)``.
    """
    in_map = coll.in_map
    basis = joint_eigenbasis(s)
    if basis is None:
        k = coll.block_d.shape[0]
        adjoints = s.adjoints()
        stein = np.eye(k * s.dim, dtype=complex)
        for d, adj in zip(coll.d_blocks(), adjoints):
            stein -= np.kron(adj.T, d)
        rhs = (coll.block_c @ in_map).reshape(-1, order="F")
        y = np.linalg.solve(stein, rhs).reshape(k, s.dim, order="F")
        return coll.block_a @ in_map + sum(b @ y @ adj for b, adj in zip(coll.b_blocks(), adjoints))
    vecs = basis[0]
    in_hat = np.linalg.solve(vecs, in_map.conj().T).conj().T
    columns = values.conj().swapaxes(-1, -2) @ in_hat.T[:, :, None]
    return columns[:, :, 0].T @ vecs.conj().T


@dataclass
class CertificateResult:
    min_eig: float
    passed: bool
    sample_count: int

    def to_json_dict(self) -> dict:
        return {"min_eig": self.min_eig, "pass": self.passed, "samples": self.sample_count}


def schur_agler_certificate_ball(phi_eval, samples, tol: float) -> CertificateResult:
    """Minimum eigenvalue of the sampled Pick-type kernel matrix.

    Assembles ``(I - phi(u_a) phi(u_b)*) / (1 - <u_a, u_b>)`` blockwise over
    the samples; its scaled nonnegativity (``factorization_criterion`` at
    ``p = m``) certifies membership in the Schur class on the samples.
    """
    return factorization_criterion(phi_eval, 1, 1, samples, tol)


def factorization_criterion(
    phi_eval, m: int, p: int, samples, tol: float, n: int | None = None
) -> CertificateResult:
    """Sampled kernel test for factorization through the Schur class.

    Assembles ``P = [K_{p-m+1}(u_a, u_b) I - K_1(u_a, u_b) phi(u_a) phi(u_b)*]``
    over the samples.  The verdict (``psd_fails`` with base ``tol``) and
    ``min_eig`` are those of ``D^{-1/2} P D^{-1/2}``, ``D = diag(K_{p-m+1}(u_a,
    u_a)) (x) I``: a positive diagonal congruence keeps the exact PSD verdict,
    and the tolerance no longer grows with ``||P||`` (like ``0.19^{-(p-m+1)}``
    at radius 0.9).  ``samples`` is a sequence of points or an ``(N, n)``
    array, passed as it is to ``values_at`` and ``kernel_matrix``.  ``n``
    defaults to the coordinate count of the first sample.
    """
    if not len(samples):
        raise ValueError("at least one sample point is required")
    if n is None:
        n = np.size(samples[0])
    values = values_at(phi_eval, samples)
    kernel_one = kernel_matrix(KernelSpec.ball(1, n), samples, samples)
    kernel_high = (
        kernel_one if p == m else kernel_matrix(KernelSpec.ball(p - m + 1, n), samples, samples)
    )
    scale = np.diag(kernel_high).real ** -0.5
    weights = np.outer(scale, scale)
    kernel_one *= weights
    if p != m:  # else ``kernel_high`` is ``kernel_one``, scaled already
        kernel_high *= weights
    spectrum = np.linalg.eigvalsh(herm(pick_blocks(values, kernel_one, kernel_high)))
    return CertificateResult(
        min_eig=float(spectrum[0]), passed=not psd_fails(spectrum, tol), sample_count=len(samples)
    )


@dataclass(frozen=True)
class GridSpec:
    """Deterministic polar grid: ``radii`` magnitudes times ``angles`` phases
    per coordinate, scaled to keep the product points strictly interior."""

    radii: int = 5
    angles: int = 8
    radius: float = 0.9

    def __post_init__(self):
        if self.radii < 1 or self.angles < 1:
            raise ValueError("grid needs at least one radius and one angle")
        if not 0.0 < self.radius < 1.0:
            raise ValueError(f"grid radius must lie in (0, 1), got {self.radius}")


def grid_points(grid: GridSpec, geometry: str, n: int) -> np.ndarray:
    """Full product grid over the coordinates as an ``(N, n)`` complex array.

    The axis holds ``radii * angles`` values, radius-major; the points run
    over the axis to the power ``n`` with the first coordinate the slowest,
    the order of ``itertools.product``.  On the ball the per-axis radius is
    shrunk by ``sqrt(n)`` so every product point stays inside the unit
    sphere.
    """
    axis = _grid_axis(grid, geometry, n)
    return np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)


def _grid_axis(grid: GridSpec, geometry: str, n: int) -> np.ndarray:
    """The values of one coordinate of ``grid_points``, in its order."""
    on_ball = geometry in (BALL_ROW, "ball")
    scale = grid.radius / np.sqrt(n) if on_ball else grid.radius
    radii = scale * np.arange(1, grid.radii + 1) / grid.radii
    phases = np.exp(1j * (2.0 * np.pi * np.arange(grid.angles) / grid.angles))
    return (radii[:, None] * phases[None, :]).ravel()


@dataclass
class ScanResult:
    """Operator norms of a function over scanned points: the points
    ``(N, n)``, their norms ``(N,)`` and the largest norm (0 for no points)."""

    points: np.ndarray
    norms: np.ndarray
    max_norm: float


def sup_norm_scan(phi_eval, points) -> ScanResult:
    """Operator norm of the function at each point, and their maximum.

    ``points`` is an iterable or an ``(N, n)`` array.  One ``values_at`` batch
    gives the values and one ``opnorms`` call their norms, each ``opnorm`` of
    the value alone.  The points are converted after that: an ``(N, n)`` array
    is kept, scalars are one-coordinate points, unequal sizes raise ``DomainViolation``.
    """
    points = points if isinstance(points, np.ndarray) else list(points)
    norms = opnorms(values_at(phi_eval, points))
    if not (isinstance(points, np.ndarray) and points.ndim == 2):
        try:
            points = np.array(points, dtype=complex).reshape(len(norms), -1 if len(norms) else 0)
        except ValueError:  # unequal sizes
            raise DomainViolation("scan points must all have the same number of coordinates") from None
    return _scan_result(points.astype(complex, copy=False), norms)


def grid_scan(phi_eval, grid: GridSpec, geometry: str, n: int) -> ScanResult:
    """``sup_norm_scan`` over ``grid_points(grid, geometry, n)``.

    A polydisc transfer function whose resolvent gate clears the grid is
    evaluated on it one state block smaller (``TransferFunction._grid_values``),
    on a bidisc grid line by line in pole-residue form when every line's
    eigenvectors pass their gate, so its norms agree with ``sup_norm_scan``'s
    at round-off, not bit for bit.  Every other evaluator and grid is
    scanned by ``sup_norm_scan`` itself.
    """
    points = grid_points(grid, geometry, n)
    values = None
    if isinstance(phi_eval, TransferFunction) and phi_eval.n == n:
        values = phi_eval._grid_values(_grid_axis(grid, geometry, n), points)
    if values is None:
        return sup_norm_scan(phi_eval, points)
    return _scan_result(points, opnorms(values))


def _scan_result(points: np.ndarray, norms: np.ndarray) -> ScanResult:
    # ``fmax`` passes over NaN norms, as ``max`` over Python floats from 0.0 does.
    return ScanResult(points=points, norms=norms, max_norm=float(np.fmax.reduce(norms, initial=0.0)))


def write_scan_csv(result: ScanResult, n: int, stream) -> None:
    """CSV rows ``re(z1),im(z1),...,re(zn),im(zn),opnorm`` at 17 significant digits.

    Each distinct bit pattern of a coordinate column is formatted once (a
    product grid has few of them; ``-0.0`` and ``0.0`` stay apart), and a
    block's cells are looked up among the column's sorted patterns.  The
    norms are formatted per row.  The table is written with one ``%`` call
    per block of ``EVAL_CHUNK`` rows, so only one block's cells are alive
    at a time.
    """
    header = ",".join(f"re(z{i+1}),im(z{i+1})" for i in range(n))
    stream.write(header + ",opnorm\n")
    count = len(result.norms)
    if not count:
        return
    bits = np.ascontiguousarray(result.points, dtype=complex).view(np.uint64).reshape(count, 2 * n)
    patterns = [np.unique(column) for column in bits.T]
    texts = [np.array(["%.17g" % v for v in p.view(float).tolist()], dtype=object) for p in patterns]
    row = "%s," * (2 * n) + "%.17g\n"
    for start in range(0, count, EVAL_CHUNK):
        block = bits[start : start + EVAL_CHUNK]
        cells = [t[np.searchsorted(p, column)] for t, p, column in zip(texts, patterns, block.T)]
        table = np.column_stack(cells + [result.norms[start : start + EVAL_CHUNK].astype(object)])
        stream.write(row * len(table) % tuple(table.ravel().tolist()))
