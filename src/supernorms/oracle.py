"""Brute-force grid oracle for qubit-input induced norms.

The oracle cross-checks the ascent of :mod:`.optimize` on maps with
``dim_in <= 2``: it takes the maximum of ``||Phi(X)||_p / ||X||_q`` over a
dense grid of the feasible inputs, which is always a valid lower bound and
converges to the norm as the resolution grows.  It shares no code with the
ascent; it reads a query's ``q``, ``p``, ``hermitian_restricted`` and
``stabilize_dim`` fields only.

Every grid is one walk over chunks of unit real coordinate vectors ``x``,
mapped to the inputs ``sum_i x_i B_i`` of a fixed basis: one matrix product
with the basis' image under the map gives a chunk's outputs.  Two generators
feed the walk.  The sphere walk puts ``x`` on a grid of hyperspherical
angles: on the Bloch sphere (2 angles, Pauli basis) the inputs are the
reflections ``n.sigma``, which with ``I`` are the extreme points of the
Hermitian q = inf ball, or, shifted, the pure states ``(I + n.sigma) / 2``
for Hermitian q = 1; on S^3 (3 angles) the unitaries for q = inf, or the
Hermitian sphere for finite q.  The rank-one walk gives the q = 1 grid
without the restriction: the matrix-unit coordinates of ``u v*`` for Bloch
states u and v (4 angles).  Finite-q points are rescaled by their q-norm.
Walking extreme points keeps the objective smooth in the angles.  Finite q
without the Hermitian restriction has no grid that comes near the norm at a
usable resolution (a grid of all 2x2 matrices on S^7 read 0.4-2.4% below the
ascent at any resolution that runs in seconds), so it is refused.

For even resolution only half of each sphere grid except the q = 1 one is
evaluated: the grid is closed under ``X -> -X``, the objective is even, and
every skipped point's antipode lies on the evaluated half, so the maximum is
the same.  A grid point is its leading coordinates followed by the product
of the leading sines times a point of a trailing sub-sphere, so each walk
builds the longest trailing sub-sphere that fits in one chunk once and
broadcasts runs of leading-angle prefixes against it.  The rank-one walk
builds the Bloch states once, and each chunk is a run of ``u`` states times
the ``v`` states, formed as outer products.

A chunk holds at most ``_ORACLE_CHUNK_ENTRIES`` (2^16) complex output
entries, 16,384 points for 2x2 outputs, so its buffers fit in a core's L2
cache; each call allocates one workspace of coordinate, output and per-point
buffers, and every chunk fills the same buffers in place through ``out=``
arguments.  The walk compares squared objectives and takes one square root
of the grid maximum.  One kernel gives every squared 2x2 norm from the
squared Frobenius norm ``f`` and ``|det|``: ``f + 2|det|`` at p = 1, ``f`` at
p = 2, the top squared singular value ``hi^2`` at p = inf, which is read from
the entries of ``M M*`` wherever the two singular values nearly coincide,
and ``hi^2 (1 + (|det| / hi^2)^p)^(2/p)`` at any other p.  The same kernel
takes the finite-q norms of the inputs; a Hermitian input's norm does not
change along a run of the last angle, so each call takes it once per run, at
the run's head, before the walk.  A 1x1 output's norm is its modulus.
Outputs larger than 2x2 take their singular values from a batched SVD,
except where every output is Hermitian: for a Hermitian-restricted query
whose map sends the basis and I to exactly Hermitian images (any
Hermiticity-preserving map, such as the ``dim4_pair`` difference), they are
the moduli of the ``eigvalsh`` eigenvalues, in 0.35 to 0.6 of the SVD's
time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import UnsupportedInstanceError, require_count
from .schatten import pnorm
from .superop import _transfer_matrix, apply

if TYPE_CHECKING:
    from .optimize import NormQuery
    from .superop import SuperOp

# complex output entries one chunk of the brute-force oracle holds; each call
# refills the same chunk buffers, so they stay in cache (2^16 ran fastest in a
# sweep of 2^14 .. 2^18, see BENCH_2026-10-18-oracle-workspace.json)
_ORACLE_CHUNK_ENTRIES = 1 << 16


def _grid_runs(rows: int, cols: int, chunk: int):
    """Row-major runs of a ``rows x cols`` grid, at most ``chunk`` points each,
    as (row slice, column slice) rectangles: whole rows while a row fits."""
    per = chunk // cols
    if per:
        for i in range(0, rows, per):
            yield slice(i, i + per), slice(None)
        return
    for i in range(rows):
        for j in range(0, cols, chunk):
            yield slice(i, i + 1), slice(j, j + chunk)


def _sphere_coords(axes) -> np.ndarray:
    """Unit vectors on the row-major grid of the hyperspherical angles
    ``axes`` (first angle slowest); each angle splits the last coordinate into
    its cosine and sine parts, so no angles give the single point ``[1]``."""
    x = np.ones((1, 1))
    for a in axes:
        head, run = np.repeat(x[:, :-1], a.size, axis=0), x[:, -1:]
        x = np.column_stack([head, (run * np.cos(a)).ravel(), (run * np.sin(a)).ravel()])
    return x


def _sphere_chunks(axes, chunk: int):
    """``_sphere_coords(axes)`` in row-major runs of at most ``chunk`` points.

    A point is its leading coordinates followed by the product of the leading
    sines times a point of the trailing sub-sphere.  The longest run of
    trailing angles whose grid fits in one chunk, or else the last angle
    alone, is built once, and each chunk broadcasts a run of leading-angle
    prefixes against it (or one prefix against a run of the last angle), so
    the prefix table holds at most a (last angle's size)-th of the grid.
    Every chunk is a view of one coordinate buffer, which the next overwrites;
    the buffer is column-major, so each coordinate is filled as one
    contiguous run.
    """
    fits = next(i for i in range(len(axes) + 1) if math.prod(a.size for a in axes[i:]) <= chunk)
    split = min(fits, len(axes) - 1)
    head, tail = _sphere_coords(axes[:split]).T, _sphere_coords(axes[split:]).T.copy()
    buf = np.empty((len(axes) + 1, min(chunk, head.shape[1] * tail.shape[1])))
    for rows, cols in _grid_runs(head.shape[1], tail.shape[1], chunk):
        h, t = head[:, rows], tail[:, cols]
        x = buf[:, : h.shape[1] * t.shape[1]]
        blocks = x.reshape(-1, h.shape[1], t.shape[1])
        blocks[:split] = h[:split, :, None]
        # the last coordinate of a prefix is the product of its sines
        np.multiply(h[split:, :, None], t[:, None, :], out=blocks[split:])
        yield x.T


class _Workspace:
    """Per-point buffers of one oracle call, sized for one chunk: every chunk
    fills views of the same arrays, so the walk allocates nothing per chunk."""

    def __init__(self, points: int, dout: int):
        self.out = np.empty((points, 2 * dout * dout))  # real view of the outputs
        self.sq, self.f, self.det2, self.tmp = np.empty((4, points))
        self.det, self.cross = np.empty((2, points), dtype=np.complex128)
        self.near = np.empty(points, dtype=bool)


def _flat_sq_pnorm(flat: np.ndarray, d: int, p: float, ws: _Workspace, hermitian: bool = False) -> np.ndarray:
    """Squared Schatten p-norms of a stack of row-major flattened d x d
    matrices, as a view of ``ws`` that the next call with ``ws`` overwrites.
    A 1x1 matrix's norm is its entry's modulus at every p.  Beyond 2x2,
    matrices the caller knows to be Hermitian (``hermitian``) take their
    singular values as the moduli of their eigenvalues, from ``eigvalsh``."""
    n = len(flat)
    sq = ws.sq[:n]
    # squared moduli from the real views: np.abs would take a hypot per entry
    r = flat.view(np.float64)
    if d == 1:
        return np.einsum("ij,ij->i", r, r, out=sq)
    if d != 2:
        M = flat.reshape(-1, d, d)
        s = np.linalg.eigvalsh(M) if hermitian else np.linalg.svd(M, compute_uv=False)
        return np.square(pnorm(s, p), out=sq)
    f = np.einsum("ij,ij->i", r, r, out=ws.f[:n])
    if p == 2.0:
        return f
    det, cross = ws.det[:n], ws.cross[:n]
    np.multiply(flat[:, 0], flat[:, 3], out=det)
    np.multiply(flat[:, 1], flat[:, 2], out=cross)
    det -= cross
    det2, tmp = ws.det2[:n], ws.tmp[:n]
    np.multiply(det.real, det.real, out=det2)
    np.multiply(det.imag, det.imag, out=tmp)
    det2 += tmp
    # singular values hi >= lo: hi^2 + lo^2 = f and hi lo = |det|
    if p == 1.0:
        np.sqrt(det2, out=sq)
        sq *= 2.0
        sq += f
        return sq
    # hi^2 = (f + g) / 2 with g^2 = f^2 - 4 |det|^2, which cancels when hi is
    # near lo; there g^2 = (a - c)^2 + 4 |b|^2 from M M* = [[a, b], [b*, c]]
    near = ws.near[:n]
    np.multiply(f, f, out=tmp)
    np.multiply(det2, -4.0, out=sq)
    sq += tmp
    tmp *= 1e-4
    np.less(sq, tmp, out=near)
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    sq += f
    sq *= 0.5
    idx = np.flatnonzero(near)
    if idx.size:
        m = r[idx]
        a = np.einsum("ij,ij->i", m[:, :4], m[:, :4])
        c = np.einsum("ij,ij->i", m[:, 4:], m[:, 4:])
        b = flat[idx, 0] * flat[idx, 2].conj() + flat[idx, 1] * flat[idx, 3].conj()
        sq[idx] = f[idx] / 2.0 + np.sqrt(((a - c) / 2.0) ** 2 + (b * b.conj()).real)
    if math.isinf(p):
        return sq
    # (hi^p + lo^p)^(2/p) = hi^2 (1 + (lo / hi)^p)^(2/p) with lo / hi taken as
    # |det| / hi^2, because f - hi^2 would lose a small lo to cancellation
    np.sqrt(det2, out=tmp)
    tmp /= np.maximum(sq, np.finfo(np.float64).tiny, out=f)
    tmp **= p
    tmp += 1.0
    tmp **= 2.0 / p
    sq *= tmp
    return sq


def _run_head_sq_norms(axes, basis: np.ndarray, q: float, chunk: int) -> np.ndarray:
    """Squared q-norms of the Hermitian sphere walk's inputs, one per run of
    its last angle, in walk order, in batches of at most ``chunk``.

    The input ``[[x0, x2 + i x3], [x2 - i x3, x1]]`` depends on the last angle
    only through ``x2^2 + x3^2``, the squared product of the polar sines, so
    its norm holds along each run; it is taken at the run's head, where the
    last angle is 0 and so ``x3 = 0``."""
    heads = _sphere_coords(axes[:-1])
    real = basis[:-1].view(np.float64)
    step = min(chunk, len(heads))
    ws = _Workspace(step, 2)
    sq = np.empty(len(heads))
    for i in range(0, len(heads), step):
        h = heads[i : i + step]
        inputs = np.matmul(h, real, out=ws.out[: len(h)])
        sq[i : i + len(h)] = _flat_sq_pnorm(inputs.view(np.complex128), 2, q, ws)
    return sq


def _rank_one_chunks(states: np.ndarray, chunk: int):
    """``u v*`` for every pair of ``states`` (u slowest) in runs of at most
    ``chunk``, as the real view of the row-major entries, which are the
    coordinates in ``_MATRIX_UNITS``; every chunk is a view of one buffer,
    which the next overwrites."""
    conj = states.conj()
    buf = np.empty((min(chunk, len(states) ** 2), 4), dtype=np.complex128)
    for rows, cols in _grid_runs(len(states), len(states), chunk):
        u, v = states[rows], conj[cols]
        flat = buf[: len(u) * len(v)]
        np.multiply(u[:, None, :, None], v[None, :, None, :], out=flat.reshape(len(u), len(v), 2, 2))
        yield flat.view(np.float64)


# the oracle's coordinate bases: rows are the row-major 2x2 matrices B_i of
# the inputs sum_i x_i B_i; the sphere walk's are keyed by (1 < q < inf, hermitian)
_SPHERE_BASES = {
    # Bloch sphere, sigma_z, sigma_x, sigma_y
    (False, True): np.array([[1, 0, 0, -1], [0, 1, 1, 0], [0, -1j, 1j, 0]]),
    # S^3 to the unitaries [[z1, -z2*], [z2, z1*]], z1 = x0 + i x1, z2 = x2 + i x3
    (False, False): np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, -1, 1, 0], [0, 1j, 1j, 0]]),
    # S^3 to the Hermitian [[x0, x2 + i x3], [x2 - i x3, x1]]
    (True, True): np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0]]),
}
# the rank-one walk's: real and imaginary matrix units
_MATRIX_UNITS = np.kron(np.eye(4), [[1], [1j]])


def brute_force_oracle(phi: SuperOp, query: NormQuery, resolution: int) -> float:
    """Grid maximum of ``||Phi(X)||_p`` over the unit q-ball's grid, at
    ``resolution`` grid points per angle (see the module docstring).

    Only qubit input spaces without an ancilla are in scope; finite q
    without the Hermitian restriction raises ``UnsupportedInstanceError``.
    The result is always a valid lower bound on the queried norm.
    """
    R = require_count(resolution, "resolution", 2)
    if query.stabilize_dim:
        raise UnsupportedInstanceError("the oracle does not handle stabilized queries")
    if phi.dim_in > 2:
        raise UnsupportedInstanceError(
            f"oracle grids require dim_in <= 2, got {phi.dim_in}"
        )
    q, p, herm = query.q, query.p, query.hermitian_restricted
    din, dout = phi.dim_in, phi.dim_out
    if din == 1:
        return float(pnorm(np.linalg.svd(apply(phi, np.ones((1, 1))), compute_uv=False), p))
    finite = not (q == 1.0 or math.isinf(q))
    if finite and not herm:
        raise UnsupportedInstanceError("the oracle has no grid for 1 < q < inf without the Hermitian restriction")
    # the realigned Choi matrix maps row-major vectorized inputs to outputs
    transfer_t = _transfer_matrix(phi.kraus_left, phi.kraus_right)
    thetas = np.linspace(0.0, math.pi, R)
    phis = np.linspace(0.0, 2.0 * math.pi, R, endpoint=False)
    chunk = max(1, _ORACLE_CHUNK_ENTRIES // dout**2)
    if q == 1.0 and not herm:
        # rank-one inputs u v*, the trace-norm ball's extreme points, for the
        # Bloch states u, v = (cos(theta/2), sin(theta/2) e^(i phi)), theta slowest
        states = np.empty((R, R, 2), dtype=np.complex128)
        states[:, :, 0] = np.cos(thetas / 2.0)[:, None]
        states[:, :, 1] = np.sin(thetas / 2.0)[:, None] * np.exp(1j * phis)
        basis = _MATRIX_UNITS
        coords, points = _rank_one_chunks(states.reshape(-1, 2), chunk), R**4
    else:
        basis = _SPHERE_BASES[finite, herm]
        n_angles = basis.shape[0] - 1
        # for even R, theta index i pairs with R - 1 - i and phi_j + pi =
        # phi_(j + R/2), so the antipode of every point with a first theta index
        # >= R/2 is on the lower half; the q = 1 states have no antipodes
        lead = R // 2 if R % 2 == 0 and q != 1.0 else R
        axes = [thetas[:lead]] + [thetas] * (n_angles - 2) + [phis]
        coords, points = _sphere_chunks(axes, chunk), lead * R ** (n_angles - 1)
    image = basis @ transfer_t
    eye = transfer_t[0] + transfer_t[3]  # the image of I
    # Hermitian inputs have Hermitian outputs when the images of the basis and
    # of I are exactly Hermitian, as they are for Hermiticity-preserving maps;
    # only outputs beyond 2x2 take their spectra from a decomposition
    hermitian = False
    if herm and dout > 2:
        images = np.vstack([image, eye]).reshape(-1, dout, dout)
        hermitian = np.array_equal(images, images.conj().transpose(0, 2, 1))
    ws = _Workspace(min(chunk, points), dout)
    if finite:
        in_sq, walked = _run_head_sq_norms(axes, basis, q, chunk), 0
    # every objective is compared squared; one square root of the maximum ends the walk
    best, shift = 0.0, None
    if q == 1.0 and herm:
        # the pure states (I + n.sigma) / 2
        image, shift = image / 2.0, (eye / 2.0).view(np.float64)
    elif math.isinf(q) and herm:
        best = float(_flat_sq_pnorm(eye[None], dout, p, ws, hermitian)[0])
    # real coordinates times the real view of a complex matrix give the real
    # view of the complex product
    image = image.view(np.float64)
    for x in coords:
        out = np.matmul(x, image, out=ws.out[: len(x)])
        if shift is not None:
            out += shift
        vals = _flat_sq_pnorm(out.view(np.complex128), dout, p, ws, hermitian)
        if finite:
            # a chunk is whole runs of the last angle, or part of one when R
            # exceeds the chunk, and each run shares its head's input norm
            run = min(R, len(x))
            vals = vals.reshape(-1, run).max(axis=1)
            vals /= in_sq[walked // R : walked // R + len(vals)]
            walked += len(x)
        best = max(best, float(vals.max()))
    return math.sqrt(best)
