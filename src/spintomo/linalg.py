"""Dense complex linear algebra on small matrices.

Hermitian eigendecomposition, Hermitian matrix exponentials, Haar-random
unitaries, random density matrices, partial trace/transpose.  Everything is
64-bit IEEE and sized for desk-scale problems (dimension below ~100).

Randomness uses numpy's PCG64 generator; a fixed seed reproduces the Gaussian
stream bit for bit on any platform.  Haar unitaries orthonormalise that stream
by Gram-Schmidt in elementwise numpy arithmetic, with no LAPACK call.

The frame kernels walk frames in blocks of ``_BLOCK_BYTES`` (512 KiB) of
complex n x n frames, a multiple of 8 frames and at least 8: 512 frames at
n = 8, 8192 at n = 2, 128 at n = 16 and 8 at n = 64.  So their working
arrays stay in cache, a small n pays numpy's call overhead on few blocks,
and their scratch memory grows with neither the number of frames nor their
size.  ``haar_blocks`` draws Haar unitaries one block at a time in column
layout, q[k, i, b] = u_b[i, k], bit-identical to the unblocked sampler.
Its one storage path takes the array for the Gaussian draw x from
its caller and draws y block by block into the bytes of x that the block
has read: ``haar_blocks`` allocates x, and ``haar_unitaries`` passes the
upper half of its own output and writes each block below it, so its peak
memory is the output and about one block more.  ``column_diagonals`` reduces one block
in that layout to diag(u^dag a u) with one BLAS GEMM per column and a
conjugate-product sum over rows.  It is the one diagonal kernel, with two
callers.  ``frame_diagonals`` is the one loop over stored frames: it takes
a frame stack, or the factor stacks of product frames, and ``_kron_columns``
forms each block in the column layout (for one stack, the block's
transposed copy), so the product group's simplex image holds no product
stack and its points equal ``frame_diagonals`` of ``kron_all`` bit for bit.
``_haar_scan``, the one reduction of the entropy and Peres scans and of the
full group's simplex image, calls it on the sampler's blocks as they are
drawn, so none of them holds a frame stack and their diagonals equal
``frame_diagonals`` of ``haar_unitaries`` bit for bit.

The sampler's block loop conjugates into a reused buffer and scales in
place, and each such step rounds as the expression it replaced: numpy
divides a complex array by a real one by multiplying with the reciprocal,
so scaling by 1/sqrt(2) or 1/norm gives the quotient's bits; ``einsum``
sums its unfused complex products in index order whether the conjugate it
reads is fresh or reused; and the norm is ``np.linalg.norm``'s own product
and sum, with the product reading two distinct arrays (written in place
over one of them, numpy takes its loop for overlapping operands, which
rounds differently).  Drawing y into x's bytes with
``standard_normal(out=...)`` takes the same stream as a fresh array.

The input rules that several modules share each have one home here:
``_integers`` for integer sizes and indices, ``_subsystem_dims`` for
subsystem dims and their product, ``_require_finite`` for finite entries
and ``_check_bytes`` for the byte budget.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import LIMITS, check

_BLOCK_BYTES = 2**19  # bytes of frames per block of the frame kernels: 512 frames at n = 8
_TILE = 8  # every block is a whole number of tiles of 8 frames
_FLOAT_MAX = float(np.finfo(float).max)


def _check_bytes(nbytes: float, what: str, *args) -> None:
    """Refuse ``what.format(*args)`` when its estimated ``nbytes`` exceed ``LIMITS["bytes"]`` (NaN refused).

    The message is formatted only on refusal; a count past the double range reads as inf GB.
    """
    message = what + " would allocate about {:.3g} GB, above the budget of {:.3g} GB"
    gigabytes = math.inf if nbytes > _FLOAT_MAX else nbytes / 1e9
    check("bytes", nbytes, message, *args, gigabytes, LIMITS["bytes"] / 1e9)


def _frames_in(nbytes: int, n: int) -> int:
    """How many complex n x n frames fill ``nbytes``, in whole ``_TILE``s, and never less than one tile."""
    return _TILE * max(1, nbytes // (16 * _TILE * max(n, 1) ** 2))


def _blocks(count: int, n: int) -> list[slice]:
    """Consecutive slices of range(count), each of ``_BLOCK_BYTES`` of complex n x n frames.

    The remainder joins the last slice, so no slice is shorter than a block
    unless ``count`` is.  A one-frame block would change the summation path
    of the sampler's ``einsum`` and ``norm``, and with it the last bits of
    that draw.  A block is a whole number of 8-frame tiles because BLAS
    tiles ``column_diagonals``' GEMM a few frames at a time, and frames in a
    block's last, partial tile take another kernel and other last bits; so
    every frame but the last ``count % 8`` lies in a full tile, whatever the
    block.
    """
    size = _frames_in(_BLOCK_BYTES, n)
    stops = [*range(size, count - size + 1, size), count]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool and anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integers(values, what: str, least: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each at least ``least`` when it is given.

    The one integer rule of sizes and indices: a bool or any other non-integer
    is refused, never truncated, and so is a ``values`` that is not a sequence.
    """
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a sequence of integers, got {values!r}") from None
    for v in values:
        if not _is_integer(v):
            raise ValueError(f"{what} must be integers, got {v!r}")
    values = tuple(map(int, values))
    if least is not None and min(values, default=least) < least:
        raise ValueError(f"{what} {values} must each be at least {least}")
    return values


def _require_finite(values, what: str) -> None:
    """Refuse ``values`` unless every entry is finite: the one finiteness rule of inputs and tables."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite numbers (found NaN or infinity)")


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a, "matrix entries")
    return a


def hermiticity_residual(m) -> float:
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def unitarity_residual(u) -> float:
    """max |u^dag u - 1| over the entries, and over every frame of an (F, n, n) stack.

    A stack is checked one block of frames at a time, so the scratch is a few
    blocks, not several copies of the stack; a NaN in any block is the result.
    """
    u = np.asarray(u)
    stack, eye = u.reshape(-1, *u.shape[-2:]), np.eye(u.shape[-1])
    blocks = _blocks(len(stack), u.shape[-1])
    residuals = [np.abs(stack[b].conj().swapaxes(-1, -2) @ stack[b] - eye).max() for b in blocks]
    return float(np.max(residuals))


def column_diagonals(a, q) -> np.ndarray:
    """diag(u_b^dag a u_b) for one block of frames in column layout, shape (B, n), complex.

    ``q`` is a C-contiguous (n, n, B) block with q[k, i, b] = u_b[i, k], the
    Haar sampler's own layout: q[k] holds column k of every frame.  One GEMM
    per column gives w[k] = a^dag q[k], and then
    diag(u_b^dag a u_b)[k] = sum_i conj(w[k, i, b]) q[k, i, b], a sum over
    rows.  Every frame kernel ends here, so equal blocks give equal bits.
    """
    w = np.matmul(np.conjugate(a).T, q)
    np.conjugate(w, out=w)
    w *= q
    return np.add.reduce(w, axis=1).T.copy()


def frame_diagonals(a, *stacks) -> np.ndarray:
    """diag(u_b^dag a u_b) for the frames u_b = s_1[b] (x) ... (x) s_K[b] of (F, d_k, d_k) stacks, shape (F, n), complex.

    One (F, n, n) stack is the frames themselves; several are the factor
    stacks of product frames, whose (F, n, n) product stack is never formed.
    ``a`` is any n x n matrix, Hermitian or not.  This is the one loop that
    feeds stored frames to ``column_diagonals``: each ``_blocks`` slice,
    512 KiB of n x n frames, goes into its column layout through
    ``_kron_columns`` and is reduced there, so every diagonal equals that of
    ``kron_all(stacks)`` bit for bit; the Haar scans reduce the sampler's
    blocks with the same kernel.  Beside the stacks and the output it holds
    about two blocks, whatever the frames' number and size.
    """
    count, n = len(stacks[0]), math.prod(s.shape[-1] for s in stacks)
    a = np.asarray(a, dtype=complex)
    out = np.empty((count, n), dtype=complex)
    for block in _blocks(count, n):
        out[block] = column_diagonals(a, _kron_columns([s[block] for s in stacks]))
    return out


def _hermitian_entries(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of ``hermitian_basis(d)`` as arrays (k, row, col, value).

    Each column of a basis matrix holds at most one of them.
    """
    a, b = np.triu_indices(d, 1)
    diag, sym = np.arange(d), d + 2 * np.arange(a.size)
    # (k, row, col) of the diagonal units, then of the symmetric and the antisymmetric pairs
    k, row, col = np.concatenate([(diag, diag, diag), (sym, a, b), (sym, b, a), (sym + 1, a, b), (sym + 1, b, a)], 1)
    return k, row, col, np.repeat([1.0, -1.0j, 1.0j], [d + 2 * a.size, a.size, a.size])


def hermitian_basis(d: int) -> np.ndarray:
    """Orthogonal basis of the d x d Hermitian matrices, shape (d^2, d, d).

    Order: the d diagonal units |k><k|, then for each pair a < b (row-major)
    |a><b| + |b><a| followed by -i|a><b| + i|b><a|.
    """
    k, row, col, value = _hermitian_entries(d)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[k, row, col] = value
    return basis


def eig_hermitian(m):
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns (w, v) with m = v @ diag(w) @ v^dagger.
    """
    m = as_matrix(m)
    check("hermitian", hermiticity_residual(m), "matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def expm_hermitian_times(h, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, via eigendecomposition."""
    if not np.isfinite(t):
        raise ValueError(f"evolution time t must be a finite number, got {t}")
    h = as_matrix(h)
    check("hermitian", hermiticity_residual(h), "generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _check_draw(n: int, count: int) -> tuple[int, int]:
    """The dimension and count of a Haar draw as ints, refused unless n >= 1 and count >= 0."""
    (n,) = _integers((n,), "dimensions", 1)
    if not (_is_integer(count) and count >= 0):
        raise ValueError(f"sample count must be a nonnegative integer, got {count!r}")
    return n, int(count)


def haar_blocks(n: int, count: int, rng_or_seed):
    """Haar unitaries one block of draws at a time: yields (block, q), q[k, i, b] = u_b[i, k].

    ``block`` is a ``_blocks`` slice of the draws, 512 KiB of unitaries,
    and q the (n, n, size) column layout that ``column_diagonals`` reads.
    q is scratch that the next block overwrites, so a caller uses or copies
    it before going on.

    The Ginibre draw z = (x + i y) / sqrt(2) takes x and then y from the
    generator, each of shape (count, n, n): x all at once, y one block at a
    time into the bytes of x[block], free once x[block] is in q.
    Gram-Schmidt then runs per block with the same arithmetic per draw as
    the unblocked sampler, so every unitary is bit-identical to it.  The
    generator holds x, half a stack of unitaries, and one block of scratch.

    Per block, x and y are scaled by 1/sqrt(2) as they are copied in, which
    is how numpy divides a complex array by sqrt(2).  Column conjugates go
    into one reused (n, block) buffer, and the projection coefficients are
    conjugated in place; the two ``einsum`` projections still sum their
    unfused products in index order.  A column is multiplied by
    1/sqrt(sum |v|^2), its reciprocal norm, which rounds as the complex
    division by the norm; the sum takes the product of ``conj(v)`` and
    ``v`` as two distinct arrays, as ``np.linalg.norm`` forms it.

    The dimension, the count and the bytes of x are checked on the call,
    before x is allocated, not on the first block.
    """
    n, count = _check_draw(n, count)
    _check_bytes(8 * count * n * n, "the Gaussian draw of {} Haar unitaries at dimension {}", count, n)
    return _haar_blocks(np.empty((count, n, n)), np.random.default_rng(rng_or_seed))


def _haar_blocks(x: np.ndarray, rng: np.random.Generator):
    # x is a C-contiguous (count, n, n) float array: the draw's x fills it, and
    # each block's y then reuses the bytes of x[block]
    count, n = len(x), x.shape[-1]
    rng.standard_normal(out=x)
    blocks = _blocks(count, n)
    largest = count - blocks[-1].start
    scratch = np.empty(n * n * largest, dtype=complex)
    conjugates = np.empty(n * largest, dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    for block in blocks:
        # Gram-Schmidt on the columns gives the Q whose R has a positive
        # diagonal, the phase-fixed QR of the Ginibre draw.  Batch innermost:
        # q[k] is column k of every draw in the block, shape (n, block).
        # Projecting twice keeps the columns orthogonal to working precision.
        size = block.stop - block.start
        q = scratch[: n * n * size].reshape(n, n, size)
        np.multiply(x[block].T, scale, out=q.real)
        y = rng.standard_normal(out=x[block])
        np.multiply(y.T, scale, out=q.imag)
        vc = conjugates[: n * size].reshape(n, size)
        for k in range(n):
            v, done = q[k], q[:k]
            for _ in range(2 if k else 0):
                # coefficients <q_j, v> over the columns j < k, then v -= sum_j q_j <q_j, v>
                coeffs = np.einsum("jib,ib->jb", done, np.conjugate(v, out=vc))
                v -= np.einsum("jib,jb->ib", done, np.conjugate(coeffs, out=coeffs))
            # the norm reads v and its conjugate as two arrays: written in place
            # into vc, the product would take numpy's overlap loop and other bits
            inv = 1.0 / np.sqrt(np.add.reduce((np.conjugate(v, out=vc) * v).real, axis=0))
            v *= inv.astype(complex)  # a real operand would take a buffered cast
        yield block, q


def haar_unitaries(n: int, count: int, rng_or_seed) -> np.ndarray:
    """Batch of Haar unitaries, shape (count, n, n), C-contiguous.

    ``haar_blocks`` written into one stack: x is drawn into the upper half of
    the output's own bytes, so the peak memory is the output and about one
    block of scratch.  The output's bytes are checked before it exists.
    """
    n, count = _check_draw(n, count)
    _check_bytes(16 * count * n * n, "{} Haar unitaries at dimension {}", count, n)
    out = np.empty((count, n, n), dtype=complex)
    # Block b's unitaries fill floats [0, 2 stop_b n^2) of the output, and x's
    # unread blocks start at float count n^2 + stop_b n^2 >= 2 stop_b n^2; its y,
    # drawn into x[b] before that, lies past the unitaries written so far.
    x = out.reshape(-1).view(np.float64)[count * n * n :].reshape(count, n, n)
    for block, q in _haar_blocks(x, np.random.default_rng(rng_or_seed)):
        out[block] = q.T
    return out


def _haar_scan(a, count: int, rng_or_seed, reduce, shape: tuple[int, ...] = ()) -> np.ndarray:
    """``reduce(diagonals)`` per Haar frame u of ``haar_unitaries(len(a), count, rng_or_seed)``, shape (count, *shape).

    The one reduction of the entropy and Peres scans and of the full group's
    simplex image: each block of the sampler, 512 KiB of frames, goes through
    ``column_diagonals`` while it is in cache, and ``reduce`` maps its (B, n)
    complex diagonals diag(u^dag a u) to B values of the given ``shape``
    (B rows of n points for the image).  No frame stack is held, and the
    diagonals are those of ``frame_diagonals`` on ``haar_unitaries`` bit for bit.
    The sampler's x and the output are checked against the byte budget
    before either exists.
    """
    n, count = _check_draw(len(a), count)
    _check_bytes(8 * count * (n * n + math.prod(shape)), "a scan of {} Haar frames at dimension {}", count, n)
    out = np.empty((count, *shape))
    for block, q in haar_blocks(n, count, rng_or_seed):
        out[block] = reduce(column_diagonals(a, q))
    return out


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """One Haar-distributed n x n unitary (phase-fixed QR of a Ginibre matrix)."""
    return haar_unitaries(n, 1, seed)[0]


def kron_all(mats) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over leading (frame) axes.

    Each entry is one product a[i, j] * b[k, l], as in ``np.kron``, so the
    values match it bit for bit.
    """
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        m = np.asarray(m)
        prod = out[..., :, None, :, None] * m[..., None, :, None, :]
        rows, cols = out.shape[-2] * m.shape[-2], out.shape[-1] * m.shape[-1]
        out = prod.reshape(prod.shape[:-4] + (rows, cols))
    return out


def _kron_columns(mats) -> np.ndarray:
    """``kron_all`` of one block of (B, d_k, d_k) factor stacks, in ``column_diagonals``' layout.

    Returns the C-contiguous (N, N, B) block q[k, i, b] = u_b[i, k] of the
    products u_b = m_1[b] (x) ... (x) m_K[b]; for one stack it is the block's
    transposed copy.  Each factor is copied once into its own column layout
    (d_k, d_k, B), and each entry is the product that ``kron_all`` takes, in
    the same factor order; numpy's complex multiply rounds alike for
    contiguous, strided and broadcast operands, so the block holds
    ``kron_all``'s bits with no transposed copy of the product frames.
    """
    q = np.ascontiguousarray(mats[0].T, dtype=complex)
    for m in mats[1:]:
        m = np.ascontiguousarray(m.T)
        prod = q[:, None, :, None] * m[None, :, None, :]
        q = prod.reshape(q.shape[0] * m.shape[0], q.shape[1] * m.shape[1], q.shape[-1])
    return q


def _subsystem_dims(dims, n: int, what: str) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of ints, each at least 1, of the space ``what`` of dimension n.

    The one dims check: a product other than n is refused ("dims ... do not
    multiply to {what} {n}").  Only None and () declare one system, (n,):
    dims=0 or False is refused, not read as "none", and so is any other empty
    sequence ([] or an empty array), which would declare no subsystem at all.
    """
    if dims is None or (isinstance(dims, tuple) and not dims):
        return (n,)
    values = _integers(dims, "dims", 1)
    if not values:
        raise ValueError(f"dims must list at least one subsystem size, got {dims!r}; None or () declare one system")
    if math.prod(values) != n:
        raise ValueError(f"dims {values} do not multiply to {what} {n}")
    return values


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with subsystem dims."""

    mat: np.ndarray
    dims: tuple[int, ...] | None = ()

    def __post_init__(self):
        self.mat = as_matrix(self.mat)
        n = self.mat.shape[0]
        self.dims = _subsystem_dims(self.dims, n, "dimension")
        check("state_hermitian", hermiticity_residual(self.mat), "density matrix is not Hermitian within 1e-12")
        tr = self.mat.trace()
        check("state_trace", max(abs(tr.real - 1.0), abs(tr.imag)), "density matrix trace differs from 1 beyond 1e-12")
        check("state_psd", -np.linalg.eigvalsh(self.mat).min(),
              "density matrix has a negative eigenvalue beyond the slack {}", LIMITS["state_psd"])

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return np.linalg.eigvalsh(self.mat)[::-1].copy()

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))


def random_density(n: int, rank: int, seed: int, dims=None) -> DensityMatrix:
    """Random density matrix of the given numerical rank (Ginibre construction)."""
    (n,), (rank,) = _integers((n,), "n"), _integers((rank,), "rank")
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in 1..{n}, got {rank}")
    _check_bytes(16 * n * n, "the random density matrix of dimension {}", n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, dims)


def _resolve_keep(dims: tuple[int, ...], keep) -> tuple[int, ...]:
    """The distinct subsystem indices of ``keep`` (one index or several), sorted, each in range."""
    indices = keep if isinstance(keep, Iterable) else (keep,)
    keep = tuple(sorted(set(_integers(indices, "subsystem indices"))))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"subsystem index out of range for dims {dims}")
    return keep


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``."""
    dims = rho.dims
    keep = _resolve_keep(dims, keep)
    n_sub = len(dims)
    tensor = rho.mat.reshape(dims + dims)
    bra = list(range(n_sub))
    ket = [k if k not in keep else n_sub + k for k in range(n_sub)]
    out = [k for k in keep] + [n_sub + k for k in keep]
    reduced = np.einsum(tensor, bra + ket, out)
    d_keep = math.prod(dims[k] for k in keep)
    return DensityMatrix(
        reduced.reshape(d_keep, d_keep), tuple(dims[k] for k in keep)
    )


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose on one tensor factor only; the result need not be PSD."""
    dims = rho.dims
    if len(dims) < 2:
        raise ValueError("partial transpose needs at least two declared subsystems")
    (subsystem,) = _resolve_keep(dims, (subsystem,))
    n_sub = len(dims)
    tensor = rho.mat.reshape(dims + dims)
    tensor = np.swapaxes(tensor, subsystem, n_sub + subsystem)
    n = rho.dim
    return tensor.reshape(n, n)
