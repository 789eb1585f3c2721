"""Dense complex linear algebra on small matrices.

Hermitian eigendecomposition, Hermitian matrix exponentials, Haar-random
unitaries, random density matrices, partial trace/transpose.  Everything is
64-bit IEEE and sized for desk-scale problems (dimension below ~100).

Randomness uses numpy's PCG64 generator; a fixed seed reproduces the Gaussian
stream bit for bit on any platform.  Haar unitaries orthonormalise that stream
by Gram-Schmidt in elementwise numpy arithmetic, with no LAPACK call.

The two frame kernels, ``haar_unitaries`` and ``frame_diagonals``, walk a
frame stack in fixed blocks of ``_BLOCK`` frames, so their working arrays stay
in cache and their scratch memory does not grow with the number of frames.
Blocking leaves every Haar draw bit-identical to the unblocked sampler, and
``frame_diagonals`` does one BLAS GEMM per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_SLACK = 1e-10
_BLOCK = 512  # frames per block of the frame kernels


def _blocks(count: int) -> list[slice]:
    """Consecutive slices of range(count) of ``_BLOCK`` frames each.

    The remainder joins the last slice, so no slice is shorter than
    ``_BLOCK`` unless ``count`` is.  A one-frame block would change the
    summation path of the sampler's ``einsum`` and ``norm``, and with it the
    last bits of that draw.
    """
    stops = [*range(_BLOCK, count - _BLOCK + 1, _BLOCK), count]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite (NaN or infinite) entries")
    return a


def hermiticity_residual(m) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_residual(u) -> float:
    """max |u^dag u - 1| over the entries, and over every frame of an (F, n, n) stack."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]))))


def frame_diagonals(a, frames) -> np.ndarray:
    """diag(u^dag a u) for every frame u of an (F, n, n) stack, shape (F, n), complex.

    ``a`` is any n x n matrix, Hermitian or not.  Per block of frames, one
    GEMM gives w[b, f, m] = sum_a a[a, b] conj(u_f[a, m]) for all the block's
    columns at once, and diag(u_f^dag a u_f)[m] = sum_b u_f[b, m] w[b, f, m].
    """
    count, n = frames.shape[0], frames.shape[-1]
    at = np.asarray(a, dtype=complex).T
    out = np.empty((count, n), dtype=complex)
    for block in _blocks(count):
        u = frames[block]
        w = at @ u.conj().transpose(1, 0, 2).reshape(n, -1)
        out[block] = np.einsum("fam,afm->fm", u, w.reshape(n, -1, n))
    return out


def hermitian_basis(d: int) -> np.ndarray:
    """Orthogonal basis of the d x d Hermitian matrices, shape (d^2, d, d).

    Order: the d diagonal units |k><k|, then for each pair a < b (row-major)
    |a><b| + |b><a| followed by -i|a><b| + i|b><a|.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    k = np.arange(d)
    basis[k, k, k] = 1.0
    a, b = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(a.size)
    basis[sym, a, b] = basis[sym, b, a] = 1.0
    basis[sym + 1, a, b] = -1.0j
    basis[sym + 1, b, a] = 1.0j
    return basis


def eig_hermitian(m):
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns (w, v) with m = v @ diag(w) @ v^dagger.
    """
    m = as_matrix(m)
    if hermiticity_residual(m) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def expm_hermitian_times(h, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, via eigendecomposition."""
    if not np.isfinite(t):
        raise ValueError(f"evolution time t must be a finite number, got {t}")
    h = as_matrix(h)
    if hermiticity_residual(h) > HERMITICITY_TOL:
        raise ValueError("generator is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def haar_unitaries(n: int, count: int, rng_or_seed) -> np.ndarray:
    """Batch of Haar unitaries, shape (count, n, n), C-contiguous.

    The Ginibre draw z = (x + i y) / sqrt(2) takes x and then y from the
    generator, each of shape (count, n, n).  Gram-Schmidt then runs block by
    block of draws, with the same arithmetic per draw as the unblocked
    sampler, so every unitary is bit-identical to it.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(rng_or_seed)
    x = rng.standard_normal((count, n, n))
    y = rng.standard_normal((count, n, n))
    out = np.empty((count, n, n), dtype=complex)
    for block in _blocks(count):
        # Gram-Schmidt on the columns gives the Q whose R has a positive
        # diagonal, the phase-fixed QR of the Ginibre draw.  Batch innermost:
        # q[k] is column k of every draw in the block, shape (n, block).
        # Projecting twice keeps the columns orthogonal to working precision.
        q = np.empty((n, n, block.stop - block.start), dtype=complex)
        q.real, q.imag = x[block].T, y[block].T
        q /= np.sqrt(2.0)
        for k in range(n):
            v, done = q[k], q[:k]
            for _ in range(2 if k else 0):
                # coefficients <q_j, v> over the columns j < k, then v -= sum_j q_j <q_j, v>
                coeffs = np.einsum("jib,ib->jb", done, v.conj()).conj()
                v -= np.einsum("jib,jb->ib", done, coeffs)
            v /= np.linalg.norm(v, axis=0)
        out[block] = q.T
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


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with subsystem dims."""

    mat: np.ndarray
    dims: tuple[int, ...] = ()
    psd_slack: float = field(default=PSD_SLACK, repr=False)

    def __post_init__(self):
        self.mat = as_matrix(self.mat)
        n = self.mat.shape[0]
        if not self.dims:
            self.dims = (n,)
        self.dims = tuple(int(d) for d in self.dims)
        if int(np.prod(self.dims)) != n:
            raise ValueError(f"dims {self.dims} do not multiply to dimension {n}")
        if hermiticity_residual(self.mat) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(self.mat).real - 1.0) > 1e-12 or abs(np.trace(self.mat).imag) > 1e-12:
            raise ValueError("density matrix trace differs from 1 beyond 1e-12")
        if not np.min(np.linalg.eigvalsh(self.mat)) >= -self.psd_slack:
            raise ValueError(f"density matrix has a negative eigenvalue beyond the slack {self.psd_slack}")

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
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in 1..{n}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, tuple(dims) if dims else (n,))


def _resolve_keep(dims: tuple[int, ...], keep) -> tuple[int, ...]:
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(k < 0 or k >= len(dims) for k in keep):
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
    d_keep = int(np.prod([dims[k] for k in keep]))
    return DensityMatrix(
        reduced.reshape(d_keep, d_keep), tuple(dims[k] for k in keep)
    )


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose on one tensor factor only; the result need not be PSD."""
    dims = rho.dims
    if len(dims) < 2:
        raise ValueError("partial transpose needs at least two declared subsystems")
    if not 0 <= subsystem < len(dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {dims}")
    n_sub = len(dims)
    tensor = rho.mat.reshape(dims + dims)
    tensor = np.swapaxes(tensor, subsystem, n_sub + subsystem)
    n = rho.dim
    return tensor.reshape(n, n)
