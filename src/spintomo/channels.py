"""Kraus channels, superoperator matrices, and tomographic propagators.

Includes the three standard qubit channels (depolarizing, phase damping,
amplitude damping) together with their closed-form unitary-frame tomograms
for the channels' fixed initial states, and the propagator that carries
tomogram samples directly, Pi(x, x') = Tr[U(x) L(D(x'))].  One table maps
each kind to its builder and initial state; ``CHANNEL_KINDS`` lists its
keys, and an unknown kind has one refusal.  Completeness, the rotation axis
and the propagator's imaginary part are checked against ``errors.LIMITS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidChannelError, check
from .halfint import spin
from .linalg import DensityMatrix, _check_bytes, as_matrix, kron_all
from .quadrature import QuadratureGrid
from .states import PAULIS
from .symbols import SpinTransform


@dataclass(eq=False)
class KrausChannel:
    """Completely positive trace-preserving map rho -> sum_s V_s rho V_s^dag."""

    ops: list

    def __post_init__(self):
        self.ops = [as_matrix(v) for v in self.ops]
        if not self.ops:
            raise InvalidChannelError("a channel needs at least one Kraus operator")
        d = self.ops[0].shape[0]
        if any(v.shape != (d, d) for v in self.ops):
            raise InvalidChannelError("Kraus operators must share one dimension")
        defect = sum(v.conj().T @ v for v in self.ops) - np.eye(d)
        check("completeness", np.max(np.abs(defect)), "Kraus operators violate completeness", error=InvalidChannelError)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def compose(self, inner: "KrausChannel") -> "KrausChannel":
        """self after inner: Kraus set {V_a W_b}."""
        if inner.dim != self.dim:
            raise ValueError("channel dimensions differ")
        return KrausChannel([a @ b for a in self.ops for b in inner.ops])


def apply_kraus(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if channel.dim != rho.dim:
        raise ValueError("channel and state dimensions differ")
    out = sum(v @ rho.mat @ v.conj().T for v in channel.ops)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, rho.dims)


def kraus_to_superoperator(channel: KrausChannel) -> np.ndarray:
    """The d^2 x d^2 matrix S = sum_s V_s (x) V_s^*, which maps the row-major
    vec(rho) to vec(L(rho)): ``(S @ rho.reshape(-1)).reshape(d, d)``.

    One ``kron_all`` over the Kraus stack, summed in Kraus order, so every
    entry is bit for bit that of the sum of ``np.kron`` terms.
    """
    ops = np.array(channel.ops)
    return kron_all([ops, ops.conj()]).sum(axis=0)


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """sum_s vec(V_s) vec(V_s)^dag with row-major vec; PSD for any Kraus set."""
    vecs = [v.reshape(-1) for v in channel.ops]
    return sum(np.outer(v, v.conj()) for v in vecs)


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"channel parameter p must lie in [0, 1], got {p}")
    return p


def depolarizing(p: float) -> KrausChannel:
    """(1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)."""
    p = _check_p(p)
    eye = np.eye(2, dtype=complex)
    return KrausChannel(
        [np.sqrt(1.0 - p) * eye] + [np.sqrt(p / 3.0) * s for s in PAULIS]
    )


def phase_damping(p: float) -> KrausChannel:
    p = _check_p(p)
    eye = np.eye(2, dtype=complex)
    k1 = np.sqrt(p) * np.diag([1.0, 0.0]).astype(complex)
    k2 = np.sqrt(p) * np.diag([0.0, 1.0]).astype(complex)
    return KrausChannel([np.sqrt(1.0 - p) * eye, k1, k2])


def amplitude_damping(p: float) -> KrausChannel:
    p = _check_p(p)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel([k0, k1])


# each kind's builder and the fixed initial state its closed-form tomogram refers to
_KINDS = {
    "depolarizing": (depolarizing, np.diag([1.0, 0.0])),
    "phase_damping": (phase_damping, 0.5 * np.ones((2, 2))),
    "amplitude_damping": (amplitude_damping, np.diag([0.0, 1.0])),
}
CHANNEL_KINDS = tuple(_KINDS)


def _kind(kind: str) -> tuple:
    """The builder and initial state of a channel kind; the one refusal of an unknown kind."""
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}; choose from {CHANNEL_KINDS}")
    return _KINDS[kind]


def build_channel(kind: str, p: float) -> KrausChannel:
    return _kind(kind)[0](p)


def channel_initial_state(kind: str) -> DensityMatrix:
    """The fixed input state each closed-form tomogram refers to."""
    return DensityMatrix(_kind(kind)[1].astype(complex))


def _check_rotation(theta: float, n) -> np.ndarray:
    """The axis ``n`` as an array, once theta is finite and n a unit 3-vector (NaN refused)."""
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle theta must be a finite number, got {theta}")
    n = np.asarray(n, dtype=float)
    check("unit_axis", abs(np.linalg.norm(n) - 1.0) if n.shape == (3,) else np.inf, "n must be a unit 3-vector")
    return n


def channel_frame(theta: float, n) -> np.ndarray:
    """u = cos(theta/2) - i (sigma . n) sin(theta/2) for a unit 3-vector n."""
    n = _check_rotation(theta, n)
    sigma_n = sum(ni * si for ni, si in zip(n, PAULIS))
    return np.cos(theta / 2.0) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2.0) * sigma_n


def channel_tomogram_closed_form(kind: str, p: float, theta: float, n) -> tuple[float, float]:
    """Closed-form (w_plus, w_minus) of the channel output in the frame u(theta, n).

    Each channel acts on its fixed initial state (see channel_initial_state);
    w_plus + w_minus = 1 holds exactly by construction.
    """
    _kind(kind)
    p = _check_p(p)
    n = _check_rotation(theta, n)
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    n1, n2, n3 = n
    if kind == "depolarizing":
        w_plus = 0.5 * (1.0 + (1.0 - 4.0 * p / 3.0) * (c2 + (2.0 * n3**2 - 1.0) * s2))
    elif kind == "phase_damping":
        half = theta / 2.0
        w_plus = 0.5 * (
            1.0
            + 2.0 * (1.0 - p) * np.sin(half) * (n2 * np.cos(half) + n1 * n3 * np.sin(half))
        )
    else:  # amplitude damping
        w_plus = p * c2 + (p * n3**2 + (1.0 - p) * (1.0 - n3**2)) * s2
    return float(w_plus), float(1.0 - w_plus)


def channel_propagator(channel: KrausChannel, j, grid: QuadratureGrid) -> np.ndarray:
    """Matrix carrying input tomogram samples to output tomogram samples.

    Pi[x, x'] = Tr[U(x) L(D(x'))] w(x'), so that Pi @ w_in evaluated on the
    grid labels equals the tomogram of the channel output.  Synthesis, the
    channel and analysis compose through the coordinates of an orthonormal
    Hermitian basis H_k, where all three are real:

        Pi = A^T L (Q^T A) W,  A[k, x] = Tr[U(x) H_k],  L[k, l] = Tr[H_k L(H_l)],

    with A the grid transform's symbols of the basis and Q^T A the basis
    coefficients of the quantizers, Tr[H_k D(x)].  H, A and (Q^T A) W depend
    on the grid only and come cached with its transform
    (``SpinTransform.basis_maps``); each call forms L and the product.

    Pi has (n * nodes)^2 float entries, so one above the byte budget of
    ``errors.LIMITS["bytes"]`` (1 GiB; 2j = 16 takes 0.73 GB on the default grid)
    is refused before anything is built.
    """
    j = spin(j)
    n = j.twice + 1
    if channel.dim != n:
        raise ValueError("channel dimension does not match 2j+1")
    _check_bytes(8.0 * (n * grid.n_nodes) ** 2, "the dense propagator at j = {} on {}", j, grid)
    basis, analysis, synthesis = SpinTransform.on_grid(j, grid).basis_maps()
    vecs = basis.reshape(n * n, -1)
    coupling = vecs.conj() @ kraus_to_superoperator(channel) @ vecs.T
    check("propagator_real", np.abs(coupling.imag).max(), "propagator came out non-real; invalid channel?")
    return analysis.T @ (coupling.real @ synthesis)
