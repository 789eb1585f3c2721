"""In-process workloads: ``spin_symbols`` and ``unitary_frames``.

Each workload draws its inputs from the workload seed with numpy alone and
hands spintomo only those generated arrays.  An op is (tag, work, check):
the harness times ``work`` and then runs ``check`` on its result, untimed.
Inputs come from small pools indexed by the pass number, so every pass runs
the same op kinds on fresh states.  An op's tag names its kind and its
scaling axis (spin j, or state dimension d and frame count F); the traced
report groups layer time by tag.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

POOL = 4


class Op(NamedTuple):
    tag: str
    work: Callable[[], Any]
    check: Callable[[Any], bool]
    refusal: bool = False


class Workload:
    """What the harness drives: ``ops(p)`` gives pass p, ``close()`` ends the run."""

    in_process = True  # False: ops run in child processes
    min_passes = 1

    def ops(self, p: int) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _rng(np, seed: int, *stream: int):
    return np.random.default_rng([seed, *stream])


def _full_rank_state(np, rng, n: int):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return 0.5 * (m + m.conj().T)


def _kraus_ops(np, rng, n: int, k: int = 2):
    """Kraus operators of a random channel: the blocks of a random isometry."""
    z = rng.standard_normal((n * k, n)) + 1j * rng.standard_normal((n * k, n))
    q, _ = np.linalg.qr(z)
    return [q[i * n:(i + 1) * n] for i in range(k)]


def _close(np, a, b, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


class SpinSymbols(Workload):
    """Spin symbol round trips, j cycling through 1/2, 3/2, 3, 5, 8.

    Every op builds fresh grids, as a user session does: tomogram on the
    default grid, inverse transform, tomogram on the star grid, Tr rho^2 by
    star composition, and for j <= 3 a Kraus-channel propagator.
    """

    J_TWICE = (1, 3, 6, 10, 16)
    CHANNEL_MAX_TWICE = 6
    # The tail percentile leaves ten ops beyond it; with at least twelve
    # passes it falls among the j=8 ops rather than between two j values.
    min_passes = 12

    def __init__(self, seed: int):
        import numpy as np
        import spintomo as st

        self.np, self.st = np, st
        self.states = {}
        self.channels = {}
        for jt in self.J_TWICE:
            n = jt + 1
            self.states[jt] = [_full_rank_state(np, _rng(np, seed, 1, jt, k), n) for k in range(POOL)]
            if jt <= self.CHANNEL_MAX_TWICE:
                self.channels[jt] = [
                    st.KrausChannel(_kraus_ops(np, _rng(np, seed, 2, jt, k), n)) for k in range(POOL)
                ]

    def ops(self, p: int) -> list[Op]:
        out = []
        for jt in self.J_TWICE:
            mat = self.states[jt][p % POOL]
            channel = self.channels[jt][p % POOL] if jt in self.channels else None
            tag = f"j={jt / 2:g}"
            out.append(Op(tag, self._work(jt, mat, channel), self._check))
        return out

    def _work(self, jt, mat, channel):
        st = self.st

        def work():
            j = st.HalfInt(jt)
            rho = st.DensityMatrix(mat)
            grid = st.make_grid(j)
            w = st.spin_tomogram(rho, st.grid_frames(j, grid))
            a = st.reconstruct_operator(w, j, grid)
            sgrid = st.star_grid(j)
            ws = st.spin_tomogram(rho, st.grid_frames(j, sgrid))
            purity = st.trace_power(ws, 2, sgrid)
            pi = st.channel_propagator(channel, j, grid) if channel is not None else None
            return dict(j=j, mat=mat, rho=rho, grid=grid, w=w, a=a, purity=purity, channel=channel, pi=pi)

        return work

    def _check(self, r) -> bool:
        np, st = self.np, self.st
        mat = r["mat"]
        ok = _close(np, r["a"], mat, 1e-10)
        ok &= abs(r["purity"] - np.trace(mat @ mat).real) <= 1e-10
        if r["channel"] is not None:
            out = st.apply_kraus(r["channel"], r["rho"])
            w_out = st.spin_tomogram(out, st.grid_frames(r["j"], r["grid"])).table.reshape(-1)
            ok &= _close(np, r["pi"] @ r["w"].table.reshape(-1).real, w_out.real, 1e-10)
        return bool(ok)


class UnitaryFrames(Workload):
    """Unitary-frame tomography on 2x2 and 2x2x2 states.

    Per state: least-squares reconstruction from 100 and 1000 Haar frames,
    simplex images on the full and the product group (1e4 points each, with
    the image-dimension report), a Peres scan and the entropy minimum over
    1e4 frames, and frame-shift evolution of a 100-frame tomogram.
    """

    DIMS = ((2, 2), (2, 2, 2))
    SAMPLES = 10_000
    # The two heaviest kinds (1000-frame reconstruction and the product image
    # of the 8-dim state) give two ops per pass; with eight passes the tail
    # (the 11th-largest op) sits inside that group rather than at its edge.
    min_passes = 8

    def __init__(self, seed: int):
        import numpy as np
        import spintomo as st

        self.np, self.st = np, st
        self.seed = seed
        self.states = {}
        self.hamiltonians = {}
        for i, dims in enumerate(self.DIMS):
            n = int(np.prod(dims))
            self.states[dims] = [_full_rank_state(np, _rng(np, seed, 3, i, k), n) for k in range(POOL)]
            hs = []
            for k in range(POOL):
                g = _rng(np, seed, 4, i, k).standard_normal((n, n))
                hs.append(0.5 * (g + g.T))
            self.hamiltonians[dims] = hs

    def ops(self, p: int) -> list[Op]:
        np, st = self.np, self.st
        out = []
        for i, dims in enumerate(self.DIMS):
            mat = self.states[dims][p % POOL]
            h = self.hamiltonians[dims][p % POOL]
            n = mat.shape[0]
            # seeds the program's own samplers; distinct per pass and kind
            seeds = _rng(np, self.seed, 5, i, p).integers(0, 2**31, size=8)
            full = st.GroupSpec("full")
            product = st.GroupSpec("product", dims)
            out += [
                Op(f"recon,d={n},F=100", self._recon(mat, dims, 100, int(seeds[0])), self._check_recon),
                Op(f"recon,d={n},F=1000", self._recon(mat, dims, 1000, int(seeds[1])), self._check_recon),
                Op(f"image_full,d={n},F=10000", self._image(mat, dims, full, int(seeds[2])), self._check_image),
                Op(f"image_product,d={n},F=10000", self._image(mat, dims, product, int(seeds[3])), self._check_image),
                Op(f"peres,d={n},F=10000", self._peres(mat, dims, int(seeds[4])), self._check_peres),
                Op(f"entropy,d={n},F=10000", self._entropy(mat, dims, int(seeds[5])), self._check_entropy),
                Op(f"evolve,d={n},F=100", self._evolve(mat, dims, h, int(seeds[6])), self._check_evolve),
            ]
        return out

    def _recon(self, mat, dims, n_frames, seed):
        st = self.st

        def work():
            rho = st.DensityMatrix(mat, dims)
            frames = st.haar_unitaries(rho.dim, n_frames, seed)
            t = st.unitary_tomogram(rho, frames)
            est = st.reconstruct_from_unitary_frame(t)
            return mat, est, st.reconstruction_residual(t, est)

        return work

    def _check_recon(self, r) -> bool:
        mat, est, residual = r
        return residual <= 1e-10 and _close(self.np, est.mat, mat, 1e-9)

    def _image(self, mat, dims, group, seed):
        st = self.st

        def work():
            rho = st.DensityMatrix(mat, dims)
            sample = st.image_sample(rho, group, self.SAMPLES, seed)
            report = st.image_dimension_report(rho, group, seed=seed)
            return mat.shape[0], group.kind, sample, report

        return work

    def _check_image(self, r) -> bool:
        np = self.np
        n, kind, sample, report = r
        pts = sample.points
        ok = pts.shape == (self.SAMPLES, n) and pts.min() >= -1e-10
        ok &= _close(np, pts.sum(axis=1), 1.0, 1e-10)
        # a generic full-rank state has a nondegenerate spectrum, so the
        # full-group image fills the simplex
        ok &= (report.rank == n - 1) if kind == "full" else (1 <= report.rank <= n - 1)
        return bool(ok)

    def _peres(self, mat, dims, seed):
        st = self.st

        def work():
            return st.peres_scan(st.DensityMatrix(mat, dims), self.SAMPLES, seed)

        return work

    def _check_peres(self, r) -> bool:
        ok = abs(r.eigenbasis_value - r.trace_norm_minus_one) <= 1e-10
        return bool(ok and r.max_violation >= r.eigenbasis_value - 1e-12)

    def _entropy(self, mat, dims, seed):
        st = self.st

        def work():
            return mat, st.min_entropy_over_group(st.DensityMatrix(mat, dims), self.SAMPLES, seed)

        return work

    def _check_entropy(self, r) -> bool:
        np = self.np
        mat, report = r
        eigs = np.clip(np.linalg.eigvalsh(mat), 1e-300, None)
        s_vn = float(-np.sum(eigs * np.log(eigs)))
        ok = len(report.per_frame) == self.SAMPLES
        ok &= report.min_value <= float(np.min(report.per_frame)) + 1e-12
        return bool(ok and abs(report.min_value - s_vn) <= 1e-10)

    def _evolve(self, mat, dims, h, seed):
        st = self.st

        def work():
            rho = st.DensityMatrix(mat, dims)
            frames = st.haar_unitaries(rho.dim, 100, seed)
            t0 = st.unitary_tomogram(rho, frames)
            return mat, h, frames, st.evolve_tomogram(t0, h, 0.7)

        return work

    def _check_evolve(self, r) -> bool:
        np = self.np
        mat, h, frames, evolved = r
        vals, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(-0.7j * vals)) @ vecs.conj().T
        rho_t = u @ mat @ u.conj().T
        pred = np.einsum("kam,ab,kbm->mk", frames.conj(), rho_t, frames).real
        return _close(np, evolved.table.real, pred, 1e-10)


WORKLOADS = {"spin_symbols": SpinSymbols, "unitary_frames": UnitaryFrames}
