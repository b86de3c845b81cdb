"""Built-in invariant suite behind the `check` CLI subcommand.

Seeded randomized property checks over the linear-algebra kernel and the
spectral model.  Each check reports its worst observed defect against the
declared bound; seeds steer only the probe generation, never any physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    expm_hermitian,
    hermitian_eigendecomposition,
    projector_from_basis,
    random_hermitian,
    random_state,
    spectral_norm,
)
from .spectral import (
    ParameterPath,
    frame_path_analytic_three_level,
    instantaneous_spectra,
    instantaneous_spectrum,
    three_level_eigenbasis,
    three_level_hamiltonian,
    track_levels,
    winding_number,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    bound: float
    worst: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}: worst {self.worst:.3e} (bound {self.bound:.1e})"


def _check_expm_unitarity(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(dim, rng, scale=float(rng.uniform(0.1, 5.0)))
        u = expm_hermitian(h, 1j * float(rng.uniform(-4.0, 4.0)))
        worst = max(worst, spectral_norm(u.conj().T @ u - np.eye(dim)))
    return CheckResult("expm_hermitian unitarity (imaginary scale)", worst <= 1e-10, 1e-10, worst)


def _check_eig_round_trip(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(dim, rng, scale=float(rng.uniform(0.1, 10.0)))
        pairs = hermitian_eigendecomposition(h)
        rebuilt = sum(lam * np.outer(v, v.conj()) for lam, v in pairs)
        scale = max(1.0, spectral_norm(h))
        worst = max(worst, spectral_norm(h - rebuilt) / scale)
    return CheckResult("eigendecomposition round trip", worst <= 1e-9, 1e-9, worst)


def _check_projector_invariants(rng, cases):
    worst = 0.0
    for _ in range(cases):
        dim = int(rng.integers(2, 9))
        count = int(rng.integers(1, dim + 1))
        vectors = [random_state(dim, rng) for _ in range(count)]
        try:
            p = projector_from_basis(vectors)
        except Exception:
            continue  # random degeneracy: rejection is the contract
        d = p.defects()
        worst = max(worst, d["idempotency"], d["hermiticity"], d["trace"])
    return CheckResult("projector_from_basis invariants", worst <= 1e-8, 1e-8, worst)


def _check_submultiplicative(rng, cases):
    worst = -np.inf
    for _ in range(cases):
        dim = int(rng.integers(2, 9))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        excess = spectral_norm(a @ b) - spectral_norm(a) * spectral_norm(b)
        worst = max(worst, excess)
    return CheckResult("spectral_norm submultiplicativity", worst <= 1e-9, 1e-9, worst)


def _check_three_level_spectrum(rng, cases):
    worst = 0.0
    ok = True
    for _ in range(cases):
        r = float(rng.choice([0.1, 1.0, 10.0]))
        th = float(rng.uniform(-np.pi, np.pi))
        spec = instantaneous_spectrum(three_level_hamiltonian(r * np.cos(th), r * np.sin(th)))
        ok = ok and spec.ranks[0].tolist() == [2, 1]
        energies = spec.energies[0].tolist()
        worst = max(worst, abs(energies[0]), abs(energies[1] - 2 * r))
    return CheckResult("three-level energies {0, 2r} with ranks {2, 1}", ok and worst <= 1e-9, 1e-9, worst)


def _random_loop(rng, max_step=0.05):
    turns = int(rng.choice([-2, -1, 1, 2]))
    steps = max(int(np.ceil(2 * np.pi * abs(turns) / max_step)) + 1, 64)
    s = np.linspace(0.0, 1.0, steps)
    r = 1.0 + 0.3 * np.sin(2 * np.pi * s + float(rng.uniform(0, 2 * np.pi)))
    th = 2 * np.pi * turns * s
    return ParameterPath(times=s, a=r * np.cos(th), b=r * np.sin(th)), turns


def _check_frame_intertwining(rng, cases):
    worst = 0.0
    for _ in range(cases):
        path, _ = _random_loop(rng)
        spectra = instantaneous_spectra(three_level_hamiltonian(path.a, path.b))
        frames, order = track_levels(path.times, spectra)
        projectors = spectra.projectors()
        for n in range(frames.nlevels):
            transported = frames.projector_path(n)
            for k in range(0, frames.times.size, max(1, frames.times.size // 16)):
                worst = max(worst, spectral_norm(transported[k] - projectors[k, order[k, n]]))
    return CheckResult("tracked frame intertwining", worst <= 1e-8, 1e-8, worst)


def _check_winding_reparameterization(rng, cases):
    ok = True
    for _ in range(cases):
        path, turns = _random_loop(rng, max_step=0.2)
        w0 = winding_number(path)
        dense = int(rng.integers(2, 5))
        s = np.linspace(0.0, 1.0, dense * (path.times.size - 1) + 1)
        a = np.interp(s, path.times, path.a)
        b = np.interp(s, path.times, path.b)
        warped = s**2 * (3 - 2 * s)  # smooth monotone reparameterization
        warped[0], warped[-1] = 0.0, 1.0
        resampled = ParameterPath(times=np.maximum.accumulate(warped + np.linspace(0, 1e-9, s.size)), a=a, b=b)
        ok = ok and w0 == turns == winding_number(resampled)
    return CheckResult("winding number reparameterization invariance", ok, 0.0, 0.0 if ok else 1.0)


def _check_eigenbasis_equations(rng, cases):
    worst = 0.0
    for _ in range(cases):
        r = float(rng.uniform(0.1, 10.0))
        th = float(rng.uniform(-np.pi, np.pi))
        h = three_level_hamiltonian(r * np.cos(th), r * np.sin(th))
        ep, em, ez = three_level_eigenbasis(th)
        worst = max(
            worst,
            float(np.abs(h @ ez).max()),
            float(np.abs(h @ em).max()),
            float(np.abs(h @ ep - 2 * r * ep).max()),
        )
    return CheckResult("three-level eigenvector equations", worst <= 1e-10, 1e-10, worst)


def _check_analytic_frame_unitarity(rng, cases):
    worst = 0.0
    for _ in range(cases):
        path, _ = _random_loop(rng, max_step=0.3)
        frames = frame_path_analytic_three_level(path)
        k = int(rng.integers(0, frames.times.size))
        w = frames.frames[k]
        worst = max(worst, spectral_norm(w.conj().T @ w - np.eye(3)))
        worst = max(worst, spectral_norm(frames.frames[0] - np.eye(3)))
    return CheckResult("analytic frame unitarity and W(0) = 1", worst <= 1e-12, 1e-12, worst)


def run_checks(cases: int = 100, seed: int = 2024):
    """Run every invariant check with `cases` seeded probes each."""
    rng = np.random.default_rng(seed)
    heavy = max(8, cases // 8)  # loop-building checks are costlier per case
    return [
        _check_expm_unitarity(rng, cases),
        _check_eig_round_trip(rng, cases),
        _check_projector_invariants(rng, cases),
        _check_submultiplicative(rng, cases),
        _check_three_level_spectrum(rng, cases),
        _check_frame_intertwining(rng, heavy),
        _check_winding_reparameterization(rng, heavy),
        _check_eigenbasis_equations(rng, cases),
        _check_analytic_frame_unitarity(rng, cases),
    ]
