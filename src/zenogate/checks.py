"""Built-in invariant suite behind the `check` CLI subcommand.

Seeded randomized property checks over the linear-algebra kernel and the
spectral model.  Each check reports its worst observed defect against the
declared bound; seeds steer only the probe generation, never any physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, ValidationError
from .linalg import (
    _spectral_norms,
    expm_hermitian_stack,
    hermiticity_defect,
    projector_from_basis,
    random_hermitian,
    random_state,
)
from .spectral import (
    _FRAME_ROTATIONS,
    FramePath,
    ParameterPath,
    _unwrap,
    instantaneous_spectra,
    three_level_eigenbasis,
    three_level_hamiltonian,
    track_levels,
    winding_number,
)

MAX_CASES = 10_000  # one check's probes are held at once, so memory grows with the count


@dataclass
class CheckResult:
    name: str
    passed: bool
    bound: float
    worst: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  {self.name}: worst {self.worst:.3e} (bound {self.bound:.1e})"


def _by_dimension(probes):
    """Probes (tuples led by a square matrix) stacked per dimension: one tuple of arrays per dimension."""
    groups = {}
    for probe in probes:
        groups.setdefault(probe[0].shape[-1], []).append(probe)
    return [tuple(np.array(x) for x in zip(*group)) for group in groups.values()]


def _check_expm_unitarity(rng, cases):
    probes = []
    for _ in range(cases):
        h = random_hermitian(int(rng.integers(2, 9)), rng, scale=float(rng.uniform(0.1, 5.0)))
        probes.append((h, 1j * float(rng.uniform(-4.0, 4.0))))
    worst = 0.0
    for hs, scales in _by_dimension(probes):
        u = expm_hermitian_stack(hs, scales)
        worst = max(worst, float(_spectral_norms(u.conj().swapaxes(-1, -2) @ u - np.eye(hs.shape[-1])).max()))
    return CheckResult("expm_hermitian unitarity (imaginary scale)", worst <= 1e-10, 1e-10, worst)


def _check_eig_round_trip(rng, cases):
    probes = [(random_hermitian(int(rng.integers(2, 9)), rng, scale=float(rng.uniform(0.1, 10.0))),)
              for _ in range(cases)]
    worst = 0.0
    for (hs,) in _by_dimension(probes):
        w, v = np.linalg.eigh(hs)
        rebuilt = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
        worst = max(worst, float((_spectral_norms(hs - rebuilt) / np.maximum(1.0, _spectral_norms(hs))).max()))
    return CheckResult("eigendecomposition round trip", worst <= 1e-9, 1e-9, worst)


def _check_projector_invariants(rng, cases):
    probes = []
    for _ in range(cases):
        dim = int(rng.integers(2, 9))
        count = int(rng.integers(1, dim + 1))
        vectors = [random_state(dim, rng) for _ in range(count)]
        try:
            probes.append((projector_from_basis(vectors), count))
        except DegenerateBasis:
            continue  # random degeneracy: rejection is the contract
    worst = 0.0
    for p, counts in _by_dimension(probes):
        trace = float(np.abs(np.trace(p, axis1=-2, axis2=-1).real - counts).max())
        worst = max(worst, float(_spectral_norms(p @ p - p).max()), hermiticity_defect(p), trace)
    return CheckResult("projector_from_basis invariants", worst <= 1e-8, 1e-8, worst)


def _check_submultiplicative(rng, cases):
    probes = []
    for _ in range(cases):
        dim = int(rng.integers(2, 9))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        probes.append((a, b))
    worst = -np.inf
    for a, b in _by_dimension(probes):
        worst = max(worst, float((_spectral_norms(a @ b) - _spectral_norms(a) * _spectral_norms(b)).max()))
    return CheckResult("spectral_norm submultiplicativity", worst <= 1e-9, 1e-9, worst)


def _check_three_level_spectrum(rng, cases):
    draws = [(float(rng.choice([0.1, 1.0, 10.0])), float(rng.uniform(-np.pi, np.pi))) for _ in range(cases)]
    r, th = np.array(draws).T
    spec = instantaneous_spectra(three_level_hamiltonian(r * np.cos(th), r * np.sin(th)))
    ok = spec.ranks.tolist() == [[2, 1]] * cases
    worst = max(0.0, float(np.abs(spec.energies[:, 0]).max()), float(np.abs(spec.energies[:, 1] - 2 * r).max()))
    return CheckResult("three-level energies {0, 2r} with ranks {2, 1}", ok and worst <= 1e-9, 1e-9, worst)


def _loop_controls(rng, max_step):
    """(s, a, b, turns): a seeded loop of `turns` windings around the origin, sampled at the fractions s."""
    turns = int(rng.choice([-2, -1, 1, 2]))
    steps = max(int(np.ceil(2 * np.pi * abs(turns) / max_step)) + 1, 64)
    s = np.linspace(0.0, 1.0, steps)
    r = 1.0 + 0.3 * np.sin(2 * np.pi * s + float(rng.uniform(0, 2 * np.pi)))
    th = 2 * np.pi * turns * s
    return s, r * np.cos(th), r * np.sin(th), turns


def _random_loop(rng, max_step=0.05):
    s, a, b, turns = _loop_controls(rng, max_step)
    return ParameterPath(times=s, a=a, b=b), turns


def _check_frame_intertwining(rng, cases):
    loops = [_random_loop(rng)[0] for _ in range(cases)]
    spectra = instantaneous_spectra(np.concatenate([three_level_hamiltonian(path.a, path.b) for path in loops]))
    defects, start = [], 0
    for path in loops:
        own = spectra.select(slice(start, start + path.times.size))
        start += path.times.size
        frames, order = track_levels(path.times, own)
        ks = np.arange(0, path.times.size, max(1, path.times.size // 16))
        probes = FramePath(times=path.times[ks], frames=frames.frames[ks], projectors0=frames.projectors0)
        projectors, rows = own.select(ks).projectors(), np.arange(ks.size)
        defects += [probes.projector_path(n) - projectors[rows, order[ks, n]] for n in range(frames.nlevels)]
    worst = float(_spectral_norms(np.concatenate(defects)).max())
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
    r, th = np.array([(float(rng.uniform(0.1, 10.0)), float(rng.uniform(-np.pi, np.pi))) for _ in range(cases)]).T
    h = three_level_hamiltonian(r * np.cos(th), r * np.sin(th))
    e = np.stack(three_level_eigenbasis(th), axis=-1)  # columns E_plus, E_minus, E_zero
    energies = np.stack([2 * r, 0 * r, 0 * r], axis=-1)[:, None, :]
    worst = float(np.abs(h @ e - e * energies).max())
    return CheckResult("three-level eigenvector equations", worst <= 1e-10, 1e-10, worst)


def _check_analytic_frame_unitarity(rng, cases):
    phis = []
    for _ in range(cases):
        s, a, b, _ = _loop_controls(rng, max_step=0.3)
        theta = _unwrap(np.arctan2(b, a))  # the loop's ParameterPath.theta()
        phis.append(theta[int(rng.integers(0, s.size))] - theta[0])
    w = _FRAME_ROTATIONS(np.array(phis + [0.0]))  # the drawn frame of every case, then W(0)
    defects = np.concatenate([w[:-1].conj().swapaxes(-1, -2) @ w[:-1] - np.eye(3), w[-1:] - np.eye(3)])
    worst = float(_spectral_norms(defects).max())
    return CheckResult("analytic frame unitarity and W(0) = 1", worst <= 1e-12, 1e-12, worst)


def run_checks(cases: int = 100, seed: int = 2024):
    """Run every invariant check with `cases` seeded probes each (ValidationError unless 1 <= cases <= MAX_CASES
    and `seed` is a non-negative integer)."""
    if cases < 1:
        raise ValidationError(f"cases must be at least 1, got {cases}")
    if cases > MAX_CASES:
        raise ValidationError(f"cases must be at most {MAX_CASES}, got {cases}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
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
