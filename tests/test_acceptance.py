"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Stated runtime budgets are asserted where a criterion declares one.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from zenogate.checks import run_checks
from zenogate.linalg import expm_hermitian, spectral_norm, trace_distance
from zenogate.runner import run, sweep
from zenogate.scenario import load_scenario, scenario_from_dict
from zenogate.spectral import (
    circle_path,
    frame_path_analytic_three_level,
    frame_path_from_spectra,
    instantaneous_spectra,
    three_level_eigenbasis,
    three_level_generators,
    three_level_hamiltonian,
)
from zenogate.zeno import (
    nonselective_step,
    nonselective_zeno_evolution,
    projected_evolution,
    unwrap_angle,
    wagon_wheel_frames,
    zeno_hamiltonian,
    zeno_unitary,
)
from zenogate.adiabatic import adiabatic_generator

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ROOT_ANGLE = np.sqrt(2.0) * np.pi


def report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def zeno_scenario(windings, n=2**14, center=(0.0, 0.0), radius=1.0, alpha=None):
    data = {
        "engine": "zeno",
        "path": {
            "type": "circle",
            "center": list(center),
            "radius": radius,
            "windings": windings,
            "duration": 1.0,
        },
        "N": n,
        "initial_state": {"name": "E_minus"},
    }
    if alpha is not None:
        data["control"] = {"mode": "alpha_frame", "alpha": float(alpha)}
    return scenario_from_dict(data)


def test_criterion_1_topological_zeno_gate():
    cases = [
        (zeno_scenario(1), 1 * ROOT_ANGLE, 1e-3, "winding +1"),
        (zeno_scenario(2), 2 * ROOT_ANGLE, 2e-3, "winding +2"),
        (zeno_scenario(0, center=(3.0, 0.0)), 0.0, 1e-3, "no winding"),
    ]
    worst = 0.0
    for scenario, expected, tol, label in cases:
        start = time.perf_counter()
        rec = run(scenario)
        elapsed = time.perf_counter() - start
        assert elapsed <= 30.0, f"{label}: runtime {elapsed:.1f}s exceeds 30s"
        err = abs(unwrap_angle(rec.phi_principal, expected) - expected)
        assert err <= tol, f"{label}: angle error {err:.2e} > {tol}"
        worst = max(worst, err)
    report(1, "topological zeno gate", True, f"worst angle error {worst:.2e} rad at N=2^14")


def test_criterion_2_alpha_tuned_gate():
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0):
        rec = run(zeno_scenario(1, alpha=alpha))
        expected = (1.0 - alpha) * ROOT_ANGLE
        err = abs(unwrap_angle(rec.phi_principal, expected) - expected)
        assert err <= 1e-3, f"alpha={alpha}: angle error {err:.2e} > 1e-3"
        worst = max(worst, err)
    report(2, "alpha-tuned gate", True, f"worst angle error {worst:.2e} over alpha in {{0.25, 0.5, 1}}")


def test_criterion_3_zeno_convergence_rate():
    start = time.perf_counter()
    summary = sweep(zeno_scenario(1), "N", [2**k for k in range(8, 16)])
    elapsed = time.perf_counter() - start
    s_dist = summary.slopes["distance"]
    s_pn = summary.slopes["survival_deficit"]
    ok = abs(s_dist + 1.0) <= 0.15 and abs(s_pn + 1.0) <= 0.15 and elapsed <= 120.0
    report(
        3,
        "zeno convergence rate",
        ok,
        f"operator slope {s_dist:.3f}, survival-deficit slope {s_pn:.3f}, {elapsed:.0f}s",
    )


def test_criterion_4_adiabatic_zeno_agreement():
    # durations pinned at a fixed phase of the oscillatory leakage factor,
    # spanning one decade with |dtheta/dt| / r <= 0.01 throughout
    turns = [100, 141, 200, 283, 400, 566, 800, 1000]
    durations = [2 * np.pi * (n + 0.25) for n in turns]
    records = []
    for t_final in durations:
        scenario = scenario_from_dict(
            {
                "engine": "adiabatic",
                "path": {"type": "circle", "windings": 1, "duration": t_final, "samples": 2049},
                "steps": int(t_final / 0.02),
                "initial_state": {"name": "E_minus"},
            }
        )
        records.append(run(scenario))
    rates = 2 * np.pi / np.array(durations)
    assert rates.max() <= 0.01 + 1e-12
    qs = np.array([r.q_n for r in records])
    slope = float(np.polyfit(np.log(1.0 / np.array(durations)), np.log(qs), 1)[0])
    fid = records[-1].fidelity  # slowest drive
    ok = fid >= 0.999 and abs(slope - 2.0) <= 0.2
    report(
        4,
        "adiabatic-zeno agreement",
        ok,
        f"gate fidelity {fid:.6f} at T={durations[-1]:.0f}, escape slope {slope:.3f} vs 1/T",
    )


def test_criterion_5_spectral_identity():
    duration = 2.0
    path = circle_path(windings=1, samples=513, duration=duration)
    omega = 2 * np.pi / duration

    def h_drive(t):
        return three_level_hamiltonian(np.cos(omega * t), np.sin(omega * t))

    analytic = frame_path_analytic_three_level(path)
    tracked = frame_path_from_spectra(path.times, instantaneous_spectra(three_level_hamiltonian(path.a, path.b)))
    worst = 0.0
    for frames in (analytic, tracked):
        for level, energy in ((0, 0.0), (1, 2.0)):
            hz = zeno_hamiltonian(h_drive, frames, level)
            hg = adiabatic_generator(frames, level)
            p0 = frames.projectors0[level]
            for k in range(hz.times.size):
                defect = spectral_norm(hz.operators[k] - (energy * p0 + hg.operators[k]))
                worst = max(worst, defect)
    report(5, "spectral identity", worst <= 1e-8, f"worst per-sample defect {worst:.2e}")


def test_criterion_6_wagon_wheel_time_reversal():
    gens = three_level_generators(0.0)
    h0m = gens.frame_generator
    duration = np.pi
    from zenogate.spectral import three_level_projectors

    projs = three_level_projectors(0.0)
    p0 = projs[0]
    reversed_gate = expm_hermitian(p0 @ h0m @ p0, 1j * duration)
    _, em, _ = three_level_eigenbasis(0.0)
    ns = [2**k for k in range(8, 14)]
    dists = []
    for n in ns:
        times = np.linspace(0.0, duration, n + 1)
        frames = wagon_wheel_frames(h0m, times, projs)
        zr = projected_evolution(lambda t: h0m, frames, 0, n, em)
        gate = frames.frames[-1].conj().T @ zr.final_operator
        dists.append(spectral_norm(gate - reversed_gate @ p0))
    slope = float(np.polyfit(np.log(ns), np.log(dists), 1)[0])
    ok = abs(slope + 1.0) <= 0.15
    report(6, "wagon-wheel time reversal", ok, f"error slope {slope:.3f}, dist {dists[-1]:.2e} at N={ns[-1]}")


def test_criterion_7_dissipative_zeno_gate():
    scenario = load_scenario(SCENARIOS / "dissipative_gate.yaml")
    start = time.perf_counter()
    summary = sweep(scenario, "gamma", [10.0, 100.0, 1000.0, 10000.0])
    elapsed = time.perf_counter() - start
    dists = [r.distance for r in summary.records]
    drifts = [r.trace_drift for r in summary.records]
    slope = summary.slopes["distance"]
    ok = (
        all(a > b for a, b in zip(dists, dists[1:]))
        and abs(slope + 1.0) <= 0.3
        and dists[-1] <= 5e-3
        and max(drifts) <= 1e-9
        and elapsed <= 300.0
    )
    report(
        7,
        "dissipative zeno gate",
        ok,
        f"slope {slope:.3f}, dist {dists[-1]:.2e} at gammaT=1e4, drift {max(drifts):.1e}, {elapsed:.0f}s",
    )


def test_criterion_8_dephasing_of_superpositions():
    n = 2**12
    path = circle_path(windings=1, samples=n + 1, duration=1.0)
    frames = frame_path_analytic_three_level(path)
    ep, em, ez = three_level_eigenbasis(0.0)
    psi = (ep + em + ez) / np.sqrt(3.0)  # populates both subspaces
    rho0 = np.outer(psi, psi.conj())
    out = nonselective_zeno_evolution(None, frames, n, rho0)
    p0 = frames.projectors0[0]
    p1 = frames.projectors0[1]
    off = spectral_norm(p0 @ out @ p1)
    uz = zeno_unitary(zeno_hamiltonian(None, frames, 1)) @ zeno_unitary(
        zeno_hamiltonian(None, frames, 0)
    )
    wt = frames.frames[-1]
    pred = wt @ uz @ nonselective_step(rho0, frames.projectors0) @ uz.conj().T @ wt.conj().T
    diag_dist = trace_distance(p0 @ out @ p0 + p1 @ out @ p1, p0 @ pred @ p0 + p1 @ pred @ p1)
    ok = off <= 1e-3 and diag_dist <= 1e-3
    report(
        8,
        "dephasing of superpositions",
        ok,
        f"off-block norm {off:.2e}, diagonal-block trace distance {diag_dist:.2e} at N=2^12",
    )


def test_criterion_9_kernel_property_suite():
    start = time.perf_counter()
    results = run_checks(cases=100, seed=2024)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed <= 10.0
    report(
        9,
        "kernel property suite",
        ok,
        f"{len(results) - len(failed)}/{len(results)} checks over >=100 seeded cases, {elapsed:.1f}s",
    )
