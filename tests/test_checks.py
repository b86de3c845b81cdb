"""The invariant suite: batched probes keep the verdicts and worst defects of the per-probe loops they replaced."""

import numpy as np
import pytest

from zenogate import checks
from zenogate.checks import run_checks
from zenogate.errors import DegenerateBasis, ValidationError

# (passed, worst) of every check, as the per-probe loops computed them.
PINNED = {
    (100, 2024): {
        "expm_hermitian unitarity (imaginary scale)": (True, 4.9082029670930466e-15),
        "eigendecomposition round trip": (True, 3.6339737423287256e-15),
        "projector_from_basis invariants": (True, 2.6645352591003757e-15),
        "spectral_norm submultiplicativity": (True, -0.10315272516581953),
        "three-level energies {0, 2r} with ranks {2, 1}": (True, 7.105427357601002e-15),
        "tracked frame intertwining": (True, 9.564839405865765e-16),
        "winding number reparameterization invariance": (True, 0.0),
        "three-level eigenvector equations": (True, 3.552713678800501e-15),
        "analytic frame unitarity and W(0) = 1": (True, 3.443358261012477e-16),
    },
    (8, 7): {
        "expm_hermitian unitarity (imaginary scale)": (True, 4.913581412237232e-15),
        "eigendecomposition round trip": (True, 1.606843450426855e-15),
        "projector_from_basis invariants": (True, 8.881784197001252e-16),
        "spectral_norm submultiplicativity": (True, -2.2135856348123184),
        "three-level energies {0, 2r} with ranks {2, 1}": (True, 3.552713678800501e-15),
        "tracked frame intertwining": (True, 1.0100342756093073e-15),
        "winding number reparameterization invariance": (True, 0.0),
        "three-level eigenvector equations": (True, 1.7763568394002505e-15),
        "analytic frame unitarity and W(0) = 1": (True, 2.452907566938711e-16),
    },
}


@pytest.mark.parametrize("cases, seed", list(PINNED))
def test_same_probes_same_results(cases, seed):
    """Every probe is drawn in the order of the per-probe loops, so names, verdicts and worst defects repeat."""
    results = run_checks(cases, seed)
    assert [r.name for r in results] == list(PINNED[cases, seed])
    for r in results:
        passed, worst = PINNED[cases, seed][r.name]
        assert r.passed == passed, r.name
        assert r.worst == pytest.approx(worst, rel=1e-6, abs=1e-14), r.name


@pytest.mark.parametrize("cases", [0, -1])
def test_no_probes_is_a_validation_error(cases):
    with pytest.raises(ValidationError, match="cases must be at least 1"):
        run_checks(cases)


def test_case_count_is_bounded():
    with pytest.raises(ValidationError, match=f"cases must be at most {checks.MAX_CASES}, got {checks.MAX_CASES + 1}"):
        run_checks(checks.MAX_CASES + 1)


def test_projector_check_skips_only_degenerate_bases(monkeypatch):
    def degenerate(vectors):
        raise DegenerateBasis("dependent")

    monkeypatch.setattr(checks, "projector_from_basis", degenerate)
    assert checks._check_projector_invariants(np.random.default_rng(0), 4).passed

    def broken(vectors):
        raise RuntimeError("kernel crash")

    monkeypatch.setattr(checks, "projector_from_basis", broken)
    with pytest.raises(RuntimeError, match="kernel crash"):
        checks._check_projector_invariants(np.random.default_rng(0), 4)
