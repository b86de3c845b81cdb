"""Holonomic quantum gates three ways.

zenogate reproduces non-Abelian geometric phases with three interchangeable
mechanisms and verifies numerically that they agree:

* slow (adiabatic) driving of a degenerate Hamiltonian family,
* rapid sequences of projective measurements along a moving eigenbasis
  (quantum Zeno dynamics), with bare-Hamiltonian controls the adiabatic
  route cannot express,
* strong engineered dephasing (Lindblad dynamics), which needs no
  measurement readout at all.

The built-in three-level control family realizes a topological gate whose
rotation angle is set only by the winding number of the control loop.
"""

from .adiabatic import (
    GaugeDecomposition,
    PropagatorResult,
    adiabatic_evolve,
    adiabatic_generator,
    escape_probability,
    gauge_decompose,
    propagate_exact,
)
from .dissipative import (
    DissipatorSpec,
    MasterTrajectory,
    dephasing_fixed_point_check,
    integrate_master,
    lindblad_rhs,
    projectors_from_frames,
    rotating_frame,
    zeno_master_reference,
)
from .errors import ZenogateError
from .linalg import (
    expm_hermitian,
    hermitian_eigendecomposition,
    projector_from_basis,
    spectral_norm,
    state_fidelity,
    trace_distance,
    trace_norm,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .spectral import (
    FramePath,
    OperatorPath,
    ParameterPath,
    SpectrumStack,
    ThreeLevelGenerators,
    circle_path,
    frame_path_analytic_three_level,
    frame_path_from_spectra,
    instantaneous_spectra,
    instantaneous_spectrum,
    polyline_path,
    three_level_eigenbasis,
    three_level_generators,
    three_level_hamiltonian,
    three_level_projectors,
    track_levels,
    winding_number,
)
from .runner import ResultRecord, SweepSummary, emit, run, sweep
from .zeno import (
    ControlConfig,
    ZenoRun,
    control_hamiltonian,
    effective_frame,
    holonomy_angle,
    nonselective_step,
    nonselective_zeno_evolution,
    projected_evolution,
    unwrap_angle,
    wagon_wheel_frames,
    zeno_hamiltonian,
    zeno_unitary,
)

__version__ = "0.1.0"
