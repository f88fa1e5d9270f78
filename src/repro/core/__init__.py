"""The direct gravitational N-body library (the paper's application).

Implements the paper's algorithm end to end: O(N^2) pairwise acceleration
and jerk (:mod:`~repro.core.forces`), the 4th-order Hermite
predictor-corrector (:mod:`~repro.core.hermite`), Aarseth timestep control
(:mod:`~repro.core.timestep`), star-cluster initial conditions
(:mod:`~repro.core.initial_conditions`), conserved-quantity diagnostics
(:mod:`~repro.core.energy`), the paper's accuracy gates
(:mod:`~repro.core.validation`), a backend-agnostic simulation driver
(:mod:`~repro.core.simulation`) over the force-backend protocol
(:mod:`~repro.core.protocol`) that the CPU-reference and Wormhole
backends plug into, and the one registry (:mod:`~repro.core.registry`)
that names backends, integrators and scenarios.
"""

from .analysis import (
    ClusterReport,
    cluster_report,
    core_radius,
    density_center,
    half_mass_relaxation_time,
    lagrangian_radii,
    velocity_dispersion,
)
from .block_hermite import BlockHermiteIntegrator, BlockStats
from .energy import EnergyReport, energy_report, kinetic_energy
from .forces import (
    accel_jerk_on_targets,
    accel_jerk_reference,
    accel_reference,
    potential_reference,
)
from .hermite import HermiteStepResult, correct, hermite_step, predict
from .integrators import (
    INTEGRATORS,
    Integrator,
    IntegratorSpec,
    make_integrator,
)
from .leapfrog import LeapfrogDriver, leapfrog_step
from .initial_conditions import (
    binary,
    cluster_collision,
    cluster_with_binary,
    hernquist,
    plummer,
    uniform_sphere,
)
from .orbit import (
    OrbitalElements,
    binary_elements,
    elements_from_state,
    hardness_ratio,
    orbital_period,
)
from .particles import ParticleSystem
from .profiles import HernquistProfile, PlummerProfile, UniformSphereProfile
from .protocol import (
    TargetedForceBackend,
    TracedForceBackend,
    accepts_trace,
    compute_on_targets,
    normalize_targets,
    supports_targets,
)
from .registry import OptionSpec, Registry, Spec
from .scenarios import SCENARIOS, ScenarioSpec, make_scenario
from .simulation import (
    CycleRecord,
    Driver,
    ForceBackend,
    ForceEvaluation,
    HermiteIntegrator,
    HostCostModel,
    ReferenceBackend,
    Simulation,
    SimulationResult,
    TimelineSegment,
)
from .snapshots import load_csv, load_npz, save_csv, save_npz
from .timestep import (
    SharedTimestep,
    aarseth_timestep,
    initial_timestep,
    quantize_block_timestep,
)
from .units import G_NBODY, HENON_CROSSING_TIME, UnitSystem
from .validation import (
    ACC_TOLERANCE,
    JERK_TOLERANCE,
    ValidationReport,
    compare_to_reference,
    validate_forces,
)

__all__ = [
    "ClusterReport",
    "cluster_report",
    "core_radius",
    "density_center",
    "half_mass_relaxation_time",
    "lagrangian_radii",
    "velocity_dispersion",
    "BlockHermiteIntegrator",
    "BlockStats",
    "accel_jerk_on_targets",
    "LeapfrogDriver",
    "leapfrog_step",
    "cluster_collision",
    "OrbitalElements",
    "binary_elements",
    "elements_from_state",
    "hardness_ratio",
    "orbital_period",
    "HernquistProfile",
    "PlummerProfile",
    "UniformSphereProfile",
    "EnergyReport",
    "energy_report",
    "kinetic_energy",
    "accel_jerk_reference",
    "accel_reference",
    "potential_reference",
    "HermiteStepResult",
    "correct",
    "hermite_step",
    "predict",
    "INTEGRATORS",
    "Integrator",
    "IntegratorSpec",
    "make_integrator",
    "TargetedForceBackend",
    "TracedForceBackend",
    "accepts_trace",
    "compute_on_targets",
    "normalize_targets",
    "supports_targets",
    "OptionSpec",
    "Registry",
    "Spec",
    "SCENARIOS",
    "ScenarioSpec",
    "make_scenario",
    "binary",
    "cluster_with_binary",
    "hernquist",
    "plummer",
    "uniform_sphere",
    "ParticleSystem",
    "CycleRecord",
    "Driver",
    "ForceBackend",
    "ForceEvaluation",
    "HermiteIntegrator",
    "HostCostModel",
    "ReferenceBackend",
    "Simulation",
    "SimulationResult",
    "TimelineSegment",
    "load_csv",
    "load_npz",
    "save_csv",
    "save_npz",
    "SharedTimestep",
    "aarseth_timestep",
    "initial_timestep",
    "quantize_block_timestep",
    "G_NBODY",
    "HENON_CROSSING_TIME",
    "UnitSystem",
    "ACC_TOLERANCE",
    "JERK_TOLERANCE",
    "ValidationReport",
    "compare_to_reference",
    "validate_forces",
]
