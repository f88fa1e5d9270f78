"""repro: reproduction of "Accelerating Gravitational N-Body Simulations
Using the RISC-V-Based Tenstorrent Wormhole" (SC 2025).

The package provides four layers (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the direct N-body library: O(N^2) acceleration+jerk,
  4th-order Hermite integration, Aarseth timesteps, star-cluster initial
  conditions, energy diagnostics, and the paper's accuracy gates.
* :mod:`repro.wormhole` / :mod:`repro.metalium` — a functional +
  performance-model simulator of the Wormhole n300 card and a
  TT-Metalium-style host API over it (the substitution for the hardware
  the paper runs on).
* :mod:`repro.nbody_tt` / :mod:`repro.cpuref` — the two competitors: the
  ported device backend (read/compute/write kernels over circular buffers)
  and the mixed-precision MPI+OpenMP+AVX-512 CPU reference model.
* :mod:`repro.backends` — the backend layer: the registry
  (``BACKENDS``/``make_backend``), the declarative :class:`RunSpec`, and
  the multi-card :class:`ShardedTTBackend` composite.
* :mod:`repro.telemetry` — the measurement campaign: tt-smi/RAPL/IPMI
  simulacra, 1 Hz sampling, csv persistence, energy integration, and the
  reset/sleep/simulate/sleep job workflow.
* :mod:`repro.observability` — "Scope", the unified tracing & metrics
  layer: one :class:`Trace` threads through all of the above and exports
  to Chrome/Perfetto ``trace.json`` (see docs/OBSERVABILITY.md).

Quickstart::

    from repro import plummer, Simulation, ReferenceBackend

    system = plummer(1024, seed=1)
    sim = Simulation(system, ReferenceBackend(), dt=1e-3)
    result = sim.run(10)
"""

from .backends import (
    BACKENDS,
    BackendSpec,
    RunSpec,
    ShardedTTBackend,
    make_backend,
)
from .config import (
    PAPER_N_CYCLES,
    PAPER_N_PARTICLES,
    paper_scale_enabled,
)
from .core import (
    ACC_TOLERANCE,
    G_NBODY,
    JERK_TOLERANCE,
    EnergyReport,
    ForceEvaluation,
    HostCostModel,
    ParticleSystem,
    ReferenceBackend,
    SharedTimestep,
    Simulation,
    SimulationResult,
    TimelineSegment,
    ValidationReport,
    accel_jerk_reference,
    binary,
    cluster_with_binary,
    compare_to_reference,
    energy_report,
    hernquist,
    plummer,
    uniform_sphere,
    validate_forces,
)
from .cpuref import CPUForceBackend, OpenMPModel
from .errors import ReproError
from .nbody_tt import DeviceTimeModel, TTForceBackend
from .observability import (
    MetricsRegistry,
    Trace,
    format_flamegraph,
    trace_from_env,
    write_chrome_trace,
)
from .simclock import Stopwatch, VirtualClock
from .telemetry import Campaign, CampaignSummary, JobSpec
from .wormhole import DataFormat, WormholeDevice

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "BackendSpec",
    "RunSpec",
    "ShardedTTBackend",
    "make_backend",
    "PAPER_N_CYCLES",
    "PAPER_N_PARTICLES",
    "paper_scale_enabled",
    "ACC_TOLERANCE",
    "G_NBODY",
    "JERK_TOLERANCE",
    "EnergyReport",
    "ForceEvaluation",
    "HostCostModel",
    "ParticleSystem",
    "ReferenceBackend",
    "SharedTimestep",
    "Simulation",
    "SimulationResult",
    "TimelineSegment",
    "ValidationReport",
    "accel_jerk_reference",
    "binary",
    "cluster_with_binary",
    "compare_to_reference",
    "energy_report",
    "hernquist",
    "plummer",
    "uniform_sphere",
    "validate_forces",
    "CPUForceBackend",
    "OpenMPModel",
    "ReproError",
    "DeviceTimeModel",
    "TTForceBackend",
    "MetricsRegistry",
    "Trace",
    "format_flamegraph",
    "trace_from_env",
    "write_chrome_trace",
    "Stopwatch",
    "VirtualClock",
    "Campaign",
    "CampaignSummary",
    "JobSpec",
    "DataFormat",
    "WormholeDevice",
    "__version__",
]
