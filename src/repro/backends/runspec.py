"""RunSpec: one declarative object describing a whole simulation run.

Before this existed, every entry point plumbed its own ad-hoc argument
bundle — ``cli.py`` carried an argparse namespace through each subcommand,
``telemetry/campaign.py`` had :class:`JobSpec`, and each benchmark script
hardcoded its own N/seed/softening — and the trace/lint/sanitize switches
were resolved from environment variables at three different depths of the
stack.  :class:`RunSpec` is the single declarative form: problem size and
integration parameters, the backend :class:`~repro.core.registry.Spec`
to run on, and the observability flags, with a JSON round-trip (campaign
schedules and checkpoints can persist it) and **one** env/CLI resolution
path:

* :meth:`RunSpec.from_cli` builds a spec from the ``repro simulate``
  argparse namespace plus the environment — CLI values win, then
  ``REPRO_TRACE`` / ``REPRO_LINT`` / ``REPRO_SANITIZE`` fill the gaps;
* :meth:`RunSpec.environ_updates` is the inverse: the env-var settings a
  runner must export so the Metalium layer honours the spec's lint and
  sanitize choices.

A spec also names its *integrator* and *scenario*, both
registry-addressable: :meth:`RunSpec.make_system` realises the scenario
for ``(n, seed)`` and :meth:`RunSpec.make_simulation` builds the named
integration scheme over the named backend.  The all-default spellings —
hermite over a Plummer sphere — are omitted from :meth:`canonical_dict`
so pre-existing cached identities survive the fields' introduction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..config import env_flag, env_str
from ..core.integrators import INTEGRATORS, make_integrator
from ..core.protocol import ForceBackend
from ..core.registry import Entry, Spec
from ..core.scenarios import SCENARIOS
from ..errors import ConfigurationError
from .registry import BACKENDS, make_backend

__all__ = ["RunSpec"]

#: CLI argument -> backend option name (identity unless listed here).
#: ``softening`` is deliberately absent: :attr:`RunSpec.softening` is its
#: single carrier, injected by :meth:`RunSpec.make_backend`.
_CLI_OPTION_NAMES = {"cores": "cores", "threads": "threads",
                     "cards": "cards", "format": "fmt",
                     "workers": "workers", "mesh": "mesh",
                     "cutoff": "cutoff"}

#: CLI argument -> integrator option name.  Filtered against the chosen
#: integrator's declared :class:`OptionSpec` table the same way backend
#: flags are: ``--dt-max`` reaches block-hermite but never leapfrog.
_CLI_INTEGRATOR_OPTION_NAMES = {"eta": "eta", "dt_max": "dt_max",
                                "block_levels": "block_levels"}


def _declared_options(args: Any, cli_names: Mapping[str, str],
                      entry: Entry) -> dict[str, Any]:
    """The CLI values ``entry`` declares an option for, by option name."""
    declared = {o.name for o in entry.options}
    options: dict[str, Any] = {}
    for arg_name, option_name in cli_names.items():
        value = getattr(args, arg_name, None)
        if value is not None and option_name in declared:
            options[option_name] = value
    return options


#: The registry-addressed fields, each with the spelling that
#: :meth:`RunSpec.canonical_dict` leaves out when the field resolves to it
#: (``None``: always kept).
_REGISTRY_FIELDS = (
    ("backend", BACKENDS, None),
    ("integrator", INTEGRATORS, "hermite"),
    ("scenario", SCENARIOS, "plummer"),
)


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run."""

    n: int = 2048
    cycles: int = 10
    dt: float = 1e-3
    adaptive: bool = False
    softening: float = 0.0
    seed: int = 0
    #: Force backend, integration scheme and initial conditions: each a
    #: name, a mapping or a :class:`~repro.core.registry.Spec`, normalised
    #: to a ``Spec`` on construction.
    backend: Any = "tt"
    integrator: Any = "hermite"
    scenario: Any = "plummer"
    #: Scope trace output path (``None``: tracing off) — ``REPRO_TRACE``.
    trace_path: str | None = None
    #: pre-dispatch lint mode: off | warn | error — ``REPRO_LINT``.
    lint: str = "off"
    #: checked (sanitized) kernel execution — ``REPRO_SANITIZE``.
    sanitize: bool = False

    def __post_init__(self) -> None:
        for key, _, _ in _REGISTRY_FIELDS:
            object.__setattr__(self, key, Spec.from_dict(getattr(self, key)))
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.cycles < 0:
            raise ConfigurationError(
                f"cycles must be >= 0, got {self.cycles}"
            )
        if self.softening < 0:
            raise ConfigurationError(
                f"softening must be >= 0, got {self.softening}"
            )
        if self.lint not in ("off", "warn", "error"):
            raise ConfigurationError(
                f"lint must be off|warn|error, got {self.lint!r}"
            )

    # -- JSON round-trip ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "cycles": self.cycles,
            "dt": self.dt,
            "adaptive": self.adaptive,
            "softening": self.softening,
            "seed": self.seed,
            "backend": self.backend.to_dict(),
            "integrator": self.integrator.to_dict(),
            "scenario": self.scenario.to_dict(),
            "trace_path": self.trace_path,
            "lint": self.lint,
            "sanitize": self.sanitize,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigurationError(
                f"run spec does not accept key(s) {unknown}"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    # -- canonical identity ------------------------------------------------

    def canonical_dict(self) -> dict[str, Any]:
        """The resolved, alias-free dict that defines this spec's identity.

        Two specs that describe the same run must canonicalise
        identically, however they were written down:

        * the backend name is resolved through the registry, so the
          ``device`` alias and ``tt`` collapse to one name;
        * backend options are resolved against the registered
          :class:`~repro.core.registry.OptionSpec` table — defaults
          filled in and values coerced — so ``{}`` and an explicit
          ``{"cores": 8}`` are the same spec (unknown options raise);
        * ``trace_path`` is excluded: where a host writes its trace says
          nothing about *what* is being computed.

        ``lint``/``sanitize`` stay in: they change how the run executes
        (checked vs unchecked), and a result cache must not serve a
        sanitized request from an unsanitized run.

        The ``integrator``/``scenario`` entries are likewise resolved
        through their registries — defaults filled in, values coerced —
        and then *omitted entirely* when they resolve to the historical
        behaviour (shared-step hermite over a default Plummer sphere), so
        every pre-existing cached identity survives the introduction of
        the two fields.
        """
        data = self.to_dict()
        del data["trace_path"]
        for key, registry, default in _REGISTRY_FIELDS:
            entry, options = registry.resolve(getattr(self, key))
            if default is not None and \
                    (entry, options) == registry.resolve(default):
                del data[key]
            else:
                data[key] = {"name": entry.name, "options": options}
        return data

    def canonical_hash(self) -> str:
        """Stable sha256 over the canonical JSON form of this spec.

        The JSON serialisation is fully canonical — sorted keys, no
        whitespace — so the hash is independent of dict insertion order,
        alias spelling, and defaulted-vs-explicit options.  This is the
        dedupe/cache key of the service layer; its stability across
        releases is pinned by a golden-hash test.
        """
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- env / CLI resolution (the single path) ----------------------------

    @classmethod
    def from_cli(cls, args: Any, env: Mapping[str, str] | None = None,
                 **overrides: Any) -> "RunSpec":
        """Resolve a spec from a ``repro simulate``-shaped namespace + env.

        Backend options are filtered against the registry: only the knobs
        the chosen backend actually declares are forwarded (``--threads``
        never reaches the device backend, ``--cores`` never reaches the
        CPU one), so one flat CLI surface serves every registered backend.
        """
        name = getattr(args, "backend", "tt")
        integrator_name = getattr(args, "integrator", None) or "hermite"
        scenario_name = getattr(args, "scenario", None) or "plummer"
        options = _declared_options(
            args, _CLI_OPTION_NAMES, BACKENDS.entry(name))
        integrator_options = _declared_options(
            args, _CLI_INTEGRATOR_OPTION_NAMES,
            INTEGRATORS.entry(integrator_name))
        # fail fast at the CLI boundary: unknown scenario names and
        # out-of-domain integrator options (e.g. a non-power-of-two
        # --dt-max) should exit 2, not traceback mid-run
        INTEGRATORS.resolve(integrator_name, **integrator_options)
        SCENARIOS.entry(scenario_name)
        spec = cls(
            n=getattr(args, "n", cls.n),
            cycles=getattr(args, "cycles", cls.cycles),
            dt=getattr(args, "dt", cls.dt),
            adaptive=getattr(args, "adaptive", False),
            softening=getattr(args, "softening", cls.softening),
            seed=getattr(args, "seed", cls.seed),
            backend=Spec(name, options),
            integrator=Spec(integrator_name, integrator_options),
            scenario=scenario_name,
            **overrides,
        )
        return spec.resolved_from_env(env) if env is not None else spec

    def resolved_from_env(self, env: Mapping[str, str]) -> "RunSpec":
        """Fill unset observability flags from the environment.

        Boolean variables go through :func:`repro.config.env_flag`, so
        ``REPRO_SANITIZE=false`` / ``off`` / ``no`` really mean *off* —
        historically any non-empty value other than ``"0"`` enabled the
        sanitizer, which turned an explicit opt-out into an opt-in.
        """
        updates: dict[str, Any] = {}
        trace = env_str(env, "REPRO_TRACE")
        if self.trace_path is None and trace:
            updates["trace_path"] = trace
        lint = env_str(env, "REPRO_LINT")
        if self.lint == "off" and lint:
            updates["lint"] = lint
        if not self.sanitize and env_flag(env.get("REPRO_SANITIZE"),
                                          name="REPRO_SANITIZE"):
            updates["sanitize"] = True
        return replace(self, **updates) if updates else self

    def environ_updates(self) -> dict[str, str]:
        """Env-var exports that make the Metalium layer honour this spec."""
        updates: dict[str, str] = {}
        if self.lint != "off":
            updates["REPRO_LINT"] = self.lint
        if self.sanitize:
            updates["REPRO_SANITIZE"] = "1"
        return updates

    # -- realisation -------------------------------------------------------

    def with_backend(self, name: str, **options: Any) -> "RunSpec":
        return replace(self, backend=Spec(name, options))

    def make_backend(self, **extra: Any) -> ForceBackend:
        """Realise the backend, forcing the spec's softening."""
        entry = BACKENDS.entry(self.backend.name)
        declared = {o.name for o in entry.options}
        if "softening" in declared and "softening" not in self.backend.options:
            extra.setdefault("softening", self.softening)
        return make_backend(self.backend, **extra)

    def with_integrator(self, name: str, **options: Any) -> "RunSpec":
        return replace(self, integrator={"name": name, "options": options})

    def with_scenario(self, name: str, **options: Any) -> "RunSpec":
        return replace(self, scenario={"name": name, "options": options})

    def make_system(self):
        """The initial conditions this spec describes, via the registry."""
        # looked up at call time, so a wrapper installed on the module
        # attribute (the benchmark's span recorder) sees every call
        from ..core.scenarios import make_scenario

        return make_scenario(self.scenario, self.n, self.seed)

    def make_simulation(self, system=None, backend=None, *, trace=None,
                        host_cost=None):
        """The named integration scheme, realised and ready to run.

        Returns an object satisfying the
        :class:`~repro.core.integrators.Integrator` protocol —
        ``initialise()`` plus ``run(n_cycles)`` — built by
        :func:`~repro.core.integrators.make_integrator` from this spec's
        integrator name and options over this spec's backend.
        """
        system = system if system is not None else self.make_system()
        backend = backend if backend is not None else self.make_backend()
        return make_integrator(
            self.integrator, system, backend, dt=self.dt,
            adaptive=self.adaptive, host_cost=host_cost, trace=trace,
        )
