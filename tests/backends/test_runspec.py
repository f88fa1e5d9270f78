"""RunSpec: JSON round-trip, the single env/CLI path, JobSpec bridge."""

from argparse import Namespace

import pytest

from repro.backends import BackendSpec, RunSpec, make_backend
from repro.errors import ConfigurationError
from repro.telemetry import JobSpec


def _named(field, name, **options):
    return {field: {"name": name, "options": options}}


def _backend(name, **options):
    return _named("backend", name, **options)


NAN = float("nan")
INF = float("inf")

#: RunSpec fields (JSON form) outside a domain the constructors enforce,
#: and the option the rejection names.  A bad ``workers`` spelling is
#: rejected whether or not the spec shards; NaN and infinity lie in no
#: domain.
OUT_OF_DOMAIN = [
    pytest.param(_backend("tt", cards=cards, workers=workers), "workers",
                 id=f"tt-workers-{workers}-{cards}")
    for workers in ("turbo", "process") for cards in (1, 2)
] + [
    pytest.param(fields, match, id=case) for case, fields, match in [
        ("tt-fmt", _backend("tt", fmt="bogus"), "fmt"),
        ("tt-cb_buffering", _backend("tt", cb_buffering=0), "cb_buffering"),
        ("tt-softening", _backend("tt", softening=-1.0), "softening"),
        ("tt-engine", _backend("tt", engine="turbo"), "engine"),
        ("tt-cores", _backend("tt", cores=65), "cores"),
        ("tt-cards", _backend("tt", cards=0), "cards"),
        ("tt-pm-mesh", _backend("tt-pm", mesh=33), "mesh"),
        ("tt-pm-cutoff", _backend("tt-pm", cutoff=-1.0), "cutoff"),
        ("tt-pm-cores", _backend("tt-pm", cores=0), "cores"),
        ("cpu-pm-mesh", _backend("cpu-pm", mesh=512), "mesh"),
        ("cpu-threads", _backend("cpu", threads=0), "threads"),
        ("reference-softening", _backend("reference", softening=-1.0),
         "softening"),
        ("hermite-criterion",
         {"adaptive": True,
          **_named("integrator", "hermite", criterion="bogus")},
         "criterion"),
        ("block-hermite-levels-0",
         _named("integrator", "block-hermite", block_levels=0),
         "block_levels"),
        ("block-hermite-levels-99",
         _named("integrator", "block-hermite", block_levels=99),
         "block_levels"),
        ("plummer-cutoff_radius",
         _named("scenario", "plummer", cutoff_radius=-1.0),
         "cutoff_radius"),
        ("runspec-softening", {"softening": -1.0}, "softening"),
        ("runspec-softening-nan", {"softening": NAN}, "softening"),
        ("runspec-dt-0", {"dt": 0.0}, "dt"),
        ("runspec-dt-negative", {"dt": -1.0}, "dt"),
        ("runspec-dt-nan", {"dt": NAN}, "dt"),
        ("tt-softening-nan", _backend("tt", softening=NAN), "softening"),
        ("tt-pm-cutoff-nan", _backend("tt-pm", cutoff=NAN), "cutoff"),
        ("cpu-threads-huge", _backend("cpu", threads=10**6), "threads"),
        ("binary-eccentricity",
         _named("scenario", "binary", eccentricity=1.0), "eccentricity"),
        ("uniform_sphere-radius",
         _named("scenario", "uniform_sphere", radius=0.0), "radius"),
        ("hernquist-scale_radius",
         _named("scenario", "hernquist", scale_radius=0.0), "scale_radius"),
        ("cluster_with_binary-binary_mass_fraction",
         _named("scenario", "cluster_with_binary", binary_mass_fraction=1.0),
         "binary_mass_fraction"),
        ("cluster_collision-separation",
         _named("scenario", "cluster_collision", separation=0.0),
         "separation"),
        # infinities lie in no domain either: each of these used to hash
        # and then fail at set-up
        ("uniform_sphere-radius-inf",
         _named("scenario", "uniform_sphere", radius=INF), "radius"),
        ("hernquist-scale_radius-inf",
         _named("scenario", "hernquist", scale_radius=INF), "scale_radius"),
        ("binary-semi_major_axis-inf",
         _named("scenario", "binary", semi_major_axis=INF),
         "semi_major_axis"),
        ("cluster_collision-relative_speed-inf",
         _named("scenario", "cluster_collision", relative_speed=INF),
         "relative_speed"),
        ("cluster_collision-impact_parameter-inf",
         _named("scenario", "cluster_collision", impact_parameter=INF),
         "impact_parameter"),
        ("tt-softening-inf", _backend("tt", softening=INF), "softening"),
        ("tt-pm-cutoff-inf", _backend("tt-pm", cutoff=INF), "cutoff"),
        ("cpu-pm-cutoff-inf", _backend("cpu-pm", cutoff=INF), "cutoff"),
        ("hermite-eta-inf", _named("integrator", "hermite", eta=INF), "eta"),
        # a cutoff whose enclosed mass underflows: plummer's own test
        ("plummer-cutoff_radius-underflow",
         _named("scenario", "plummer", cutoff_radius=1e-110),
         "cutoff_radius"),
    ]
]


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        spec = RunSpec(
            n=512, cycles=3, dt=2e-3, adaptive=True, softening=0.01,
            seed=7, backend=BackendSpec("tt", {"cores": 4, "cards": 2}),
            trace_path="trace.json", lint="warn", sanitize=True,
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip(self):
        spec = RunSpec()
        assert RunSpec.from_json(spec.to_json()) == spec
        assert spec.backend == BackendSpec("tt")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="wibble"):
            RunSpec.from_dict({"n": 64, "wibble": 1})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunSpec(n=0)
        with pytest.raises(ConfigurationError):
            RunSpec(lint="loud")


class TestFromCli:
    """One flat CLI surface; the registry filters per-backend knobs."""

    @staticmethod
    def _args(**overrides):
        defaults = dict(
            backend="tt", n=256, cycles=2, dt=1e-3, adaptive=False,
            softening=0.0, seed=0, cores=None, threads=None, cards=None,
        )
        defaults.update(overrides)
        return Namespace(**defaults)

    def test_device_alias_and_cores_forwarded(self):
        spec = RunSpec.from_cli(self._args(backend="device", cores=4))
        assert spec.backend == BackendSpec("device", {"cores": 4})
        assert spec.n == 256 and spec.cycles == 2

    def test_threads_never_reach_the_device_backend(self):
        spec = RunSpec.from_cli(self._args(cores=4, threads=16))
        assert spec.backend.options == {"cores": 4}

    def test_cores_never_reach_the_cpu_backend(self):
        spec = RunSpec.from_cli(
            self._args(backend="cpu", cores=4, threads=16)
        )
        assert spec.backend.options == {"threads": 16}

    def test_format_maps_to_fmt(self):
        spec = RunSpec.from_cli(self._args(fmt="bfloat16"))
        assert spec.backend.options == {"fmt": "bfloat16"}

    def test_unset_options_stay_unset(self):
        spec = RunSpec.from_cli(self._args())
        assert spec.backend.options == {}


class TestEnvResolution:
    def test_trace_path_from_env_is_stripped(self):
        spec = RunSpec().resolved_from_env({"REPRO_TRACE": "  out.json  "})
        assert spec.trace_path == "out.json"

    def test_blank_trace_env_is_unset(self):
        assert RunSpec().resolved_from_env({"REPRO_TRACE": "   "}) == RunSpec()

    def test_cli_value_wins_over_env(self):
        spec = RunSpec(trace_path="cli.json", lint="error")
        resolved = spec.resolved_from_env(
            {"REPRO_TRACE": "env.json", "REPRO_LINT": "warn"}
        )
        assert resolved.trace_path == "cli.json"
        assert resolved.lint == "error"

    def test_lint_and_sanitize_fill_from_env(self):
        resolved = RunSpec().resolved_from_env(
            {"REPRO_LINT": "warn", "REPRO_SANITIZE": "1"}
        )
        assert resolved.lint == "warn"
        assert resolved.sanitize is True

    def test_sanitize_zero_means_off(self):
        assert RunSpec().resolved_from_env({"REPRO_SANITIZE": "0"}) == RunSpec()

    @pytest.mark.parametrize(
        "value", ["false", "False", "FALSE", "no", "off", "Off", "", "  "]
    )
    def test_sanitize_falsy_spellings_mean_off(self, value):
        """``REPRO_SANITIZE=false`` must be an opt-out, not an opt-in.

        The historical parser treated any non-empty value other than
        ``"0"`` as true, so users who wrote ``false``/``off`` silently
        got the sanitizer (and its overhead) turned *on*.
        """
        resolved = RunSpec().resolved_from_env({"REPRO_SANITIZE": value})
        assert resolved.sanitize is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "ON"])
    def test_sanitize_truthy_spellings_mean_on(self, value):
        resolved = RunSpec().resolved_from_env({"REPRO_SANITIZE": value})
        assert resolved.sanitize is True

    def test_sanitize_garbage_rejected(self):
        with pytest.raises(ConfigurationError, match="REPRO_SANITIZE"):
            RunSpec().resolved_from_env({"REPRO_SANITIZE": "maybe"})


class TestCanonicalHash:
    """The dedupe/cache key of the service layer: one identity per run."""

    #: Golden hash of the all-defaults spec.  If this changes, every
    #: deployed result cache silently invalidates — bump it only for a
    #: deliberate, release-noted identity change.
    GOLDEN_DEFAULT = (
        "61879e83f45cc7076240170a55710be52584e5f6de17b399d6b4c822e1731778"
    )

    def test_golden_default_hash(self):
        assert RunSpec().canonical_hash() == self.GOLDEN_DEFAULT

    def test_alias_collapses(self):
        """``device`` is an alias of ``tt``: same run, same hash."""
        a = RunSpec(backend=BackendSpec("device"))
        b = RunSpec(backend=BackendSpec("tt"))
        assert a.canonical_hash() == b.canonical_hash()

    def test_defaulted_and_explicit_options_match(self):
        """``{}`` and the registry defaults written out are the same spec."""
        implicit = RunSpec(backend=BackendSpec("tt"))
        explicit = RunSpec(backend=BackendSpec("tt", {"cores": 8}))
        assert implicit.canonical_hash() == explicit.canonical_hash()

    def test_key_order_irrelevant(self):
        a = RunSpec.from_dict({"n": 512, "cycles": 3, "seed": 1})
        b = RunSpec.from_dict({"seed": 1, "cycles": 3, "n": 512})
        assert a.canonical_hash() == b.canonical_hash()

    def test_trace_path_excluded(self):
        """Where the trace lands says nothing about what is computed."""
        a = RunSpec(trace_path=None)
        b = RunSpec(trace_path="/tmp/trace.json")
        assert a.canonical_hash() == b.canonical_hash()

    def test_execution_mode_included(self):
        """lint/sanitize change how the run executes: distinct identity."""
        base = RunSpec()
        assert base.canonical_hash() != RunSpec(sanitize=True).canonical_hash()
        assert base.canonical_hash() != RunSpec(lint="warn").canonical_hash()

    @pytest.mark.parametrize("field, value", [
        ("n", 4096), ("cycles", 7), ("dt", 5e-4), ("adaptive", True),
        ("softening", 0.01), ("seed", 42),
    ])
    def test_each_physics_field_changes_the_hash(self, field, value):
        from dataclasses import replace

        assert (replace(RunSpec(), **{field: value}).canonical_hash()
                != RunSpec().canonical_hash())

    def test_distinct_backend_options_distinct_hash(self):
        a = RunSpec(backend=BackendSpec("tt", {"cores": 4}))
        b = RunSpec(backend=BackendSpec("tt", {"cores": 8}))
        assert a.canonical_hash() != b.canonical_hash()

    def test_different_backend_family_distinct_hash(self):
        a = RunSpec(backend=BackendSpec("cpu"))
        b = RunSpec(backend=BackendSpec("tt"))
        assert a.canonical_hash() != b.canonical_hash()

    def test_unknown_option_rejected(self):
        spec = RunSpec(backend=BackendSpec("tt", {"warp": 9}))
        with pytest.raises(ConfigurationError):
            spec.canonical_hash()

    @pytest.mark.parametrize("fields, match", OUT_OF_DOMAIN)
    def test_out_of_domain_rejected(self, fields, match):
        """An out-of-domain value gets no cache identity of its own: it
        fails at hashing, as its functional run would fail to build."""
        data = {**RunSpec().to_dict(), **fields}
        with pytest.raises(ConfigurationError, match=match):
            RunSpec.from_dict(data).canonical_hash()

    def test_hash_is_hex_sha256(self):
        digest = RunSpec().canonical_hash()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestRealisation:
    def test_make_backend_forces_spec_softening(self):
        spec = RunSpec(softening=0.02, backend=BackendSpec("reference"))
        assert spec.make_backend().softening == 0.02

    def test_explicit_backend_softening_wins(self):
        spec = RunSpec(
            softening=0.02,
            backend=BackendSpec("reference", {"softening": 0.5}),
        )
        assert spec.make_backend().softening == 0.5

    def test_make_simulation_runs(self):
        spec = RunSpec(n=128, cycles=2, backend=BackendSpec("reference"))
        result = spec.make_simulation().run(spec.cycles)
        assert len(result.cycles) == 2

    def test_adaptive_spec_uses_shared_timestep(self):
        spec = RunSpec(
            n=64, adaptive=True, backend=BackendSpec("reference")
        )
        sim = spec.make_simulation()
        result = sim.run(1)
        assert result.cycles[0].dt > 0


class TestJobSpecBridge:
    def test_accelerated_round_trip(self):
        job = JobSpec.paper_accelerated(
            n_particles=2048, n_cycles=4, n_cores=16, n_devices=2
        )
        spec = job.to_runspec()
        assert spec.backend == BackendSpec("tt", {"cores": 16, "cards": 2})
        assert spec.n == 2048 and spec.cycles == 4
        assert JobSpec.from_runspec(spec) == job

    def test_reference_round_trip(self):
        job = JobSpec.paper_reference(n_particles=1024, n_cycles=3)
        spec = job.to_runspec()
        assert spec.backend == BackendSpec("cpu", {"threads": 32})
        assert JobSpec.from_runspec(spec) == job

    def test_device_alias_maps_to_accelerated(self):
        spec = RunSpec(backend=BackendSpec("device"))
        assert JobSpec.from_runspec(spec).accelerated is True


def test_runspec_backend_realises_sharded():
    spec = RunSpec(backend=BackendSpec("tt", {"cards": 2, "cores": 2}))
    backend = spec.make_backend()
    assert backend.n_cards == 2
    assert isinstance(backend, type(make_backend("tt", cards=2, cores=2)))
