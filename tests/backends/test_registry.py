"""The backend registry: specs, coercion, round-trips, construction."""

import pytest

from repro.backends import BACKENDS, BackendSpec, make_backend
from repro.core import OptionSpec
from repro.errors import ConfigurationError, ReproError, UnknownBackendError


class TestRoundTrip:
    @pytest.mark.parametrize("name", BACKENDS.names())
    def test_every_registered_name_realises_via_json(self, name):
        """name -> spec -> JSON -> spec -> live backend, for every entry."""
        spec = BackendSpec(name)
        restored = BackendSpec.from_json(spec.to_json())
        assert restored == spec
        backend = make_backend(restored)
        assert hasattr(backend, "compute")
        assert isinstance(backend.name, str) and backend.name

    def test_options_survive_json(self):
        spec = BackendSpec("tt", {"cores": 4, "softening": 0.01})
        restored = BackendSpec.from_json(spec.to_json())
        assert restored.options == {"cores": 4, "softening": 0.01}

    def test_with_options_merges(self):
        spec = BackendSpec("tt", {"cores": 4}).with_options(cores=2, cards=2)
        assert spec.options == {"cores": 2, "cards": 2}

    def test_from_dict_requires_name(self):
        with pytest.raises(ConfigurationError):
            BackendSpec.from_dict({"options": {}})


class TestLookup:
    def test_unknown_name_raises_with_registered_list(self):
        with pytest.raises(UnknownBackendError) as err:
            make_backend("nope")
        message = str(err.value)
        assert "nope" in message
        for name in BACKENDS.names():
            assert name in message

    def test_unknown_backend_error_is_repro_error(self):
        assert issubclass(UnknownBackendError, ConfigurationError)
        assert issubclass(UnknownBackendError, ReproError)

    def test_device_alias_resolves_to_tt(self):
        assert BACKENDS.entry("device") is BACKENDS.entry("tt")

    def test_choices_help_mentions_every_backend(self):
        text = BACKENDS.choices_help()
        for name in BACKENDS.names():
            assert name in text


class TestOptionResolution:
    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            make_backend("reference", cores=8)

    def test_string_values_coerce_for_env_round_trips(self):
        backend = make_backend("tt", cores="4", softening="0.5")
        assert backend.n_cores == 4
        assert backend.softening == 0.5

    def test_int_accepted_where_float_expected(self):
        assert make_backend("reference", softening=1).softening == 1.0

    def test_bool_rejected_for_int_option(self):
        with pytest.raises(ConfigurationError, match="expects int"):
            make_backend("tt", cores=True)

    def test_enum_flattens_for_str_option(self):
        from repro.wormhole import DataFormat

        backend = make_backend("tt", fmt=DataFormat.BFLOAT16)
        assert backend.fmt is DataFormat.BFLOAT16

    def test_type_mismatch_message_names_the_option(self):
        opt = OptionSpec("cores", int, 8)
        with pytest.raises(ConfigurationError, match="'cores'"):
            opt.coerce(object())


class TestConstruction:
    def test_tt_single_card_is_plain_backend(self):
        from repro.nbody_tt.offload import TTForceBackend

        assert isinstance(make_backend("tt"), TTForceBackend)

    def test_tt_multi_card_is_sharded(self):
        from repro.backends import ShardedTTBackend

        backend = make_backend("tt", cards=2, cores=2)
        assert isinstance(backend, ShardedTTBackend)
        assert backend.n_cards == 2

    def test_zero_cards_rejected(self):
        with pytest.raises(ConfigurationError, match="cards"):
            make_backend("tt", cards=0)

    def test_per_block_entry_pins_engine(self):
        """The per-block oracle is reached through ``tt``'s engine option."""
        assert make_backend("tt", engine="per-block", cores=2).engine \
            == "per-block"

    def test_reregistration_replaces(self):
        saved = BACKENDS.entry("reference")
        sentinel = object()
        try:
            BACKENDS.register("reference", lambda: sentinel)
            assert make_backend("reference") is sentinel
        finally:
            BACKENDS.register(
                saved.name, saved.factory, description=saved.description,
                options=saved.options, aliases=saved.aliases,
            )
        assert BACKENDS.entry("reference") == saved


def test_no_direct_backend_construction_outside_backends_layer():
    """The acceptance pin: competitors are built only by the registry."""
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent.parent / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if "backends" in path.relative_to(src).parts:
            continue
        text = path.read_text()
        for needle in ("TTForceBackend(", "CPUForceBackend("):
            if needle in text:
                offenders.append(f"{path.relative_to(src)}: {needle}")
    assert not offenders, (
        "construct backends via repro.backends.make_backend, not directly:\n"
        + "\n".join(offenders)
    )
