"""The integrator and scenario registries, and their physics gates.

Three layers of coverage:

* registry mechanics — spec round-trips, unknown names, option
  validation (including the block-Hermite power-of-two ``dt_max`` rule
  that used to silently desynchronise the block hierarchy);
* driver behaviour — every registered integrator runs every gated
  scenario on the reference backend and conserves energy;
* RunSpec integration — the declarative path builds the same drivers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import BackendSpec, RunSpec, make_backend
from repro.core import (
    INTEGRATORS,
    SCENARIOS,
    BlockHermiteIntegrator,
    IntegratorSpec,
    ReferenceBackend,
    ScenarioSpec,
    energy_report,
    make_integrator,
    make_scenario,
)
from repro.errors import (
    ConfigurationError,
    UnknownIntegratorError,
    UnknownScenarioError,
)


class TestIntegratorRegistry:
    def test_builtins_registered(self):
        assert set(INTEGRATORS.names()) >= {
            "hermite", "block-hermite", "leapfrog"
        }

    def test_unknown_name_lists_choices(self):
        with pytest.raises(UnknownIntegratorError, match="hermite"):
            INTEGRATORS.entry("rk4")

    def test_spec_json_round_trip(self):
        spec = IntegratorSpec("block-hermite", {"eta": 0.01})
        assert IntegratorSpec.from_json(spec.to_json()) == spec

    def test_spec_from_bare_name(self):
        assert IntegratorSpec.from_dict("leapfrog").name == "leapfrog"

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="leapfrog"):
            INTEGRATORS.resolve("leapfrog", eta=0.1)


def test_make_functions_accept_a_mapping_spec():
    """A spec in its JSON mapping form realises like a Spec or a name."""
    system = make_scenario(
        {"name": "binary", "options": {"semi_major_axis": 0.5}}, 2, 0
    )
    assert np.linalg.norm(system.pos[0] - system.pos[1]) == \
        pytest.approx(0.5)
    backend = make_backend({"name": "reference",
                            "options": {"softening": 0.25}})
    assert backend.softening == 0.25
    sim = make_integrator({"name": "leapfrog"}, system, backend, dt=1e-3)
    assert sim.name == "leapfrog"


class TestPowerOfTwoDtMax:
    """``dt_max`` must be a power of two: the hierarchy is dt_max / 2^k.

    A non-power-of-two top level used to be accepted silently, producing
    block times that never re-align with the synchronisation points.
    """

    @pytest.mark.parametrize("bad", [0.3, 0.1, 3.0, 0.75])
    def test_option_spec_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="power of two"):
            INTEGRATORS.resolve("block-hermite", dt_max=bad)

    @pytest.mark.parametrize("bad", [0.3, 0.1, 3.0, 0.75])
    def test_direct_construction_rejects(self, bad):
        from repro.core import plummer

        with pytest.raises(ConfigurationError, match="power of two"):
            BlockHermiteIntegrator(
                plummer(8, seed=0), ReferenceBackend(), dt=1e-3, dt_max=bad
            )

    @pytest.mark.parametrize("good", [0.0625, 0.5, 1.0, 2.0, 2.0**-10])
    def test_powers_of_two_accepted(self, good):
        _, opts = INTEGRATORS.resolve("block-hermite", dt_max=good)
        assert opts["dt_max"] == good

    def test_nonpositive_still_rejected(self):
        from repro.core import plummer

        with pytest.raises(ConfigurationError, match="positive"):
            BlockHermiteIntegrator(
                plummer(8, seed=0), ReferenceBackend(), dt=1e-3, dt_max=0.0
            )


class TestScenarioRegistry:
    def test_all_six_generators_registered(self):
        assert set(SCENARIOS.names()) == {
            "plummer", "uniform_sphere", "hernquist", "binary",
            "cluster_collision", "cluster_with_binary",
        }

    def test_unknown_name_lists_choices(self):
        with pytest.raises(UnknownScenarioError, match="plummer"):
            SCENARIOS.entry("king")

    def test_spec_json_round_trip(self):
        spec = ScenarioSpec("hernquist", {"scale_radius": 0.3})
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("name", [
        "plummer", "uniform_sphere", "hernquist",
        "cluster_collision", "cluster_with_binary",
    ])
    def test_n_and_seed_are_honoured(self, name):
        a = make_scenario(name, 48, 3)
        b = make_scenario(name, 48, 3)
        c = make_scenario(name, 48, 4)
        assert a.n == 48
        np.testing.assert_array_equal(a.pos, b.pos)
        assert not np.array_equal(a.pos, c.pos)

    def test_binary_is_two_bodies(self):
        assert make_scenario("binary", 48, 3).n == 2

    def test_cluster_with_binary_total_includes_pair(self):
        assert make_scenario("cluster_with_binary", 130, 0).n == 130

    def test_options_reach_the_generator(self):
        wide = make_scenario("binary", 2, 0, semi_major_axis=0.5)
        sep = np.linalg.norm(wide.pos[0] - wide.pos[1])
        assert sep == pytest.approx(0.5)

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="hernquist"):
            make_scenario("hernquist", 16, 0, concentration=7)


#: |dE/E| gates per scenario: generous enough for a short fixed-dt run of
#: each scheme, tight enough to catch a broken force path immediately.
GATED_SCENARIOS = {
    "plummer": 1e-5,
    "hernquist": 1e-5,
    "cluster_with_binary": 1e-3,
    "cluster_collision": 1e-5,
}


class TestEnergyConservationGates:
    @pytest.mark.parametrize("scenario", sorted(GATED_SCENARIOS))
    @pytest.mark.parametrize("integrator", INTEGRATORS.names())
    def test_energy_gate(self, integrator, scenario):
        system = make_scenario(scenario, 64, 7)
        initial = energy_report(system)
        sim = make_integrator(
            integrator, system, ReferenceBackend(), dt=1e-4
        )
        sim.run(5)
        drift = energy_report(system).drift_from(initial)
        assert drift < GATED_SCENARIOS[scenario], (
            f"{integrator} on {scenario}: |dE/E| = {drift:.2e}"
        )


class TestRunSpecIntegration:
    def test_runspec_builds_each_integrator(self):
        for name in INTEGRATORS.names():
            spec = RunSpec(
                n=32, dt=1e-4, backend=BackendSpec("reference"),
                integrator=name, scenario="hernquist",
            )
            result = spec.make_simulation().run(2)
            assert result.backend_name.startswith("reference")

    def test_block_hermite_stats_reachable(self):
        spec = RunSpec(
            n=34, dt=1e-3, backend=BackendSpec("reference"),
            integrator="block-hermite", scenario="cluster_with_binary",
        )
        sim = spec.make_simulation()
        sim.run(1)
        assert sim.stats.force_pair_evaluations > 0
