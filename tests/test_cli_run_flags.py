"""The run flags of ``repro simulate``, ``trace`` and ``submit``.

One function declares them for all three verbs: the run's own fields,
then one flag per option the backend, integrator and scenario registries
declare.  These tests pin that every pre-existing argument list still
resolves to the spec it did when the flags were hand-declared, that every
registry option is reachable, and that bad values are usage errors.
"""

import shlex

import pytest

from repro.backends import BACKENDS, RunSpec
from repro.cli import build_parser, main
from repro.core import INTEGRATORS, SCENARIOS

VERBS = ("simulate", "trace", "submit")
REGISTRIES = (("backend", BACKENDS), ("integrator", INTEGRATORS),
              ("scenario", SCENARIOS))

#: Argument lists and the ``RunSpec.to_json()`` each resolved to while the
#: flags were still declared by hand, captured then (not recomputed).
CLI_TABLE = [
    (
        "simulate",
        '{"adaptive": false, "backend": {"name": "device", "options": {}}, '
        '"cycles": 10, "dt": 0.001, "integrator": {"name": "hermite", '
        '"options": {}}, "lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "plummer", "options": {}}, "seed": 0, '
        '"softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --backend cpu --threads 16 --n 128 --cycles 2 "
        "--adaptive --seed 3",
        '{"adaptive": true, "backend": {"name": "cpu", '
        '"options": {"threads": 16}}, "cycles": 2, "dt": 0.001, '
        '"integrator": {"name": "hermite", "options": {}}, "lint": "off", '
        '"n": 128, "sanitize": false, "scenario": {"name": "plummer", '
        '"options": {}}, "seed": 3, "softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --backend tt --cores 4 --cards 2 --workers serial",
        '{"adaptive": false, "backend": {"name": "tt", '
        '"options": {"cards": 2, "cores": 4, "workers": "serial"}}, '
        '"cycles": 10, "dt": 0.001, "integrator": {"name": "hermite", '
        '"options": {}}, "lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "plummer", "options": {}}, "seed": 0, '
        '"softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --backend tt --cores 64 --cards 2 --workers thread "
        "--threads 8 --mesh 64",
        '{"adaptive": false, "backend": {"name": "tt", '
        '"options": {"cards": 2, "cores": 64, "workers": "thread"}}, '
        '"cycles": 10, "dt": 0.001, "integrator": {"name": "hermite", '
        '"options": {}}, "lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "plummer", "options": {}}, "seed": 0, '
        '"softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --backend tt-pm --mesh 64 --cutoff 2.5 --cores 16 "
        "--softening 0.01",
        '{"adaptive": false, "backend": {"name": "tt-pm", '
        '"options": {"cores": 16, "cutoff": 2.5, "mesh": 64}}, '
        '"cycles": 10, "dt": 0.001, "integrator": {"name": "hermite", '
        '"options": {}}, "lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "plummer", "options": {}}, "seed": 0, '
        '"softening": 0.01, "trace_path": null}',
    ),
    (
        "simulate --backend cpu-pm --mesh 32 --cutoff 0",
        '{"adaptive": false, "backend": {"name": "cpu-pm", '
        '"options": {"cutoff": 0.0, "mesh": 32}}, "cycles": 10, '
        '"dt": 0.001, "integrator": {"name": "hermite", "options": {}}, '
        '"lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "plummer", "options": {}}, "seed": 0, '
        '"softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --backend reference --cores 4 --eta 0.05",
        '{"adaptive": false, "backend": {"name": "reference", '
        '"options": {}}, "cycles": 10, "dt": 0.001, '
        '"integrator": {"name": "hermite", "options": {"eta": 0.05}}, '
        '"lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "plummer", "options": {}}, "seed": 0, '
        '"softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --integrator block-hermite --eta 0.01 --dt-max 0.0625 "
        "--block-levels 12 --scenario cluster_with_binary",
        '{"adaptive": false, "backend": {"name": "device", "options": {}}, '
        '"cycles": 10, "dt": 0.001, '
        '"integrator": {"name": "block-hermite", '
        '"options": {"block_levels": 12, "dt_max": 0.0625, "eta": 0.01}}, '
        '"lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "cluster_with_binary", "options": {}}, '
        '"seed": 0, "softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --integrator hermite --adaptive --eta 0.02 --dt-max "
        "0.125",
        '{"adaptive": true, "backend": {"name": "device", "options": {}}, '
        '"cycles": 10, "dt": 0.001, "integrator": {"name": "hermite", '
        '"options": {"dt_max": 0.125, "eta": 0.02}}, "lint": "off", '
        '"n": 2048, "sanitize": false, "scenario": {"name": "plummer", '
        '"options": {}}, "seed": 0, "softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --integrator leapfrog --scenario uniform_sphere --dt "
        "0.002 --eta 0.5",
        '{"adaptive": false, "backend": {"name": "device", "options": {}}, '
        '"cycles": 10, "dt": 0.002, "integrator": {"name": "leapfrog", '
        '"options": {}}, "lint": "off", "n": 2048, "sanitize": false, '
        '"scenario": {"name": "uniform_sphere", "options": {}}, "seed": 0, '
        '"softening": 0.0, "trace_path": null}',
    ),
    (
        "simulate --backend device --cores 8 --profile --snapshot x.npz",
        '{"adaptive": false, "backend": {"name": "device", '
        '"options": {"cores": 8}}, "cycles": 10, "dt": 0.001, '
        '"integrator": {"name": "hermite", "options": {}}, "lint": "off", '
        '"n": 2048, "sanitize": false, "scenario": {"name": "plummer", '
        '"options": {}}, "seed": 0, "softening": 0.0, "trace_path": null}',
    ),
    (
        "submit --backend tt --cores 64 --cards 2 --n 8192 --cycles 32 "
        "--tenant a",
        '{"adaptive": false, "backend": {"name": "tt", '
        '"options": {"cards": 2, "cores": 64}}, "cycles": 32, "dt": 0.001, '
        '"integrator": {"name": "hermite", "options": {}}, "lint": "off", '
        '"n": 8192, "sanitize": false, "scenario": {"name": "plummer", '
        '"options": {}}, "seed": 0, "softening": 0.0, "trace_path": null}',
    ),
    (
        "submit --integrator block-hermite --dt-max 0.125 --scenario "
        "hernquist --backend cpu --threads 4",
        '{"adaptive": false, "backend": {"name": "cpu", '
        '"options": {"threads": 4}}, "cycles": 10, "dt": 0.001, '
        '"integrator": {"name": "block-hermite", '
        '"options": {"dt_max": 0.125}}, "lint": "off", "n": 2048, '
        '"sanitize": false, "scenario": {"name": "hernquist", '
        '"options": {}}, "seed": 0, "softening": 0.0, "trace_path": null}',
    ),
]


def _spec(argv):
    return RunSpec.from_cli(build_parser().parse_args(argv), env={})


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, expected", CLI_TABLE,
                         ids=[argv for argv, _ in CLI_TABLE])
def test_argument_lists_keep_their_spec(argv, expected):
    assert _spec(shlex.split(argv)).to_json() == expected


#: a value in the domain of each option whose registry default is None
_NONE_DEFAULT_VALUES = {"workers": "thread", "engine": "batched",
                        "relative_speed": 1.0}

REACH_CASES = [
    pytest.param(verb, field, name, option,
                 id=f"{verb}-{name}-{option.name}")
    for verb in VERBS
    for field, registry in REGISTRIES
    for name in registry.names()
    for option in registry.entry(name).options
]


@pytest.mark.parametrize("verb, field, name, option", REACH_CASES)
def test_every_registry_option_is_a_flag(verb, field, name, option):
    """``--<option> <default>`` with its entry selected lands in the spec,
    coerced; ``softening`` is the spec's own field."""
    value = option.default
    if value is None:
        value = _NONE_DEFAULT_VALUES[option.name]
    flag = "--" + option.name.replace("_", "-")
    spec = _spec([verb, f"--{field}", name, flag, str(value)])
    if option.name == "softening":
        assert spec.softening == value
        assert getattr(spec, field).options == {}
    else:
        assert getattr(spec, field).options == {
            option.name: option.coerce(value)
        }


def test_one_type_per_option_name():
    """Each option name is one flag, so every entry declaring it must
    agree on its type."""
    types = {}
    for _, registry in REGISTRIES:
        for name in registry.names():
            for option in registry.entry(name).options:
                first = types.setdefault(option.name, (option.type, name))
                assert first[0] is option.type, (
                    f"{option.name}: {first[1]} declares {first[0]}, "
                    f"{name} declares {option.type}"
                )


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("flags, option", [
    (["--virial-scaled", "maybe"], "virial_scaled"),
    (["--cutoff-radius", "-1"], "cutoff_radius"),
], ids=["malformed-bool", "out-of-domain"])
def test_bad_values_exit_2_before_any_work(verb, flags, option, tmp_path,
                                           monkeypatch, capsys):
    def no_request(*args, **kwargs):
        raise AssertionError("submit contacted the service")

    monkeypatch.setattr("repro.service.ServiceClient", no_request)
    out = tmp_path / "t.json"
    argv = [verb, "--n", "64", *flags]
    if verb == "trace":
        argv += ["--out", str(out)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err
    assert not out.exists()
