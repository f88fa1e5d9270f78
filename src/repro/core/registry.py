"""One registry for every named part of a run: backends, integrators,
scenarios.

A :class:`Registry` maps names (and aliases) to factories, each with a
table of typed options (:class:`OptionSpec`).  A :class:`Spec` — a name
plus option overrides, with a JSON round-trip — is the declarative form
of one entry, and :meth:`Registry.resolve` turns it into the entry and
its validated options.  The three instances are ``BACKENDS``
(:mod:`repro.backends.registry`), ``INTEGRATORS``
(:mod:`repro.core.integrators`) and ``SCENARIOS``
(:mod:`repro.core.scenarios`); the CLI choices, ``RunSpec`` round-trips
and cache identities, and the CI matrices all iterate them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError

__all__ = [
    "OptionSpec",
    "Spec",
    "Entry",
    "Registry",
    "in_range",
    "one_of",
    "positive",
]


@dataclass(frozen=True)
class OptionSpec:
    """One typed option a registered backend, integrator or scenario
    accepts.

    ``validate`` is an optional domain check run *after* type coercion:
    it receives the coerced value and returns an error message (or
    ``None`` when the value is acceptable).  This is how per-option
    invariants — e.g. the block-Hermite ``dt_max`` must be a power of
    two — fail at spec-resolution time, before any simulation state is
    built.
    """

    name: str
    type: type
    default: Any
    help: str = ""
    validate: Callable[[Any], str | None] | None = None

    def coerce(self, value: Any) -> Any:
        """Validate (and gently coerce) one user-supplied option value.

        ints are accepted where floats are expected; strings are parsed
        for numeric and boolean options so env/CLI round-trips work; any
        other mismatch is a :class:`ConfigurationError`.
        """
        coerced = self._coerce_type(value)
        if coerced is not None and self.validate is not None:
            problem = self.validate(coerced)
            if problem:
                raise ConfigurationError(
                    f"option {self.name!r} {problem}, got {coerced!r}"
                )
        return coerced

    def _coerce_type(self, value: Any) -> Any:
        if value is None or isinstance(value, self.type):
            # bool is an int subclass: don't let True sneak into int options
            if not (self.type is int and isinstance(value, bool)):
                return value
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            return float(value)
        if self.type is str and isinstance(value, enum.Enum) \
                and isinstance(value.value, str):
            # enum-valued options (DataFormat) flatten to their string form
            return value.value
        if isinstance(value, str):
            try:
                if self.type is int:
                    return int(value)
                if self.type is float:
                    return float(value)
                if self.type is bool:
                    if value.lower() in ("1", "true", "yes", "on"):
                        return True
                    if value.lower() in ("0", "false", "no", "off"):
                        return False
                    raise ValueError(value)
            except ValueError:
                pass
        raise ConfigurationError(
            f"backend option {self.name!r} expects {self.type.__name__}, "
            f"got {value!r}"
        )


def in_range(low: float, high: float | None = None
             ) -> Callable[[Any], str | None]:
    """An :attr:`OptionSpec.validate` for ``low <= value`` (``<= high``)."""
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"

    def check(value: Any) -> str | None:
        if value < low or (high is not None and value > high):
            return f"must be {bounds}"
        return None

    return check


def one_of(*choices: Any) -> Callable[[Any], str | None]:
    """An :attr:`OptionSpec.validate` accepting ``choices`` only."""
    return lambda value: (
        None if value in choices else f"must be one of {choices}"
    )


def positive(value: float) -> str | None:
    """An :attr:`OptionSpec.validate` for ``value > 0``."""
    return None if value > 0 else "must be positive"


@dataclass(frozen=True)
class Spec:
    """A registry entry, declaratively: name + option overrides.

    The JSON form (:meth:`to_json` / :meth:`from_json`) is what
    :class:`~repro.backends.runspec.RunSpec` persists; option values are
    validated against the entry's :class:`OptionSpec` table when the spec
    is resolved (:meth:`Registry.resolve`), not at construction, so a
    spec can name an entry registered later.
    """

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def with_options(self, **overrides: Any) -> "Spec":
        """A copy of this spec with extra/replaced options."""
        return Spec(self.name, {**self.options, **overrides})

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping form of this spec."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: "Spec | str | Mapping[str, Any]") -> "Spec":
        """A spec from a bare name, a ``{"name", "options"}`` mapping, or
        a spec (returned as is)."""
        if isinstance(data, Spec):
            return data
        if isinstance(data, str):
            return cls(data)
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"spec must be a name, a mapping or a Spec, got {data!r}"
            )
        if "name" not in data:
            raise ConfigurationError(f"spec needs a 'name': {data!r}")
        return cls(str(data["name"]), dict(data.get("options", {})))

    def to_json(self) -> str:
        """Canonical JSON form of this spec."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        """Parse a spec from its JSON form."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Entry:
    """One registered factory: typed options, help text and aliases."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    options: tuple[OptionSpec, ...] = ()
    aliases: tuple[str, ...] = ()


class Registry:
    """The named factories of one kind (``"backend"``, ``"integrator"``,
    ``"scenario"``).

    Entries are registered at import time and only read afterwards.
    Re-registering a name replaces its entry — deliberate, so tests and
    downstream code can shadow a built-in with an instrumented double.
    An unknown name raises ``unknown_error``, the kind's own
    :class:`~repro.errors.ConfigurationError` subclass.
    """

    def __init__(self, kind: str,
                 unknown_error: type[ConfigurationError]) -> None:
        self.kind = kind
        self._unknown_error = unknown_error
        self._entries: dict[str, Entry] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        description: str = "",
        options: tuple[OptionSpec, ...] = (),
        aliases: tuple[str, ...] = (),
    ) -> Entry:
        """Add (or replace) the entry ``name``; ``aliases`` resolve to it."""
        if not name:
            raise ConfigurationError(f"{self.kind} name must be non-empty")
        entry = Entry(name, factory, description, options, aliases)
        self._entries[name] = entry
        for alias in aliases:
            self._aliases[alias] = name
        return entry

    def names(self) -> tuple[str, ...]:
        """All registered (canonical) names, sorted."""
        return tuple(sorted(self._entries))

    def entry(self, name: str) -> Entry:
        """Lookup by canonical name or alias."""
        try:
            return self._entries[self._aliases.get(name, name)]
        except KeyError:
            raise self._unknown_error(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: "
                f"{', '.join(self.names())}"
            ) from None

    def choices_help(self) -> str:
        """One ``name: description`` clause per entry, for CLI help."""
        return "; ".join(
            f"{name}: {self._entries[name].description}"
            for name in self.names()
        )

    def resolve(self, spec: "Spec | str | Mapping[str, Any]",
                **extra: Any) -> tuple[Entry, dict[str, Any]]:
        """The entry ``spec`` names and its full option set.

        Defaults are merged with the spec's options, then with ``extra``
        (call sites that take a serialised spec but force one knob);
        every value is coerced and validated, and unknown option names
        raise.
        """
        spec = Spec.from_dict(spec)
        entry = self.entry(spec.name)
        overrides = {**spec.options, **extra}
        table = {o.name: o for o in entry.options}
        unknown = sorted(set(overrides) - set(table))
        if unknown:
            raise ConfigurationError(
                f"{self.kind} {entry.name!r} does not accept option(s) "
                f"{unknown}; known: {sorted(table)}"
            )
        options = {o.name: o.default for o in entry.options}
        for key, value in overrides.items():
            options[key] = table[key].coerce(value)
        return entry, options
