"""The RH001–RH012 host-lint rules and their plugin registry.

Each rule is a :class:`HostRule` subclass registered with
:func:`register_rule`; the :class:`~repro.analysis.hostlint.HostLinter`
instantiates the registry once and runs every selected rule over every
:class:`~repro.analysis.hostlint.engine.ModuleUnit`.  A rule yields
:class:`Finding` s — line, message, optional hint/severity override — and
the engine turns them into :class:`~repro.analysis.diagnostics.Diagnostic`
s, applies suppressions and the baseline, and aggregates the report.

The rules are deliberately *heuristic*: they trade exhaustiveness for
zero-dependency AST checks that catch the bug classes this repo has
actually shipped (leaked executors, raw env truthiness, wall-clock reads
in modelled time, un-fsynced checkpoints).  A justified false positive is
what the inline ``# repro-lint: disable=RHxxx`` suppression and the
committed baseline are for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..diagnostics import HOST_RULES, Severity
from .engine import ModuleUnit, dotted_name
from .layering import ALLOWED_DEPS, EXEMPT, imported_packages

__all__ = ["Finding", "HostRule", "register_rule", "host_rules"]

#: Layers whose timelines are modelled (virtual clock / cycle model):
#: wall-clock reads here leak host time into results the paper claims are
#: a pure function of the performance model.
MODELLED_TIME_PACKAGES = frozenset({
    "simclock", "core", "wormhole", "observability", "telemetry",
    "metalium", "nbody_tt", "nbody_pm", "cpuref", "backends",
})

#: Layers whose code runs on the sharded backend's per-card threads —
#: the backends, and the CommandQueue and TensixCore code each card
#: thread drives: module-level mutable state there is a cross-thread race
#: surface.
WORKER_CONTEXT_PACKAGES = frozenset(
    {"backends", "nbody_tt", "metalium", "wormhole"}
)


@dataclass(frozen=True)
class Finding:
    """One rule hit inside one module, pre-Diagnostic."""

    line: int
    message: str
    hint: str = ""
    severity: Severity | None = None


class HostRule:
    """Base class: subclass, set the class attributes, implement check()."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    hint: str = ""

    @property
    def description(self) -> str:
        return HOST_RULES[self.rule_id]

    def check(self, unit: ModuleUnit) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, HostRule] = {}


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and add one rule to the registry."""
    rule = cls()
    if rule.rule_id not in HOST_RULES:
        raise ValueError(
            f"{cls.__name__}: rule id {rule.rule_id!r} is not in the "
            f"RH catalogue (repro.analysis.diagnostics.HOST_RULES)"
        )
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate host rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def host_rules() -> dict[str, HostRule]:
    """The registered rules, id -> instance, in catalogue order."""
    return {rid: _REGISTRY[rid] for rid in sorted(_REGISTRY)}


def _parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _walk_own_body(func) -> Iterator[ast.AST]:
    """Walk a scope's statements without descending into nested defs."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# RH001 — blocking calls inside async functions
# ---------------------------------------------------------------------------

_BLOCKING_EXACT = frozenset({
    "time.sleep", "os.system", "os.popen", "os.wait", "os.waitpid",
    "socket.create_connection", "socket.getaddrinfo", "open", "input",
})
_BLOCKING_PREFIXES = (
    "subprocess.", "urllib.request.", "requests.", "http.client.",
    "shutil.",
)


@register_rule
class BlockingInAsyncRule(HostRule):
    """RH001: sync sleeps/subprocess/file/socket I/O inside ``async def``."""

    rule_id = "RH001"
    severity = Severity.ERROR
    hint = ("await the asyncio equivalent (asyncio.sleep, "
            "loop.run_in_executor, asyncio streams) so one job cannot "
            "stall every connection on the loop")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for func in ast.walk(unit.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in _walk_own_body(func):
                if not isinstance(node, ast.Call):
                    continue
                qn = unit.qualname_of(node.func)
                if qn is None:
                    continue
                if qn in _BLOCKING_EXACT or qn.startswith(
                    _BLOCKING_PREFIXES
                ):
                    yield Finding(
                        node.lineno,
                        f"blocking call {qn}() inside async function "
                        f"{func.name!r} stalls the event loop",
                    )


# ---------------------------------------------------------------------------
# RH002 — wall-clock sources in modelled-time modules
# ---------------------------------------------------------------------------

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
})
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "date.today")


@register_rule
class WallClockRule(HostRule):
    """RH002: host wall-clock reads where time is supposed to be modelled."""

    rule_id = "RH002"
    severity = Severity.ERROR
    hint = ("modelled layers take time from the virtual clock / cost model "
            "(repro.simclock, queue.device_seconds); a wall-clock read "
            "makes results depend on host load")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.package not in MODELLED_TIME_PACKAGES:
            return
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = unit.qualname_of(node.func)
            if qn is None:
                continue
            if qn in _WALL_CLOCK or qn.endswith(_WALL_CLOCK_SUFFIXES):
                yield Finding(
                    node.lineno,
                    f"wall-clock source {qn}() in modelled-time layer "
                    f"{unit.package!r}",
                )


# ---------------------------------------------------------------------------
# RH003 — unseeded global RNG
# ---------------------------------------------------------------------------

_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "seed", "vonmisesvariate",
})
_SEEDABLE_NUMPY = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
})


@register_rule
class UnseededRngRule(HostRule):
    """RH003: stdlib/NumPy *global* RNG use, or seedless default_rng()."""

    rule_id = "RH003"
    severity = Severity.ERROR
    hint = ("draw from an explicitly seeded generator "
            "(np.random.default_rng(seed) or random.Random(seed)) so "
            "every run is bit-reproducible")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = unit.qualname_of(node.func)
            if qn is None:
                continue
            head, _, tail = qn.partition(".")
            if head == "random" and tail in _GLOBAL_RANDOM_FNS:
                yield Finding(
                    node.lineno,
                    f"{qn}() draws from the process-global random state",
                )
            elif qn.startswith("numpy.random."):
                fn = qn.rpartition(".")[2]
                if fn in _SEEDABLE_NUMPY:
                    if not node.args and not node.keywords:
                        yield Finding(
                            node.lineno,
                            f"{qn}() without a seed gives a different "
                            f"stream every run",
                        )
                else:
                    yield Finding(
                        node.lineno,
                        f"{qn}() uses the legacy process-global NumPy "
                        f"random state",
                    )


# ---------------------------------------------------------------------------
# RH004 — iteration over unordered sets
# ---------------------------------------------------------------------------

@register_rule
class SetIterationRule(HostRule):
    """RH004: for-loops / comprehensions iterating a set expression."""

    rule_id = "RH004"
    severity = Severity.WARNING
    hint = ("wrap the set in sorted(...) before iterating; set order "
            "varies with insertion history and hash seeding, so anything "
            "accumulated from it is nondeterministic")

    def _is_set_expr(self, expr: ast.expr, unit: ModuleUnit) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            qn = unit.qualname_of(expr.func)
            return qn in ("set", "frozenset")
        return False

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it, unit):
                    yield Finding(
                        it.lineno,
                        "iterating an unordered set; downstream results "
                        "inherit its arbitrary order",
                    )


# ---------------------------------------------------------------------------
# RH005 — resources without with/close-on-all-paths
# ---------------------------------------------------------------------------

_CLOSER_ATTRS = frozenset({"close", "terminate", "kill", "shutdown", "stop"})
_MANAGED_WRAPPERS = frozenset({"closing", "enter_context", "ExitStack"})


def _is_resource_call(node: ast.Call, unit: ModuleUnit) -> str | None:
    """The resource kind a call acquires, or None."""
    qn = unit.qualname_of(node.func)
    if qn is None:
        return None
    last = qn.rpartition(".")[2]
    if qn == "open":
        return "file handle"
    if last == "open" and "." in qn:
        receiver = qn.rpartition(".")[0]
        # Path(...).open() parses as Call->Attribute, not a dotted name,
        # so the receiver here is a *named* path-like: path.open(),
        # self.path.open().  Anything else named .open() (device.open())
        # is a state toggle, not a resource acquisition.
        if "path" in receiver.lower():
            return "file handle"
        return None
    if isinstance(node.func, ast.Attribute) and node.func.attr == "open" \
            and isinstance(node.func.value, ast.Call):
        inner = unit.qualname_of(node.func.value.func)
        if inner is not None and inner.rpartition(".")[2] == "Path":
            return "file handle"
    if last == "Popen":
        return "subprocess"
    if last.endswith("Executor"):
        return "executor"
    if qn in ("socket.socket", "socket.create_connection"):
        return "socket"
    return None


@register_rule
class ResourceLifecycleRule(HostRule):
    """RH005: open()/Popen/Executor/socket with no with and no sure close."""

    rule_id = "RH005"
    severity = Severity.ERROR
    hint = ("manage the resource with `with`, or close it in a finally "
            "block (attribute-held resources need a close()/stop() method "
            "that releases them)")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        parents = _parent_map(unit.tree)
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = _is_resource_call(node, unit)
            if kind is None:
                continue
            yield from self._judge(node, kind, parents, unit)

    # -- context classification --------------------------------------------

    def _judge(self, node: ast.Call, kind: str, parents, unit: ModuleUnit
               ) -> Iterator[Finding]:
        # climb to the nearest statement, remembering the expression hops
        parent = parents.get(node)
        while parent is not None and not isinstance(parent, ast.stmt):
            if isinstance(parent, ast.Call) and parent is not node:
                qn = unit.qualname_of(parent.func) or ""
                last = qn.rpartition(".")[2]
                if last in _MANAGED_WRAPPERS:
                    return  # contextlib.closing(...) / enter_context(...)
            if isinstance(parent, (ast.withitem, ast.Yield, ast.YieldFrom)):
                return  # with-statement owns it / handed to the caller
            parent = parents.get(parent)
        if parent is None:
            return
        if isinstance(parent, (ast.Return, ast.With, ast.AsyncWith)):
            return  # ownership handed to the caller / with-statement
        if isinstance(parent, ast.Expr):
            yield Finding(
                node.lineno,
                f"{kind} acquired and immediately dropped "
                f"(nothing can ever close it)",
            )
            return
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = parent.targets if isinstance(parent, ast.Assign) \
                else [parent.target]
            for target in targets:
                name = dotted_name(target)
                if name is None:
                    continue
                yield from self._judge_assignment(
                    node, kind, name, parents, unit
                )
            return
        yield Finding(
            node.lineno,
            f"{kind} acquired outside `with` and never bound to a name "
            f"that closes it",
        )

    def _judge_assignment(self, node: ast.Call, kind: str, name: str,
                          parents, unit: ModuleUnit) -> Iterator[Finding]:
        func = self._enclosing_function(node, parents)
        if func is not None:
            closes, in_finally = _close_calls(func, name)
            if in_finally:
                return
            if closes:
                yield Finding(
                    node.lineno,
                    f"{kind} {name!r} is closed, but not on exception "
                    f"paths (close it in a finally or use `with`)",
                )
                return
        if name.startswith("self."):
            cls = self._enclosing_class(node, parents)
            if cls is not None and _class_closes(cls, name):
                return
        if func is None and not name.startswith("self."):
            # module-level singleton: process lifetime, judged by RH010's
            # shared-state rule instead of leak analysis
            return
        yield Finding(
            node.lineno,
            f"{kind} {name!r} is acquired but never closed on any path",
        )

    @staticmethod
    def _enclosing_function(node, parents):
        cursor = parents.get(node)
        while cursor is not None:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cursor
            cursor = parents.get(cursor)
        return None

    @staticmethod
    def _enclosing_class(node, parents):
        cursor = parents.get(node)
        while cursor is not None:
            if isinstance(cursor, ast.ClassDef):
                return cursor
            cursor = parents.get(cursor)
        return None


def _close_calls(func, name: str) -> tuple[bool, bool]:
    """(any close on ``name`` in ``func``, any close inside a finally)."""
    any_close = False
    in_finally = False
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and node.finalbody:
            for sub in node.finalbody:
                for call in ast.walk(sub):
                    if _is_close_on(call, name):
                        in_finally = True
        if _is_close_on(node, name):
            any_close = True
    return any_close, in_finally


def _is_close_on(node, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _CLOSER_ATTRS
        and dotted_name(node.func.value) == name
    )


def _class_closes(cls: ast.ClassDef, name: str) -> bool:
    """True when any method of ``cls`` closes the ``self.x`` resource."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(stmt):
                if _is_close_on(node, name):
                    return True
    return False


# ---------------------------------------------------------------------------
# RH006 — raw os.environ boolean reads
# ---------------------------------------------------------------------------

_BOOLISH = frozenset({
    "", "0", "1", "true", "false", "yes", "no", "on", "off",
})
_STR_WRAPPERS = frozenset({"strip", "lower", "upper", "casefold"})


def _unwrap_str_calls(expr: ast.expr) -> ast.expr:
    while (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _STR_WRAPPERS
    ):
        expr = expr.func.value
    return expr


def _is_env_read(expr: ast.expr, unit: ModuleUnit) -> bool:
    expr = _unwrap_str_calls(expr)
    if isinstance(expr, ast.Call):
        qn = unit.qualname_of(expr.func)
        return qn in ("os.getenv", "os.environ.get")
    if isinstance(expr, ast.Subscript):
        return dotted_name(expr.value) == "os.environ" or (
            isinstance(expr.value, ast.Attribute)
            and unit.qualname_of(expr.value) == "os.environ"
        )
    return False


def _boolish_constant(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value.strip().lower() in _BOOLISH
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return bool(expr.elts) and all(
            _boolish_constant(e) for e in expr.elts
        )
    return False


@register_rule
class RawEnvBoolRule(HostRule):
    """RH006: truthiness tests / boolean compares on raw environ reads."""

    rule_id = "RH006"
    severity = Severity.ERROR
    hint = ("parse it with repro.config.env_flag(value, name=...): it "
            "normalises 1/true/yes/on vs 0/false/no/off and rejects "
            "anything else, so VAR=false can never count as enabled")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.package == "config":
            return  # config implements env_flag; it must touch the raw value
        for node in ast.walk(unit.tree):
            tests: list[ast.expr] = []
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                tests.append(node.test)
            elif isinstance(node, ast.BoolOp):
                tests.extend(node.values)
            elif isinstance(node, ast.UnaryOp) and isinstance(
                node.op, ast.Not
            ):
                tests.append(node.operand)
            elif isinstance(node, ast.Call) and \
                    unit.qualname_of(node.func) == "bool":
                tests.extend(node.args)
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(_is_env_read(s, unit) for s in sides) and any(
                    _boolish_constant(s) for s in sides
                ):
                    yield Finding(
                        node.lineno,
                        "boolean comparison against a raw os.environ read "
                        "(spelling-sensitive: 'false'/'off' may count as "
                        "enabled)",
                    )
                continue
            for test in tests:
                if _is_env_read(test, unit):
                    yield Finding(
                        test.lineno,
                        "truthiness test on a raw os.environ read "
                        "(any non-empty string counts as enabled)",
                    )


# ---------------------------------------------------------------------------
# RH007 — durability-critical writes without flush + fsync
# ---------------------------------------------------------------------------

def _append_mode(call: ast.Call) -> bool:
    """True when an open()-style call requests append mode."""
    candidates = list(call.args) + [
        kw.value for kw in call.keywords if kw.arg == "mode"
    ]
    for arg in candidates:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            value = arg.value
            if 0 < len(value) <= 3 and set(value) <= set("rwxab+tU") \
                    and "a" in value:
                return True
    return False


@register_rule
class DurableWriteRule(HostRule):
    """RH007: append-mode file writes (journals) missing flush+fsync."""

    rule_id = "RH007"
    severity = Severity.ERROR
    hint = ("append-only journals exist to survive crashes: call "
            "fh.flush() and os.fsync(fh.fileno()) before leaving the "
            "with-block, or the record may die in the page cache")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                ce = item.context_expr
                if not isinstance(ce, ast.Call):
                    continue
                qn = unit.qualname_of(ce.func) or ""
                is_open = qn == "open" or qn.rpartition(".")[2] == "open"
                if not is_open or not _append_mode(ce):
                    continue
                handle = dotted_name(item.optional_vars) \
                    if item.optional_vars is not None else None
                if handle is None:
                    yield Finding(
                        node.lineno,
                        "append-mode file opened without binding the "
                        "handle; nothing can fsync it",
                    )
                    continue
                flushed = fsynced = False
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        if _is_method_on(sub, handle, "flush"):
                            flushed = True
                        if (unit.qualname_of(sub.func) == "os.fsync"
                                and sub.args
                                and _mentions_name(sub.args[0], handle)):
                            fsynced = True
                if not (flushed and fsynced):
                    missing = []
                    if not flushed:
                        missing.append(f"{handle}.flush()")
                    if not fsynced:
                        missing.append(f"os.fsync({handle}.fileno())")
                    yield Finding(
                        node.lineno,
                        f"append-mode write without {' and '.join(missing)}",
                    )


def _is_method_on(call: ast.Call, name: str, attr: str) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == attr
        and dotted_name(call.func.value) == name
    )


def _mentions_name(expr: ast.expr, name: str) -> bool:
    head = name.split(".")[0]
    return any(
        isinstance(sub, ast.Name) and sub.id == head
        for sub in ast.walk(expr)
    )


# ---------------------------------------------------------------------------
# RH008 — silent exception swallowing
# ---------------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _handler_types(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return []
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return [dotted_name(n) or "" for n in nodes]


@register_rule
class SilentExceptRule(HostRule):
    """RH008: bare ``except:`` and broad handlers whose body is pass."""

    rule_id = "RH008"
    severity = Severity.WARNING
    hint = ("catch the specific errors you can handle (NBodyError and "
            "friends) or re-raise; a silent broad handler also swallows "
            "the library's failure taxonomy")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not any(
                    isinstance(sub, ast.Raise) for sub in ast.walk(node)
                ):
                    yield Finding(
                        node.lineno,
                        "bare `except:` swallows everything, "
                        "KeyboardInterrupt and NBodyError alike",
                    )
                continue
            names = _handler_types(node)
            if any(n in _BROAD_EXCEPTIONS for n in names) and all(
                isinstance(stmt, (ast.Pass, ast.Continue))
                for stmt in node.body
            ):
                yield Finding(
                    node.lineno,
                    f"except {' / '.join(n for n in names if n)} with a "
                    f"pass body silently swallows every library error",
                )


# ---------------------------------------------------------------------------
# RH009 — layering violations (the shared ARCHITECTURE edge list)
# ---------------------------------------------------------------------------

@register_rule
class LayeringRule(HostRule):
    """RH009: imports must follow hostlint.layering.ALLOWED_DEPS."""

    rule_id = "RH009"
    severity = Severity.ERROR
    hint = ("move the shared code down a layer, or deliberately change "
            "the architecture: update ALLOWED_DEPS in "
            "repro/analysis/hostlint/layering.py AND docs/ARCHITECTURE.md "
            "together")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        package = unit.package
        if package in EXEMPT or not unit.rel_parts:
            return
        if package.startswith("<"):
            return  # synthetic lint_source module with no real location
        if len(unit.rel_parts) == 1 and unit.rel_parts[0] == "__init__.py":
            return  # the package aggregation surface
        if package not in ALLOWED_DEPS:
            yield Finding(
                (unit.tree.body[0].lineno if unit.tree.body else 1),
                f"layer {package!r} is not in the ARCHITECTURE layer map "
                f"(ALLOWED_DEPS)",
            )
            return
        allowed = ALLOWED_DEPS[package]
        for target, lineno in imported_packages(unit.tree, unit.rel_parts):
            if target == package or target == "__init__":
                continue
            if target not in allowed:
                yield Finding(
                    lineno,
                    f"layer {package!r} imports {target!r} "
                    f"(allowed: {sorted(allowed)})",
                )


# ---------------------------------------------------------------------------
# RH010 — module-level mutable globals touched from worker-context code
# ---------------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "defaultdict", "Counter", "OrderedDict",
    "WeakSet", "WeakValueDictionary", "WeakKeyDictionary", "deque",
})
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "pop", "popitem", "setdefault", "clear",
    "extend", "remove", "discard", "insert", "appendleft",
})


@register_rule
class WorkerGlobalMutationRule(HostRule):
    """RH010: functions mutating module globals in shard-worker layers."""

    rule_id = "RH010"
    severity = Severity.WARNING
    hint = ("worker threads share this object; move the state onto the "
            "backend instance, or guard it and suppress with a "
            "justification")

    def _module_mutables(self, unit: ModuleUnit) -> set[str]:
        names: set[str] = set()
        for stmt in unit.tree.body:
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                  ast.DictComp, ast.SetComp)):
                names.add(target.id)
            elif isinstance(value, ast.Call):
                qn = unit.qualname_of(value.func) or ""
                if qn.rpartition(".")[2] in _MUTABLE_FACTORIES:
                    names.add(target.id)
        return names

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.package not in WORKER_CONTEXT_PACKAGES:
            return
        mutables = self._module_mutables(unit)
        if not mutables:
            return
        for func in ast.walk(unit.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            rebound = {
                name
                for node in _walk_own_body(func)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            for node in _walk_own_body(func):
                hit = self._mutation_of(node, mutables, rebound)
                if hit is not None:
                    name, verb = hit
                    yield Finding(
                        node.lineno,
                        f"module-level mutable global {name!r} {verb} "
                        f"inside {func.name!r} (worker-shared state)",
                    )

    @staticmethod
    def _mutation_of(node, mutables: set[str], rebound: set[str]):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr in _MUTATING_METHODS and isinstance(
            node.func.value, ast.Name
        ) and node.func.value.id in mutables:
            return node.func.value.id, f"mutated via .{node.func.attr}()"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ) and target.value.id in mutables:
                    return target.value.id, "item-assigned"
                if isinstance(target, ast.Name) and target.id in rebound \
                        and target.id in mutables:
                    return target.id, "rebound via `global`"
        return None


# ---------------------------------------------------------------------------
# RH011 — fire-and-forget asyncio tasks
# ---------------------------------------------------------------------------

@register_rule
class DanglingTaskRule(HostRule):
    """RH011: create_task/ensure_future whose handle is dropped."""

    rule_id = "RH011"
    severity = Severity.ERROR
    hint = ("keep a reference (task set / attribute) and await or cancel "
            "it on shutdown; the event loop holds tasks weakly, so a "
            "dropped handle can be garbage-collected mid-flight")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            qn = unit.qualname_of(value.func) or ""
            if qn in ("asyncio.create_task", "asyncio.ensure_future") or \
                    qn.endswith(".create_task"):
                yield Finding(
                    value.lineno,
                    f"{qn}() result discarded: the task may be "
                    f"garbage-collected before it runs to completion",
                )


# ---------------------------------------------------------------------------
# RH012 — lock acquire without release on all paths
# ---------------------------------------------------------------------------

@register_rule
class LockLifecycleRule(HostRule):
    """RH012: .acquire() with no .release() inside a finally."""

    rule_id = "RH012"
    severity = Severity.ERROR
    hint = ("use `with lock:` (it always releases), or pair the acquire "
            "with a release in a finally block; an exception between the "
            "two deadlocks every other thread")

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        scopes: list[ast.AST] = [unit.tree]
        scopes.extend(
            n for n in ast.walk(unit.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            acquires: list[tuple[str, int]] = []
            released: set[str] = set()
            for node in _walk_own_body(scope):
                if not isinstance(node, ast.Call) or not isinstance(
                    node.func, ast.Attribute
                ):
                    continue
                target = dotted_name(node.func.value)
                if target is None:
                    continue
                if node.func.attr == "acquire":
                    acquires.append((target, node.lineno))
            if not acquires:
                continue
            for node in _walk_own_body(scope):
                if isinstance(node, ast.Try) and node.finalbody:
                    for stmt in node.finalbody:
                        for sub in ast.walk(stmt):
                            if isinstance(sub, ast.Call) and isinstance(
                                sub.func, ast.Attribute
                            ) and sub.func.attr == "release":
                                name = dotted_name(sub.func.value)
                                if name is not None:
                                    released.add(name)
            for target, lineno in acquires:
                if target not in released:
                    yield Finding(
                        lineno,
                        f"{target}.acquire() without a matching "
                        f"{target}.release() in a finally block",
                    )
