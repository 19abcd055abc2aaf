"""The Pregel-contract rule set (RPC001..RPC010).

Each rule inspects one :class:`ProgramInfo` — the AST of a
:class:`~repro.bsp.api.VertexProgram` subclass plus its module's import
table — and yields :class:`~repro.check.findings.Finding`\\ s.  The rules
encode the contracts §III of the paper (and ``bsp/api.py``'s docstrings)
assume of vertex programs; ``docs/vertex-program-contract.md`` states each
contract with its grounding.

Rules are deliberately syntactic and conservative: they only fire on
patterns that are near-certainly violations (mutating the ``messages``
parameter, calling ``random.random()`` from ``compute()``, …) so that a
clean repo stays clean without suppression noise.  Escape hatch:
``# repro: noqa[RPC00X]`` on the flagged line (handled by the analyzer,
not here).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from .findings import Finding, Severity

__all__ = [
    "Rule", "RULES", "ProgramInfo", "ModuleInfo", "live_verdict", "rule_catalog",
]

#: Program lifecycle methods that run *outside* the per-vertex compute call
#: (worker construction, barrier, extraction) and therefore must not touch
#: the message-sending surface.
LIFECYCLE_METHODS = frozenset(
    {
        "__init__",
        "init_state",
        "extract",
        "payload_nbytes",
        "state_nbytes",
        "aggregators",
        "master_compute",
    }
)

#: VertexContext calls only valid during compute().
SEND_FAMILY = frozenset(
    {
        "send",
        "send_to_neighbors",
        "vote_to_halt",
        "aggregate",
        "add_out_edge",
        "remove_out_edge",
    }
)

#: Method names that mutate the common Python containers in place.
SEQUENCE_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "popitem",
        "add",
        "discard",
    }
)

#: Modules whose direct use inside compute() breaks superstep determinism.
NONDETERMINISTIC_MODULES = frozenset({"random", "uuid", "secrets"})

#: ``numpy.random`` members that *construct* seeded generators (allowed when
#: given an explicit seed argument).
_NP_RANDOM_SEEDABLE = frozenset({"default_rng", "Generator", "SeedSequence"})

#: Wall-clock reads (module, attr) that leak host scheduling into results.
_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("os", "urandom"),
        ("os", "getpid"),
    }
)


# ----------------------------------------------------------------------
# Module / program models handed to rules by the analyzer
# ----------------------------------------------------------------------
@dataclass
class ModuleInfo:
    """One parsed module: AST, filename, and its import alias tables."""

    tree: ast.Module
    filename: str
    #: local name -> imported module ("np" -> "numpy")
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, attr) for ``from module import attr [as name]``
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def build(cls, tree: ast.Module, filename: str) -> "ModuleInfo":
        info = cls(tree=tree, filename=filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    local = a.asname or a.name.split(".")[0]
                    info.module_aliases[local] = (
                        a.name if a.asname else a.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for a in node.names:
                    info.from_imports[a.asname or a.name] = (node.module, a.name)
        return info


@dataclass
class ProgramInfo:
    """One VertexProgram subclass as seen by the rules."""

    node: ast.ClassDef
    methods: dict[str, ast.FunctionDef]

    @property
    def compute(self) -> ast.FunctionDef | None:
        return self.methods.get("compute")

    def _compute_param(self, index: int) -> str | None:
        fn = self.compute
        if fn is None:
            return None
        args = fn.args.args
        return args[index].arg if len(args) > index else None

    @property
    def ctx_name(self) -> str | None:
        return self._compute_param(1)

    @property
    def state_name(self) -> str | None:
        return self._compute_param(2)

    @property
    def messages_name(self) -> str | None:
        return self._compute_param(3)

    @property
    def master_param(self) -> str | None:
        fn = self.methods.get("master_compute")
        if fn is None:
            return None
        args = fn.args.args
        return args[1].arg if len(args) > 1 else None


def live_verdict(program: Any, of_source: Callable, memo: dict) -> Any:
    """``of_source``'s verdict for a *live* program object (or class), read
    from the file that defines it; None when that source cannot be located
    (REPL/exec-defined classes).  Unwraps wrappers exposing ``.inner``.

    ``memo`` maps a path to ``(source text, verdicts)``: a file is analysed
    once per process for as long as its text is unchanged.
    """
    import inspect

    seen = 0
    while hasattr(program, "inner") and seen < 8:  # unwrap program wrappers
        program = program.inner
        seen += 1
    cls = program if isinstance(program, type) else type(program)
    try:
        path = inspect.getsourcefile(cls)
        if path is None:
            return None
        source = Path(path).read_text(encoding="utf-8")
    except (TypeError, OSError, UnicodeDecodeError):
        return None
    hit = memo.get(path)
    if hit is None or hit[0] != source:
        hit = memo[path] = (source, of_source(source, filename=path))
    return next((v for v in hit[1] if v.program == cls.__name__), None)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _attr_chain(node: ast.expr) -> list[str] | None:
    """``ctx.send`` -> ["ctx", "send"]; None when the base isn't a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _rooted_at(node: ast.expr, names: set[str]) -> bool:
    """True when an attribute/subscript chain bottoms out at one of names."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id in names


def _method_call_name(call: ast.Call) -> str | None:
    """Name of the method for ``<expr>.method(...)`` calls."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _collect_aliases(fn: ast.FunctionDef, seed: set[str]) -> set[str]:
    """Names bound directly to one of ``seed`` via plain assignment."""
    aliases = set(seed)
    for _ in range(3):  # fixed-point for alias-of-alias chains
        grew = False
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id not in aliases:
                        aliases.add(t.id)
                        grew = True
        if not grew:
            break
    return aliases


def _payload_aliases(fn: ast.FunctionDef, messages: set[str]) -> set[str]:
    """Loop variables bound to individual payloads of the messages sequence."""
    out: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.comprehension)):
            iter_node = node.iter
            # for m in messages / for i, m in enumerate(messages)
            src = iter_node
            if (
                isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id in ("enumerate", "sorted", "reversed", "iter")
                and iter_node.args
            ):
                src = iter_node.args[0]
            if isinstance(src, ast.Name) and src.id in messages:
                target = node.target
                if isinstance(target, ast.Name):
                    out.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            out.add(elt.id)
    return out


def _constant_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ----------------------------------------------------------------------
# Rule framework
# ----------------------------------------------------------------------
class Rule:
    """One Pregel-contract check.  Subclasses set the metadata and
    implement :meth:`check` as a generator of findings."""

    id: str = "RPC000"
    severity: Severity = Severity.ERROR
    summary: str = ""
    hint: str = ""

    def check(self, program: ProgramInfo, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        return Finding(
            file=module.filename,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            severity=self.severity,
            message=message,
            hint=self.hint if hint is None else hint,
        )


class MessageMutationRule(Rule):
    """RPC001: the delivered ``messages`` sequence and its payloads are the
    engine's buffers, shared with combiners and (under tracing/sanitizing
    wrappers) other consumers — mutating them corrupts other vertices'
    deliveries and breaks replay."""

    id = "RPC001"
    severity = Severity.ERROR
    summary = "compute() mutates the delivered messages sequence or a payload"
    hint = "copy first (list(messages) / copy.copy(payload)) and mutate the copy"

    def check(self, program, module):
        fn = program.compute
        if fn is None or program.messages_name is None:
            return
        seqs = _collect_aliases(fn, {program.messages_name})
        payloads = _payload_aliases(fn, seqs)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = _method_call_name(node)
                if name in SEQUENCE_MUTATORS:
                    base = node.func.value
                    if isinstance(base, ast.Name) and base.id in seqs:
                        yield self.finding(
                            module, node,
                            f"compute() calls {name}() on the delivered "
                            "messages sequence",
                        )
                    elif _rooted_at(base, payloads):
                        yield self.finding(
                            module, node,
                            f"compute() calls {name}() on a received payload",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    if isinstance(t, ast.Subscript) and _rooted_at(
                        t.value, seqs | payloads
                    ):
                        yield self.finding(
                            module, node,
                            "compute() assigns into the delivered messages "
                            "sequence or a received payload",
                        )
                    elif isinstance(t, ast.Attribute) and _rooted_at(
                        t.value, payloads
                    ):
                        yield self.finding(
                            module, node,
                            "compute() assigns an attribute of a received "
                            "payload",
                        )
                    elif (
                        isinstance(node, ast.AugAssign)
                        and isinstance(t, ast.Name)
                        and t.id in seqs
                    ):
                        yield self.finding(
                            module, node,
                            "compute() augment-assigns the delivered messages "
                            "sequence in place",
                        )
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    if isinstance(t, ast.Subscript) and _rooted_at(
                        t.value, seqs | payloads
                    ):
                        yield self.finding(
                            module, node,
                            "compute() deletes from the delivered messages "
                            "sequence or a received payload",
                        )


class NondeterminismRule(Rule):
    """RPC002: compute() must be a deterministic function of
    (superstep, state, messages, topology); unseeded randomness or clock
    reads make results vary across runs and worker counts."""

    id = "RPC002"
    severity = Severity.ERROR
    summary = "compute() calls an unseeded randomness / wall-clock source"
    hint = (
        "thread a seeded RNG through the program "
        "(self.rng = np.random.default_rng(seed) in __init__) "
        "or derive values from vertex_id/superstep"
    )

    def check(self, program, module):
        fn = program.compute
        if fn is None:
            return
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                resolved = module.from_imports.get(func.id)
                if resolved is not None and (
                    resolved[0] in NONDETERMINISTIC_MODULES
                    or resolved in _CLOCK_CALLS
                    or (
                        resolved[0] in ("numpy.random", "random")
                        and resolved[1] not in _NP_RANDOM_SEEDABLE
                    )
                ):
                    yield self.finding(
                        module, node,
                        f"compute() calls {resolved[0]}.{resolved[1]}()",
                    )
                continue
            chain = _attr_chain(func)
            if not chain or len(chain) < 2:
                continue
            root_module = module.module_aliases.get(chain[0])
            if root_module is None:
                continue
            if root_module in NONDETERMINISTIC_MODULES:
                yield self.finding(
                    module, node,
                    f"compute() calls {root_module}.{'.'.join(chain[1:])}()",
                )
            elif (root_module, chain[1]) in _CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"compute() reads {root_module}.{chain[1]}()",
                )
            elif (
                root_module == "numpy"
                and len(chain) >= 3
                and chain[1] == "random"
                and chain[2] not in _NP_RANDOM_SEEDABLE
            ):
                yield self.finding(
                    module, node,
                    "compute() uses numpy's global RNG "
                    f"(numpy.random.{chain[2]}())",
                )


class SharedStateWriteRule(Rule):
    """RPC003: writes to ``self``/class/module state from compute() make
    the result depend on the compute order, which changes with the worker
    count and partition; process/tcp workers each hold their own program
    copy, so the writes are not even shared."""

    id = "RPC003"
    severity = Severity.ERROR
    summary = "compute() writes shared (instance/class/module) state"
    hint = (
        "keep per-vertex data in the state value compute() returns; "
        "use aggregators for cross-vertex reductions"
    )

    def _scan_methods(self, program: ProgramInfo):
        for name, fn in program.methods.items():
            if name == "compute" or name not in LIFECYCLE_METHODS:
                yield fn

    def check(self, program, module):
        class_name = program.node.name
        for fn in self._scan_methods(program):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    yield self.finding(
                        module, node,
                        f"{fn.name}() declares "
                        f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}"
                        f" {', '.join(node.names)}",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for t in targets:
                        base = t
                        while isinstance(base, ast.Subscript):
                            base = base.value
                        if isinstance(base, ast.Attribute):
                            root = base.value
                            if isinstance(root, ast.Name) and root.id == "self":
                                yield self.finding(
                                    module, node,
                                    f"{fn.name}() assigns self.{base.attr} — "
                                    "the program instance is shared by every "
                                    "worker",
                                )
                            elif (
                                isinstance(root, ast.Name)
                                and root.id == class_name
                            ) or (
                                isinstance(root, ast.Call)
                                and isinstance(root.func, ast.Name)
                                and root.func.id == "type"
                            ):
                                yield self.finding(
                                    module, node,
                                    f"{fn.name}() assigns class attribute "
                                    f"{base.attr}",
                                )
                elif isinstance(node, ast.Call):
                    name = _method_call_name(node)
                    if name in SEQUENCE_MUTATORS:
                        chain = _attr_chain(node.func)
                        if chain and chain[0] == "self" and len(chain) >= 3:
                            yield self.finding(
                                module, node,
                                f"{fn.name}() mutates self.{chain[1]} in "
                                f"place ({name}())",
                            )


class ContextOutsideComputeRule(Rule):
    """RPC004: sends, halting votes, aggregator contributions, and topology
    mutations are only meaningful during compute(); from lifecycle methods
    there is no bound vertex and no superstep to attribute them to."""

    id = "RPC004"
    severity = Severity.ERROR
    summary = "send/vote/aggregate/mutation call outside compute()"
    hint = "move the call into compute(); master_compute() may only publish/halt"

    def check(self, program, module):
        for name in LIFECYCLE_METHODS:
            fn = program.methods.get(name)
            if fn is None:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    called = _method_call_name(node)
                    if called in SEND_FAMILY:
                        yield self.finding(
                            module, node,
                            f"{name}() calls .{called}() — only valid inside "
                            "compute()",
                        )


class NoHaltingPathRule(Rule):
    """RPC005: a program whose vertices never vote to halt and whose master
    never halts the job only ends at the max_supersteps backstop — a
    non-termination risk the engine cannot distinguish from useful work."""

    id = "RPC005"
    severity = Severity.WARNING
    summary = "no halting mechanism (no vote_to_halt and no master halt_job)"
    hint = (
        "vote_to_halt() on quiescent vertices, or detect convergence in "
        "master_compute() and call master.halt_job()"
    )

    def check(self, program, module):
        fn = program.compute
        if fn is None:
            return
        votes = halts = False
        for node in ast.walk(program.node):
            if isinstance(node, ast.Call):
                called = _method_call_name(node)
                if called == "vote_to_halt":
                    votes = True
                elif called == "halt_job":
                    halts = True
        if not votes and not halts:
            yield self.finding(
                module, fn,
                "no reachable halting mechanism: compute() never calls "
                "vote_to_halt() and master_compute() never calls halt_job()",
            )


class ResourceHookRule(Rule):
    """RPC006: ``payload_nbytes``/``state_nbytes`` feed the memory model the
    swath heuristics steer by (§IV); a hook that understates the payloads
    the program actually constructs silently breaks the sizing analysis."""

    id = "RPC006"
    severity = Severity.WARNING
    summary = "payload_nbytes/state_nbytes inconsistent with constructed payloads"
    hint = (
        "return a size derived from the payload (e.g. 8 * len(payload)) "
        "or a constant covering the largest tuple sent"
    )

    def _constant_returns(self, fn: ast.FunctionDef):
        consts, others = [], 0
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, (int, float)
                ):
                    consts.append((node, node.value.value))
                else:
                    others += 1
        return consts, others

    def _sent_tuple_sizes(self, program: ProgramInfo):
        for fn in program.methods.values():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = _method_call_name(node)
                payload = None
                if called == "send" and len(node.args) >= 2:
                    payload = node.args[1]
                elif called == "send_to_neighbors" and node.args:
                    payload = node.args[0]
                if isinstance(payload, ast.Tuple):
                    yield node, len(payload.elts)

    def check(self, program, module):
        for hook in ("payload_nbytes", "state_nbytes"):
            fn = program.methods.get(hook)
            if fn is None:
                continue
            consts, others = self._constant_returns(fn)
            for node, value in consts:
                if value <= 0:
                    yield Finding(
                        file=module.filename,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule_id=self.id,
                        severity=Severity.ERROR,
                        message=f"{hook}() returns {value!r} — sizes must be "
                                "positive for the memory model to hold",
                        hint=self.hint,
                    )
            if hook == "payload_nbytes" and consts and not others:
                declared = max(v for _, v in consts)
                widest = max(
                    (n for _, n in self._sent_tuple_sizes(program)), default=0
                )
                if widest and declared < 8 * widest:
                    yield self.finding(
                        module, fn,
                        f"payload_nbytes() returns a constant {declared} but "
                        f"the program sends {widest}-tuples "
                        f"(at least {8 * widest} bytes)",
                    )


class UndeclaredAggregatorRule(Rule):
    """RPC007: the engine only merges aggregators returned by
    ``aggregators()``; contributing to or reading an undeclared name raises
    KeyError at runtime — catch it before the run."""

    id = "RPC007"
    severity = Severity.ERROR
    summary = "aggregator used without being declared in aggregators()"
    hint = "declare the name in aggregators() (e.g. {'name': SumAggregator()})"

    def _declared(self, program: ProgramInfo) -> frozenset | None:
        fn = program.methods.get("aggregators")
        if fn is None:
            return frozenset()
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Dict):
                    keys = [
                        _constant_str(k)
                        for k in node.value.keys
                        if k is not None
                    ]
                    if any(k is None for k in keys):
                        return None  # computed keys: unknown
                    return frozenset(keys)
                return None  # non-literal return: unknown
        return frozenset()

    def check(self, program, module):
        declared = self._declared(program)
        if declared is None:
            return
        for fn in program.methods.values():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = _method_call_name(node)
                if called in ("aggregate", "aggregated", "publish") and node.args:
                    name = _constant_str(node.args[0])
                    if name is not None and name not in declared:
                        yield self.finding(
                            module, node,
                            f"{fn.name}() uses aggregator {name!r} which "
                            "aggregators() never declares",
                        )


class MissingReturnRule(Rule):
    """RPC008: compute()'s return value *replaces* the vertex state; a
    compute that never returns silently resets every vertex's state to
    None each superstep."""

    id = "RPC008"
    severity = Severity.WARNING
    summary = "compute() never returns a value (state becomes None)"
    hint = "return state (or the new state value) from every compute() path"

    def check(self, program, module):
        fn = program.compute
        if fn is None:
            return
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                if not (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None
                ):
                    return
        yield self.finding(
            module, fn,
            "compute() has no return statement with a value — the engine "
            "replaces the vertex state with None after every call",
        )


class ContextRetentionRule(Rule):
    """RPC009: the worker reuses one VertexContext across vertices and the
    messages buffer is recycled at the superstep boundary; retaining either
    beyond the compute() call reads another vertex's data later."""

    id = "RPC009"
    severity = Severity.ERROR
    summary = "compute() retains the ctx/messages reference beyond the call"
    hint = "copy what you need (list(messages), ctx.vertex_id) instead"

    def check(self, program, module):
        fn = program.compute
        if fn is None:
            return
        transient = {
            n for n in (program.ctx_name, program.messages_name) if n is not None
        }
        if not transient:
            return
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                if node.value.id in transient:
                    for t in node.targets:
                        if isinstance(t, (ast.Attribute, ast.Subscript)):
                            yield self.finding(
                                module, node,
                                f"compute() stores {node.value.id!r} outside "
                                "the call (the worker recycles it)",
                            )
            elif isinstance(node, ast.Return) and isinstance(
                node.value, ast.Name
            ):
                if node.value.id in transient:
                    yield self.finding(
                        module, node,
                        f"compute() returns {node.value.id!r} as the vertex "
                        "state — the worker recycles it",
                    )


class PrivateInternalsRule(Rule):
    """RPC010: programs must stay on the documented VertexContext /
    MasterContext surface; reaching into ``ctx._worker`` (or any private
    engine attribute) bypasses mutation ordering and accounting."""

    id = "RPC010"
    severity = Severity.ERROR
    summary = "program reaches into private engine internals (ctx._*, master._*)"
    hint = (
        "use the public API (send/add_out_edge/aggregate/publish); "
        "missing capability? extend bsp/api.py instead"
    )

    def check(self, program, module):
        roots = {
            n
            for n in (program.ctx_name, program.master_param)
            if n is not None
        }
        if not roots:
            return
        for fn in program.methods.values():
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in roots
                ):
                    yield self.finding(
                        module, node,
                        f"{fn.name}() accesses "
                        f"{node.value.id}.{node.attr} — a private engine "
                        "internal",
                    )


def _loc(line: int) -> ast.AST:
    """A bare location carrier for profile-derived findings."""
    node = ast.Pass()
    node.lineno = line
    node.col_offset = 0
    return node


class UnpicklableStateRule(Rule):
    """RPC011: the process engine (``--engine process``) ships program and
    vertex state across process boundaries for checkpoints, recovery, and
    result extraction — lambdas, closures, open handles, and locks in that
    state make every pickle crossing fail at runtime."""

    id = "RPC011"
    severity = Severity.WARNING
    summary = "program/vertex state is unpicklable under --engine process"
    hint = (
        "keep state to plain data; define functions at module level and "
        "re-open handles/locks per superstep instead of storing them"
    )

    def check(self, program, module):
        from .costmodel import profile_program

        profile = profile_program(program, module)
        for risk in profile.pickle_risks:
            yield self.finding(
                module, _loc(risk.line),
                f"{risk.method}() stores {risk.detail}; the process engine "
                "must pickle this state for checkpoints and recovery",
            )


class BroadcastWithoutSwathsRule(Rule):
    """RPC012: broadcast-class programs are the O(|V||E|)-message shape the
    swath scheduler exists for (§IV); without a ``start_messages`` factory
    they can only run all-roots-at-once and will exhaust worker memory on
    any non-toy graph."""

    id = "RPC012"
    severity = Severity.WARNING
    summary = "broadcast-class fan-out without swath scheduling support"
    hint = (
        "expose a module-level start_messages(roots) factory and run the "
        "program through SwathController (repro run --memory-mb ...)"
    )

    def check(self, program, module):
        from .costmodel import FanoutClass, profile_program

        profile = profile_program(program, module)
        if profile.fanout is FanoutClass.BROADCAST and not profile.message_driven:
            yield self.finding(
                module, program.node,
                f"{program.node.name} has broadcast-class fan-out but its "
                "module has no start_messages factory, so runs cannot be "
                "swath-scheduled",
            )


class CombinerEligibleRule(Rule):
    """RPC013: a compute() that folds its messages with a commutative,
    associative reduction re-derives exactly what a combiner computes —
    running combiner-less buffers every individual message (iPregel's
    headline memory cost) instead of one partial per destination."""

    id = "RPC013"
    severity = Severity.WARNING
    summary = "combiner-eligible message reduction running combiner-less"
    hint = "declare the matching repro.bsp.combiners combiner on the program"

    def check(self, program, module):
        from .costmodel import profile_program

        profile = profile_program(program, module)
        if profile.combiner_suggested is not None:
            fn = program.compute
            yield self.finding(
                module, fn if fn is not None else program.node,
                f"compute() reduces its messages with {profile.reduction}() "
                f"but declares no combiner; "
                f"{profile.combiner_suggested} computes the same fold "
                "sender-side",
            )


class UnboundedAccumulatorPayloadRule(Rule):
    """RPC014: a payload that serializes a state-lifetime container grown
    every superstep makes per-message bytes grow with superstep count —
    the payload model is unbounded and swath sizing under-estimates."""

    id = "RPC014"
    severity = Severity.WARNING
    summary = "send payload references an unbounded state accumulator"
    hint = (
        "send a bounded summary (count/top-k/delta) or clear the "
        "accumulator each superstep"
    )

    def check(self, program, module):
        from .costmodel import profile_program

        profile = profile_program(program, module)
        for line, path in profile.unbounded_payload_sites:
            yield self.finding(
                module, _loc(line),
                f"send payload reads '{path}', a state-lifetime container "
                "grown inside compute() — message bytes grow without bound "
                "across supersteps",
            )


#: The full ordered rule set.
RULES: tuple[Rule, ...] = (
    MessageMutationRule(),
    NondeterminismRule(),
    SharedStateWriteRule(),
    ContextOutsideComputeRule(),
    NoHaltingPathRule(),
    ResourceHookRule(),
    UndeclaredAggregatorRule(),
    MissingReturnRule(),
    ContextRetentionRule(),
    PrivateInternalsRule(),
    UnpicklableStateRule(),
    BroadcastWithoutSwathsRule(),
    CombinerEligibleRule(),
    UnboundedAccumulatorPayloadRule(),
)


def rule_catalog() -> list[dict]:
    """Metadata for every rule (docs, ``repro check --list-rules``).

    Includes the kernel-plan rules (RPC015-018) and the plan-optimizer
    rules (RPC019-022) even though the analyzer only runs them under
    ``--kernel-plan``: the catalog documents the full vocabulary.
    Imported lazily — :mod:`.vectorize` and :mod:`.planopt` import this
    module for their rule base class.
    """
    from .planopt import PLANOPT_RULES
    from .vectorize import KERNEL_RULES

    return sorted(
        (
            {
                "id": r.id,
                "severity": str(r.severity),
                "summary": r.summary,
                "hint": r.hint,
            }
            for r in (*RULES, *KERNEL_RULES, *PLANOPT_RULES)
        ),
        key=lambda entry: entry["id"],
    )
