"""Static message-cost models for vertex programs (the ``--profile`` pass).

The swath heuristics (§IV, §VI-B) exist because O(|V||E|)-message programs
like BC exhaust worker memory; until now the engine only learned a
program's message behaviour *at runtime*, via probe swaths
(:class:`~repro.scheduling.sizing.SamplingSizer`) or feedback
(:class:`~repro.scheduling.sizing.AdaptiveSizer`).  This module learns it
*before the first superstep*: an abstract-interpretation pass over
``compute()``'s AST (reusing :class:`~repro.check.rules.ProgramInfo`)
produces a :class:`ProgramProfile` per program:

* **fan-out class** — how many messages one ``compute()`` call can emit,
  as a branch-sensitive upper bound over every send site:
  ``none`` / ``O(1)`` / ``O(out_degree)`` / ``broadcast``.  Each send site
  is weighted by its enclosing loops — loops over the vertex's neighbors
  multiply by ``out_degree``; loops over data-dependent sequences
  (messages, state containers) multiply by the in-flow.  A degree factor
  *under* a data loop (BC's per-root forward wave) or two stacked data
  loops is message amplification: ``broadcast`` class, the paper's
  O(|V||E|) shape.  For the bounded classes the profile also carries
  coefficients ``(alpha, beta, gamma)`` such that one call sends at most
  ``alpha + beta*out_degree + gamma*len(messages)`` messages — the
  machine-checkable form the property tests verify against measured runs.
* **payload model** — wire bytes per message estimated from the ``send()``
  argument expressions (scalars 8 bytes, tuple literals 8/slot, opaque
  constructions flagged unbounded).
* **combiner compatibility** — whether ``compute()`` reduces its messages
  with a commutative/associative fold (``sum``/``min``/``max`` over the
  sequence or an accumulation loop) and which
  :mod:`repro.bsp.combiners` combiner that reduction already matches.
* **aggregator inference** — the declared aggregator table with each
  entry's constructor type.
* **safety facts** — unpicklable program/vertex state (lambdas, open
  handles, locks: rule RPC011 and the :mod:`repro.dist` pre-fork gate) and
  state-lifetime accumulators that leak into payloads (RPC014).

Everything here is pure AST — nothing is imported or executed — so the
pass is safe on untrusted code and fast enough to run before every job
(``benchmarks/bench_check.py`` tracks its throughput).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable

from .rules import (
    ModuleInfo,
    ProgramInfo,
    _attr_chain,
    _collect_aliases,
    _constant_str,
    live_verdict,
)

__all__ = [
    "FanoutClass",
    "SendSite",
    "PayloadModel",
    "PickleRisk",
    "ProgramProfile",
    "profile_program",
    "profile_source",
    "profile_file",
    "profile_paths",
    "profile_of",
    "estimate_bytes_per_root",
]

#: Container-growing method names (a superset of the generic mutators that
#: actually *add* elements — ``pop``/``clear`` shrink and are not growth).
_GROWTH_CALLS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault"}
)

#: ``threading``/``multiprocessing`` constructors whose instances cannot
#: cross a process boundary (pickling them raises).
_LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
     "Barrier"}
)


class FanoutClass(str, Enum):
    """Per-``compute()``-call message fan-out, as a total order.

    ``NONE < CONSTANT < OUT_DEGREE < BROADCAST``; a class *covers* every
    class below it, so the overall program class is the max over send
    sites (equivalently: the branch-insensitive upper bound).
    """

    NONE = "none"
    CONSTANT = "O(1)"
    OUT_DEGREE = "O(out_degree)"
    BROADCAST = "broadcast"

    @property
    def level(self) -> int:
        return _FANOUT_LEVELS[self]

    def covers(self, other: "FanoutClass") -> bool:
        """True when this class is an upper bound for ``other``."""
        return self.level >= other.level

    def __str__(self) -> str:  # "broadcast", not "FanoutClass.BROADCAST"
        return self.value


_FANOUT_LEVELS = {
    FanoutClass.NONE: 0,
    FanoutClass.CONSTANT: 1,
    FanoutClass.OUT_DEGREE: 2,
    FanoutClass.BROADCAST: 3,
}


@dataclass(frozen=True)
class PayloadModel:
    """Wire-size model of one (or the widest) message payload.

    ``bounded`` is False when the payload's size depends on data the pass
    cannot bound statically (e.g. ``tuple(best)`` of a grown list) — the
    RPC014 precondition.
    """

    kind: str  # "none" | "scalar" | "tuple" | "sequence" | "opaque"
    nbytes: int  # upper estimate of one payload's wire bytes
    width: int | None = None  # tuple arity when statically known
    bounded: bool = True

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "nbytes": self.nbytes,
            "width": self.width,
            "bounded": self.bounded,
        }


@dataclass(frozen=True)
class SendSite:
    """One ``ctx.send``/``ctx.send_to_neighbors`` call site in compute()."""

    line: int
    call: str  # "send" | "send_to_neighbors"
    loops: tuple[str, ...]  # enclosing loop kinds, outermost first
    fanout: FanoutClass
    payload: PayloadModel
    #: superstep this site is pinned to by an ``if ctx.superstep == k`` guard
    superstep: int | None = None

    def as_dict(self) -> dict:
        return {
            "line": self.line,
            "call": self.call,
            "loops": list(self.loops),
            "fanout": str(self.fanout),
            "payload": self.payload.as_dict(),
            "superstep": self.superstep,
        }


@dataclass(frozen=True)
class PickleRisk:
    """One unpicklable-state hazard for the process engine (RPC011)."""

    line: int
    method: str
    detail: str

    def as_dict(self) -> dict:
        return {"line": self.line, "method": self.method, "detail": self.detail}


@dataclass(frozen=True)
class ProgramProfile:
    """The machine-readable static cost model of one vertex program."""

    program: str
    file: str
    line: int
    fanout: FanoutClass
    #: one call sends <= alpha + beta*out_degree + gamma*len(messages)
    #: messages; None when the class is ``broadcast`` (no affine bound).
    fanout_coeffs: tuple[int, int, int] | None
    send_sites: tuple[SendSite, ...]
    #: fan-out per statically-pinned superstep (sites guarded by
    #: ``ctx.superstep == k``); unpinned sites land under key ``None``.
    fanout_by_superstep: tuple[tuple[int | None, FanoutClass], ...]
    payload: PayloadModel
    combiner_declared: str | None
    #: "sum" | "min" | "max" when compute() folds messages commutatively
    reduction: str | None
    combiner_suggested: str | None
    aggregators: tuple[tuple[str, str], ...]
    #: module ships a ``start_messages`` factory (swath-schedulable)
    message_driven: bool
    pickle_risks: tuple[PickleRisk, ...]
    #: (line, expression) of send payloads referencing state-lifetime
    #: accumulators grown inside compute() (RPC014)
    unbounded_payload_sites: tuple[tuple[int, str], ...]

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "file": self.file,
            "line": self.line,
            "fanout": str(self.fanout),
            "fanout_coeffs": (
                list(self.fanout_coeffs) if self.fanout_coeffs else None
            ),
            "fanout_by_superstep": [
                {"superstep": s, "fanout": str(c)}
                for s, c in self.fanout_by_superstep
            ],
            "send_sites": [s.as_dict() for s in self.send_sites],
            "payload": self.payload.as_dict(),
            "combiner_declared": self.combiner_declared,
            "reduction": self.reduction,
            "combiner_suggested": self.combiner_suggested,
            "aggregators": [
                {"name": n, "type": t} for n, t in self.aggregators
            ],
            "message_driven": self.message_driven,
            "pickle_risks": [r.as_dict() for r in self.pickle_risks],
            "unbounded_payload_sites": [
                {"line": ln, "expr": expr}
                for ln, expr in self.unbounded_payload_sites
            ],
        }

    def render(self) -> str:
        """One-line human-readable form (``repro check --profile``)."""
        combiner = self.combiner_declared or (
            f"suggest {self.combiner_suggested}"
            if self.combiner_suggested
            else "none"
        )
        aggs = ",".join(n for n, _ in self.aggregators) or "-"
        flags = []
        if self.message_driven:
            flags.append("message-driven")
        if self.pickle_risks:
            flags.append(f"pickle-risks={len(self.pickle_risks)}")
        if self.unbounded_payload_sites:
            flags.append("unbounded-payload")
        tail = f"  [{' '.join(flags)}]" if flags else ""
        return (
            f"{self.file}:{self.line} {self.program}: "
            f"fan-out={self.fanout} payload<={self.payload.nbytes}B "
            f"combiner={combiner} aggregators={aggs}{tail}"
        )


# ----------------------------------------------------------------------
# Alias classification helpers
# ----------------------------------------------------------------------
def _mentions_any(node: ast.AST, ctx: str | None, attrs: set[str],
                  names: set[str]) -> bool:
    """True when the expression reads ``ctx.<attr in attrs>`` or a name."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr in attrs
            and isinstance(sub.value, ast.Name)
            and sub.value.id == ctx
        ):
            return True
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
    return False


def _derived_names(fn: ast.FunctionDef, ctx: str | None, attrs: set[str],
                   seeds: set[str]) -> set[str]:
    """Names transitively assigned from neighbor-bearing expressions.

    Covers plain assignment and walrus bindings (``if (ns :=
    ctx.out_neighbors())``); both introduce aliases the fan-out
    classifier must chase.
    """
    derived = set(seeds)
    for _ in range(3):  # fixed point over alias-of-alias chains
        grew = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _mentions_any(
                node.value, ctx, attrs, derived
            ):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id not in derived:
                        derived.add(t.id)
                        grew = True
            elif isinstance(node, ast.NamedExpr) and _mentions_any(
                node.value, ctx, attrs, derived
            ):
                if node.target.id not in derived:
                    derived.add(node.target.id)
                    grew = True
        if not grew:
            break
    return derived


def _send_aliases(fn: ast.FunctionDef, ctx: str | None) -> dict[str, str]:
    """Local names bound (possibly through chains) to a ctx send method.

    ``emit = ctx.send_to_neighbors; send = emit; send(x)`` must count as
    a send site, not silently profile as fan-out NONE.
    """
    if ctx is None:
        return {}
    aliases: dict[str, str] = {}
    for _ in range(3):  # alias-of-alias chains
        grew = False
        for node in ast.walk(fn):
            value = None
            if isinstance(node, ast.Assign):
                value = node.value
                targets = [
                    t for t in node.targets if isinstance(t, ast.Name)
                ]
            elif isinstance(node, ast.NamedExpr):
                value = node.value
                targets = [node.target]
            else:
                continue
            method = None
            if (
                isinstance(value, ast.Attribute)
                and value.attr in ("send", "send_to_neighbors")
                and isinstance(value.value, ast.Name)
                and value.value.id == ctx
            ):
                method = value.attr
            elif isinstance(value, ast.Name) and value.id in aliases:
                method = aliases[value.id]
            if method is None:
                continue
            for t in targets:
                if t.id not in aliases:
                    aliases[t.id] = method
                    grew = True
        if not grew:
            break
    return aliases


def _is_constant_iter(node: ast.expr) -> bool:
    """Iteration with a statically bounded trip count."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(isinstance(e, ast.Constant) for e in node.elts)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "range":
            return all(isinstance(a, ast.Constant) for a in node.args)
        if node.func.id == "enumerate" and node.args:
            return _is_constant_iter(node.args[0])
    return False


def _superstep_pin(test: ast.expr, ctx: str | None) -> int | None:
    """``ctx.superstep == <const>`` guard -> the pinned superstep."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
    ):
        return None
    left, right = test.left, test.comparators[0]
    for a, b in ((left, right), (right, left)):
        if (
            isinstance(a, ast.Attribute)
            and a.attr == "superstep"
            and isinstance(a.value, ast.Name)
            and a.value.id == ctx
            and isinstance(b, ast.Constant)
            and isinstance(b.value, int)
        ):
            return b.value
    return None


# ----------------------------------------------------------------------
# Payload model
# ----------------------------------------------------------------------
def _payload_model(expr: ast.expr | None) -> PayloadModel:
    if expr is None:
        return PayloadModel(kind="none", nbytes=0)
    if isinstance(expr, ast.Constant):
        v = expr.value
        if v is None:
            return PayloadModel(kind="none", nbytes=0)
        if isinstance(v, (bytes, str)):
            return PayloadModel(kind="scalar", nbytes=max(8, len(v)))
        return PayloadModel(kind="scalar", nbytes=8)
    if isinstance(expr, (ast.Tuple, ast.List)):
        total = 0
        bounded = True
        for elt in expr.elts:
            if isinstance(elt, ast.Starred):
                bounded = False
                total += 32
                continue
            sub = _payload_model(elt)
            bounded = bounded and sub.bounded
            total += max(8, sub.nbytes)
        return PayloadModel(
            kind="tuple", nbytes=total, width=len(expr.elts), bounded=bounded
        )
    if isinstance(expr, ast.Call):
        fname = None
        if isinstance(expr.func, ast.Name):
            fname = expr.func.id
        elif isinstance(expr.func, ast.Attribute):
            fname = expr.func.attr
        if fname in ("tuple", "list", "frozenset", "set", "dict", "sorted"):
            # A whole container built from runtime data: width unknown.
            return PayloadModel(kind="sequence", nbytes=64, bounded=False)
        return PayloadModel(kind="opaque", nbytes=32, bounded=True)
    if isinstance(
        expr,
        (ast.Name, ast.Attribute, ast.Subscript, ast.BinOp, ast.UnaryOp,
         ast.IfExp, ast.Compare),
    ):
        # Names/arithmetic are modelled as scalars — the dominant idiom
        # (rank mass, distances, labels); containers smuggled through a
        # bare name surface via the RPC014 accumulator check instead.
        return PayloadModel(kind="scalar", nbytes=8)
    return PayloadModel(kind="opaque", nbytes=32, bounded=True)


def _widest(models: Iterable[PayloadModel]) -> PayloadModel:
    best = PayloadModel(kind="none", nbytes=0)
    bounded = True
    for m in models:
        bounded = bounded and m.bounded
        if m.nbytes > best.nbytes or best.kind == "none":
            best = m
    if best.bounded != bounded:
        best = PayloadModel(
            kind=best.kind, nbytes=best.nbytes, width=best.width,
            bounded=bounded,
        )
    return best


# ----------------------------------------------------------------------
# Send-site discovery (the abstract-interpretation walk)
# ----------------------------------------------------------------------
class _SendWalker(ast.NodeVisitor):
    """Tracks enclosing loops and superstep guards down to each send."""

    def __init__(self, ctx_name: str | None, neighbor_names: set[str],
                 data_names: set[str],
                 helper_methods: frozenset[str] = frozenset(),
                 send_aliases: dict[str, str] | None = None) -> None:
        self.ctx = ctx_name
        self.neighbors = neighbor_names
        self.data = data_names
        self.helpers = helper_methods
        self.send_aliases = send_aliases or {}
        self.loop_stack: list[str] = []
        self.superstep_stack: list[int] = []
        self.sites: list[SendSite] = []
        #: ``self.<helper>(...)`` calls to expand interprocedurally:
        #: (method, call node, enclosing loops, enclosing superstep pins)
        self.helper_calls: list[
            tuple[str, ast.Call, tuple[str, ...], tuple[int, ...]]
        ] = []

    # -- loop classification -------------------------------------------
    def _classify_iter(self, node: ast.expr) -> str:
        src = node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("enumerate", "sorted", "reversed", "iter")
            and node.args
        ):
            src = node.args[0]
        if _is_constant_iter(src):
            return "constant"
        if _mentions_any(src, self.ctx, {"out_neighbors", "out_weights",
                                         "out_degree"}, self.neighbors):
            return "neighbors"
        return "data"

    def visit_For(self, node: ast.For) -> None:
        kind = self._classify_iter(node.iter)
        # The loop target iterates data-dependent content: names bound from
        # it are data-derived for any nested loop (triangles' `candidates`).
        if kind == "data":
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    self.data.add(t.id)
        self.loop_stack.append(kind)
        self.generic_visit(node)
        self.loop_stack.pop()

    def visit_While(self, node: ast.While) -> None:
        self.loop_stack.append("data")  # trip count is data-dependent
        self.generic_visit(node)
        self.loop_stack.pop()

    def visit_If(self, node: ast.If) -> None:
        pin = _superstep_pin(node.test, self.ctx)
        if pin is not None:
            self.superstep_stack.append(pin)
            for stmt in node.body:
                self.visit(stmt)
            self.superstep_stack.pop()
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)

    def visit_Match(self, node: ast.Match) -> None:
        # `match ctx.superstep:` pins each literal-int case the same way
        # an `if ctx.superstep == k:` chain would.
        subject_is_superstep = (
            isinstance(node.subject, ast.Attribute)
            and node.subject.attr == "superstep"
            and isinstance(node.subject.value, ast.Name)
            and node.subject.value.id == self.ctx
        )
        self.visit(node.subject)
        for case in node.cases:
            pin = None
            if (
                subject_is_superstep
                and isinstance(case.pattern, ast.MatchValue)
                and isinstance(case.pattern.value, ast.Constant)
                and isinstance(case.pattern.value.value, int)
            ):
                pin = case.pattern.value.value
            if pin is not None:
                self.superstep_stack.append(pin)
            for stmt in case.body:
                self.visit(stmt)
            if pin is not None:
                self.superstep_stack.pop()

    # -- the send sites -------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        call = None
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "send", "send_to_neighbors"
        ):
            call = node.func.attr
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in self.send_aliases
        ):
            call = self.send_aliases[node.func.id]
        if call is not None:
            loops = tuple(self.loop_stack)
            data = sum(1 for k in loops if k == "data")
            degree = call == "send_to_neighbors" or "neighbors" in loops
            if (degree and data >= 1) or data >= 2:
                # Amplification: messages beget degree-many (or nested
                # data-many) messages — the O(|V||E|) shape.
                fanout = FanoutClass.BROADCAST
            elif degree or data == 1:
                # A single data loop over the in-flow is non-amplifying:
                # replies are bounded by deliveries, themselves
                # edge-bounded — same order as a degree fan-out.
                fanout = FanoutClass.OUT_DEGREE
            else:
                fanout = FanoutClass.CONSTANT
            payload_expr: ast.expr | None = None
            if call == "send" and len(node.args) >= 2:
                payload_expr = node.args[1]
            elif call == "send_to_neighbors" and node.args:
                payload_expr = node.args[0]
            self.sites.append(
                SendSite(
                    line=node.lineno,
                    call=call,
                    loops=loops,
                    fanout=fanout,
                    payload=_payload_model(payload_expr),
                    superstep=(
                        self.superstep_stack[-1]
                        if self.superstep_stack
                        else None
                    ),
                )
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr in self.helpers
        ):
            self.helper_calls.append(
                (
                    node.func.attr,
                    node,
                    tuple(self.loop_stack),
                    tuple(self.superstep_stack),
                )
            )
        self.generic_visit(node)


def _fanout_coeffs(sites: list[SendSite]) -> tuple[int, int, int] | None:
    """Affine per-call bound ``alpha + beta*deg + gamma*len(messages)``."""
    alpha = beta = gamma = 0
    for s in sites:
        if s.fanout is FanoutClass.BROADCAST:
            return None
        if s.fanout is FanoutClass.CONSTANT:
            alpha += 1
        elif "data" in s.loops:
            gamma += 1
        else:
            beta += 1
    return (alpha, beta, gamma)


# ----------------------------------------------------------------------
# Combiner / aggregator inference
# ----------------------------------------------------------------------
_REDUCTION_COMBINERS = {
    "sum": "SumCombiner",
    "min": "MinCombiner",
    "max": "MaxCombiner",
}


def _call_type_name(expr: ast.expr) -> str | None:
    """``SumAggregator()`` / ``combiners.MinCombiner()`` -> the type name."""
    if not isinstance(expr, ast.Call):
        return None
    if isinstance(expr.func, ast.Name):
        return expr.func.id
    if isinstance(expr.func, ast.Attribute):
        return expr.func.attr
    return None


def _declared_combiner(program: ProgramInfo) -> str | None:
    """The combiner the program itself wires up, if any."""
    for stmt in program.node.body:
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name) and t.id == "combiner":
                    return _call_type_name(stmt.value) or "custom"
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "combiner"
                and stmt.value is not None
            ):
                return _call_type_name(stmt.value) or "custom"
    init = program.methods.get("__init__")
    if init is not None:
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if (
                        isinstance(t, ast.Attribute)
                        and t.attr == "combiner"
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        and not (
                            isinstance(node.value, ast.Constant)
                            and node.value.value is None
                        )
                    ):
                        return _call_type_name(node.value) or "custom"
    return None


def _detect_reduction(fn: ast.FunctionDef, message_names: set[str]) -> str | None:
    """A commutative/associative fold of the delivered messages."""
    loop_vars: dict[str, str] = {}  # loop var -> owning messages name
    for node in ast.walk(fn):
        # Direct builtin fold: min(messages, ...), sum(messages), ...
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _REDUCTION_COMBINERS
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in message_names
        ):
            return node.func.id
        if isinstance(node, ast.For):
            if (
                isinstance(node.iter, ast.Name)
                and node.iter.id in message_names
                and isinstance(node.target, ast.Name)
            ):
                loop_vars[node.target.id] = node.iter.id
    if loop_vars:
        # Accumulation loop: `for m in messages: acc += m`.
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Name)
                and isinstance(node.value, ast.Name)
                and node.value.id in loop_vars
            ):
                return "sum"
    return None


def _declared_aggregators(program: ProgramInfo) -> tuple[tuple[str, str], ...]:
    fn = program.methods.get("aggregators")
    if fn is None:
        return ()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            out = []
            for k, v in zip(node.value.keys, node.value.values):
                name = _constant_str(k) if k is not None else None
                if name is None:
                    continue
                out.append((name, _call_type_name(v) or "unknown"))
            return tuple(out)
    return ()


# ----------------------------------------------------------------------
# Pickle safety (RPC011 substrate)
# ----------------------------------------------------------------------
def _unpicklable_reason(expr: ast.expr, module: ModuleInfo) -> str | None:
    """Why an assigned/returned expression cannot cross a process boundary."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Lambda):
            return "a lambda (unpicklable function object)"
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                resolved = module.from_imports.get(sub.func.id)
                if sub.func.id == "open":
                    return "an open file handle"
                if resolved is not None:
                    mod, attr = resolved
                    if mod in ("threading", "multiprocessing", "_thread") and (
                        attr in _LOCK_CONSTRUCTORS
                    ):
                        return f"a {mod}.{attr} (unpicklable lock)"
            elif isinstance(sub.func, ast.Attribute):
                chain = _attr_chain(sub.func)
                if chain and len(chain) >= 2:
                    root = module.module_aliases.get(chain[0])
                    if root in ("threading", "multiprocessing") and (
                        chain[-1] in _LOCK_CONSTRUCTORS
                    ):
                        return f"a {root}.{chain[-1]} (unpicklable lock)"
                    if root == "io" and chain[-1] == "open":
                        return "an open file handle"
    return None


def _nested_function_names(fn: ast.FunctionDef) -> set[str]:
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.FunctionDef) and node is not fn:
            out.add(node.name)
    return out


def _pickle_risks(program: ProgramInfo, module: ModuleInfo) -> list[PickleRisk]:
    risks: list[PickleRisk] = []
    for method in ("__init__", "init_state", "compute"):
        fn = program.methods.get(method)
        if fn is None:
            continue
        closures = _nested_function_names(fn)
        lambda_locals = {
            t.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda)
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        nested_returns = {
            id(r)
            for nf in ast.walk(fn)
            if isinstance(nf, ast.FunctionDef) and nf is not fn
            for r in ast.walk(nf)
            if isinstance(r, ast.Return)
        }
        state_name = (
            program.state_name if method == "compute" else None
        )
        for node in ast.walk(fn):
            value: ast.expr | None = None
            where = None
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        value, where = node.value, f"self.{t.attr}"
                    elif (
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        and state_name is not None
                        and _rooted_at_name(t, state_name)
                    ):
                        value, where = node.value, "the vertex state"
            elif isinstance(node, ast.Return) and id(node) not in nested_returns:
                if method == "init_state":
                    value, where = node.value, "the initial vertex state"
                elif method == "compute" and (
                    isinstance(node.value, ast.Lambda)
                    or (
                        isinstance(node.value, ast.Name)
                        and node.value.id in (closures | lambda_locals)
                    )
                ):
                    # Returned value *becomes* the vertex state; a direct
                    # function object there breaks every pickle boundary.
                    value, where = node.value, "the returned vertex state"
            if value is None:
                continue
            reason = _unpicklable_reason(value, module)
            if reason is None and isinstance(value, ast.Name) and (
                value.id in (closures | lambda_locals)
            ):
                reason = "a closure defined inside the method"
            if reason is not None:
                risks.append(
                    PickleRisk(
                        line=node.lineno,
                        method=method,
                        detail=f"{where} holds {reason}",
                    )
                )
    return risks


def _rooted_at_name(node: ast.expr, name: str) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == name


# ----------------------------------------------------------------------
# Unbounded accumulators leaking into payloads (RPC014 substrate)
# ----------------------------------------------------------------------
def _grown_state_paths(fn: ast.FunctionDef, state_name: str | None) -> set[str]:
    """Dotted paths of state containers compute() grows each call."""
    if state_name is None:
        return set()
    grown: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _GROWTH_CALLS:
                chain = _attr_chain(node.func)
                if chain and chain[0] == state_name and len(chain) >= 2:
                    grown.add(".".join(chain[:-1]))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                if isinstance(t, ast.Subscript) and _rooted_at_name(
                    t.value, state_name
                ):
                    chain = _attr_chain(t.value)
                    if chain:
                        grown.add(".".join(chain))
    return grown


def _payload_references(expr: ast.expr, paths: set[str],
                        state_name: str) -> str | None:
    """The grown path a payload expression reads, if any."""
    for sub in ast.walk(expr):
        if isinstance(sub, (ast.Attribute, ast.Name)):
            chain = _attr_chain(sub) if isinstance(sub, ast.Attribute) else (
                [sub.id]
            )
            if not chain or chain[0] != state_name:
                continue
            dotted = ".".join(chain)
            for p in paths:
                if dotted == p or dotted.startswith(p + ".") or (
                    p.startswith(dotted + ".")
                ):
                    return p
            if len(chain) == 1 and paths:
                # The bare state object itself shipped as a payload while
                # compute() grows one of its containers.
                return next(iter(sorted(paths)))
    return None


def _unbounded_payload_sites(
    fn: ast.FunctionDef, state_name: str | None
) -> list[tuple[int, str]]:
    grown = _grown_state_paths(fn, state_name)
    if not grown or state_name is None:
        return []
    out: list[tuple[int, str]] = []
    for node in ast.walk(fn):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("send", "send_to_neighbors")
        ):
            continue
        payload = None
        if node.func.attr == "send" and len(node.args) >= 2:
            payload = node.args[1]
        elif node.func.attr == "send_to_neighbors" and node.args:
            payload = node.args[0]
        if payload is None:
            continue
        path = _payload_references(payload, grown, state_name)
        if path is not None:
            out.append((node.lineno, path))
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _module_is_message_driven(module: ModuleInfo) -> bool:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "start_messages":
            return True
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name) and t.id == "start_messages":
                    return True
    return False


def _collect_sites(
    program: ProgramInfo,
) -> tuple[list[SendSite], str | None, list[tuple[int, str]]]:
    """Walk compute() plus the ``self.*`` helpers it delegates to.

    Programs like bipartite matching route all their sends through
    per-role helper methods (``self._compute_left(ctx, state, messages,
    ...)``); a compute()-only walk would report them message-silent.  The
    worklist expands each ``self.<helper>()`` call once (depth-capped),
    remapping the caller's ctx/state/messages names onto the helper's
    formals from the call-site arguments, and inheriting the call site's
    enclosing loops and superstep pins as a prefix.
    """
    fn = program.compute
    if fn is None:
        return [], None, []
    helper_names = frozenset(
        name for name in program.methods if name != "compute"
    )
    sites: list[SendSite] = []
    reduction: str | None = None
    unbounded: list[tuple[int, str]] = []
    expanded: set[str] = set()
    # (fn, ctx name, state name, messages seeds, loop prefix, pin prefix, depth)
    worklist: list[
        tuple[ast.FunctionDef, str | None, str | None, set[str],
              tuple[str, ...], tuple[int, ...], int]
    ] = [
        (
            fn,
            program.ctx_name,
            program.state_name,
            {program.messages_name} if program.messages_name else set(),
            (),
            (),
            0,
        )
    ]
    while worklist:
        cur, ctx, state, msg_seeds, loops, pins, depth = worklist.pop()
        neighbor_names = _derived_names(
            cur, ctx, {"out_neighbors", "out_weights"}, set()
        )
        message_names = (
            _collect_aliases(cur, msg_seeds) if msg_seeds else set()
        )
        walker = _SendWalker(
            ctx, neighbor_names, set(message_names), helper_names,
            send_aliases=_send_aliases(cur, ctx),
        )
        walker.loop_stack = list(loops)
        walker.superstep_stack = list(pins)
        walker.visit(cur)
        sites.extend(walker.sites)
        if reduction is None:
            reduction = _detect_reduction(cur, message_names)
        unbounded.extend(_unbounded_payload_sites(cur, state))
        if depth >= 3:
            continue
        for name, call, call_loops, call_pins in walker.helper_calls:
            if name in expanded:
                continue
            expanded.add(name)
            helper = program.methods[name]
            formals = [a.arg for a in helper.args.args]
            h_ctx: str | None = None
            h_state: str | None = None
            h_msgs: set[str] = set()
            for i, arg in enumerate(call.args):
                slot = i + 1  # formals[0] is self
                if slot >= len(formals) or not isinstance(arg, ast.Name):
                    continue
                if arg.id == ctx:
                    h_ctx = formals[slot]
                elif arg.id in message_names:
                    h_msgs.add(formals[slot])
                elif state is not None and arg.id == state:
                    h_state = formals[slot]
            worklist.append(
                (helper, h_ctx, h_state, h_msgs, call_loops, call_pins,
                 depth + 1)
            )
    sites.sort(key=lambda s: s.line)
    return sites, reduction, unbounded


def profile_program(program: ProgramInfo, module: ModuleInfo) -> ProgramProfile:
    """Build the static cost model of one VertexProgram subclass."""
    sites, reduction, unbounded = _collect_sites(program)

    fanout = max(
        (s.fanout for s in sites),
        key=lambda c: c.level,
        default=FanoutClass.NONE,
    )
    by_superstep: dict[int | None, FanoutClass] = {}
    for s in sites:
        prev = by_superstep.get(s.superstep, FanoutClass.NONE)
        if s.fanout.level > prev.level:
            by_superstep[s.superstep] = s.fanout

    declared = _declared_combiner(program)
    suggested = None
    if declared is None and reduction is not None:
        widest = _widest(s.payload for s in sites)
        if widest.kind in ("none", "scalar"):
            suggested = _REDUCTION_COMBINERS[reduction]

    return ProgramProfile(
        program=program.node.name,
        file=module.filename,
        line=program.node.lineno,
        fanout=fanout,
        fanout_coeffs=_fanout_coeffs(sites),
        send_sites=tuple(sites),
        fanout_by_superstep=tuple(
            sorted(
                by_superstep.items(),
                key=lambda kv: (kv[0] is None, kv[0] if kv[0] is not None else 0),
            )
        ),
        payload=_widest(s.payload for s in sites),
        combiner_declared=declared,
        reduction=reduction,
        combiner_suggested=suggested,
        aggregators=_declared_aggregators(program),
        message_driven=_module_is_message_driven(module),
        pickle_risks=tuple(_pickle_risks(program, module)),
        unbounded_payload_sites=tuple(unbounded),
    )


def profile_source(
    source: str, filename: str = "<string>"
) -> list[ProgramProfile]:
    """Profiles of every VertexProgram subclass in one module's source."""
    from .analyzer import _find_programs  # shared discovery, no cycle at import

    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return []
    module = ModuleInfo.build(tree, filename)
    return [profile_program(p, module) for p in _find_programs(tree)]


def profile_file(path: str | Path) -> list[ProgramProfile]:
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return []
    return profile_source(source, filename=str(path))


def profile_paths(targets: Iterable[str]) -> list[ProgramProfile]:
    from .analyzer import iter_python_files

    out: list[ProgramProfile] = []
    for path in iter_python_files(targets):
        out.extend(profile_file(path))
    return out


#: source path -> (source text, its profiles); see :func:`live_verdict`
_PROFILED: dict[str, tuple[str, list[ProgramProfile]]] = {}


def profile_of(program: Any) -> ProgramProfile | None:
    """Profile a *live* program object (or class) from its source file,
    profiled once per process while the file is unchanged.

    Unwraps tracing/sanitizing wrappers (anything exposing ``.inner``).
    Returns None when the source cannot be located (REPL/exec-defined
    classes) — callers treat an absent profile as "no static knowledge".
    """
    return live_verdict(program, profile_source, _PROFILED)


def estimate_bytes_per_root(
    profile: ProgramProfile,
    num_vertices: int,
    num_edges: int,
    num_workers: int,
    overhead_bytes: int = 48,
    state_bytes_per_vertex: int = 48,
) -> float:
    """Model-predicted marginal peak per-worker bytes per traversal root.

    For a broadcast-class traversal one root's wave can put O(|E|)
    messages in flight at its peak (§IV's triangle waveform), split across
    workers, each costing the modelled payload plus buffering overhead;
    per-root state (BC's root records, APSP's distance entries) adds one
    entry per reached vertex.  Bounded-fan-out programs don't scale with
    roots, so their per-root marginal cost is a single wavefront row.
    This is a *prior*, not ground truth: the sampling sizer still verifies
    it against one real probe swath before committing.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    payload = max(8, profile.payload.nbytes)
    if not profile.payload.bounded:
        payload *= 4  # pessimism for statically unbounded payloads
    per_msg = payload + overhead_bytes
    edges = max(num_edges, num_vertices, 1)
    if profile.fanout is FanoutClass.BROADCAST:
        wave = edges / num_workers
    else:
        wave = max(num_vertices, 1) / num_workers
    state = (max(num_vertices, 1) / num_workers) * state_bytes_per_vertex
    if profile.fanout is not FanoutClass.BROADCAST:
        state = 0.0
    return wave * per_msg + state
