"""Vectorization front-end: lift ``compute()`` ASTs into KernelPlan IR.

The costmodel pass (PR 4) answers *how many bytes* a vertex program moves;
this pass answers *what dataflow* it performs, precisely enough to replay
it with NumPy array kernels instead of a per-vertex Python loop.  It is an
abstract interpreter over the ``compute()`` AST that either

* **lifts** the program into a small declarative :class:`KernelPlan` —
  typed gather / map / scatter-over-CSR / segment-reduce / halt-mask ops
  with an explicit per-superstep phase schedule — or
* **refuses** with a precise finding naming the blocking AST span.

The verdicts surface as four catalog rules (only run under
``repro check --kernel-plan``):

* **RPC015** (info) — program lifts; the finding carries the plan digest.
* **RPC016** (info) — data-dependent control flow / dataflow blocks dense
  mode (message-amplifying fan-out, opaque calls, order-sensitive halts).
* **RPC017** (info) — state or payload schema is not fixed-width /
  NumPy-representable (dicts, lists, variable tuples, opaque objects).
* **RPC018** (info) — the message reduction is not a known monoid
  (ties into the costmodel's combiner inference).

Honesty contract: the analyzer is only allowed to claim RPC015 for
programs that :mod:`repro.bsp.dense_ref` *proves* equivalent to
``BSPEngine`` via ``certify_determinism`` — the test suite certifies every
lifted bundled algorithm, so a false-positive "vectorizable" verdict is a
test failure, not a latent bug.

Expression IR
-------------
Expressions are nested tuples, ``(op, *children)``.  Leaves::

    ("const", v)        literal scalar (bool / int / float)
    ("param", name)     program attribute, resolved when the plan is bound
    ("state",)          per-vertex state vector (value at superstep entry)
    ("vertex",)         vertex ids 0..n-1
    ("superstep",)      current superstep index (scalar)
    ("nv",)             graph.num_vertices (scalar)
    ("out_degree",)     live out-degree vector (respects edge removals)
    ("msg",)            gathered message value (monoid-reduced, default
                        applied where no message arrived)
    ("msg_count",)      deliveries per vertex this superstep
    ("agg", name)       aggregate merged at the previous barrier (scalar)
    ("edge_weight",)    per-arc weight (scatter payloads only)

Compound: ``add sub mul div floordiv mod pow min2 max2 neg abs``,
comparisons ``lt le gt ge eq ne``, logic ``and or not``, selection
``("where", cond, a, b)``, casts ``cast_int cast_float cast_bool``.

Ops (:class:`KOp`) are effects, each masked by a vector ``where``::

    scatter(payload)     send payload along live out-arcs of masked vertices
    aggregate(name, v)   contribute v to a Sum aggregator
    vote(...)            vote_to_halt
    prune_received(...)  remove the reciprocal arc of each delivered arc
                         (k-core peel idiom), applied next superstep
    drop_edges(...)      remove every live out-arc of masked vertices,
                         applied next superstep

Phases group ops under scalar superstep guards (``if ctx.superstep == k``
and friends), giving the per-superstep schedule the dense executor walks.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .costmodel import (
    FanoutClass,
    _declared_aggregators,
    _declared_combiner,
    profile_program,
)
from .findings import Severity
from .rules import (
    ModuleInfo,
    ProgramInfo,
    Rule,
    _attr_chain,
    _constant_str,
    live_verdict,
)

__all__ = [
    "Expr",
    "KOp",
    "KernelPhase",
    "KernelPlan",
    "LiftRefusal",
    "LiftResult",
    "KERNEL_RULES",
    "lift_program",
    "lift_source",
    "lift_file",
    "lift_paths",
    "lift_of",
    "lift_verdict",
    "render_expr",
]

Expr = tuple

#: Declared combiner class name -> the monoid it folds; a compute() body
#: whose message fold disagrees with its declared combiner cannot be
#: replayed densely (the engine delivers per-worker partials, the dense
#: executor folds raw messages — only matching monoids commute).
_COMBINER_MONOID = {
    "SumCombiner": "sum",
    "MinCombiner": "min",
    "MaxCombiner": "max",
}

_BINOPS = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.Div: "div",
    ast.FloorDiv: "floordiv",
    ast.Mod: "mod",
    ast.Pow: "pow",
}

_CMPOPS = {
    ast.Lt: "lt",
    ast.LtE: "le",
    ast.Gt: "gt",
    ast.GtE: "ge",
    ast.Eq: "eq",
    ast.NotEq: "ne",
}

_MATH_CONSTS = {"inf": float("inf"), "nan": float("nan"), "pi": 3.141592653589793,
                "e": 2.718281828459045, "tau": 6.283185307179586}

# Internal markers threaded through the environment while translating
# idioms; they never appear in an emitted plan.
_MESSAGES = ("__messages__",)
_COUNTER = ("__counter__",)
_MODE_BEST = ("__mode_best__",)


class LiftRefusal(Exception):
    """Lifting failed; carries the rule verdict and the blocking span."""

    def __init__(self, rule_id: str, node: ast.AST | None, reason: str):
        super().__init__(reason)
        self.rule_id = rule_id
        self.reason = reason
        self.line = getattr(node, "lineno", 1)
        self.col = getattr(node, "col_offset", 0) + 1


@dataclass(frozen=True)
class KOp:
    """One masked effect in a kernel plan."""

    kind: str  # scatter | aggregate | vote | prune_received | drop_edges
    where: Expr | None = None
    payload: Expr | None = None  # scatter
    name: str | None = None  # aggregate
    value: Expr | None = None  # aggregate
    #: optimizer mark (repro.check.planopt): the payload's vertex-space
    #: subtrees are shared with other vertex-evaluated expressions, so the
    #: dense executor should evaluate vertex-space then index per-arc.
    hoist: bool = False

    def as_dict(self) -> dict:
        out: dict[str, Any] = {"op": self.kind}
        if self.where is not None:
            out["where"] = _expr_json(self.where)
        if self.payload is not None:
            out["payload"] = _expr_json(self.payload)
        if self.name is not None:
            out["name"] = self.name
        if self.value is not None:
            out["value"] = _expr_json(self.value)
        if self.hoist:
            out["hoist"] = True
        return out


@dataclass(frozen=True)
class KernelPhase:
    """Ops that run under one scalar superstep guard (None = every step)."""

    guard: Expr | None
    ops: tuple[KOp, ...]

    def as_dict(self) -> dict:
        return {
            "guard": _expr_json(self.guard) if self.guard is not None else None,
            "ops": [op.as_dict() for op in self.ops],
        }


@dataclass(frozen=True)
class KernelPlan:
    """The declarative dense form of one vertex program."""

    program: str
    file: str
    line: int
    state_dtype: str
    state_init: Expr
    message_dtype: str
    #: "sum" | "min" | "max" | "mode" | "count"; None when compute() never
    #: reads its messages (pure generator programs).
    reduce: str | None
    gather_default: Expr | None
    include_self: bool  # mode-reduce counts the vertex's own label once
    phases: tuple[KernelPhase, ...]
    state_update: Expr | None
    params: tuple[str, ...]
    #: program attributes that must be None when the plan is bound (the
    #: lifter proved only the attr-is-None branch of compute()).
    requires_none: tuple[str, ...]
    uses_mutation: bool  # peel programs maintain a live-arc mask
    has_master: bool
    aggregates: tuple[str, ...]  # aggregator names compute() contributes to
    digest: str = field(default="", compare=False)

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "file": self.file,
            "line": self.line,
            "state_dtype": self.state_dtype,
            "state_init": _expr_json(self.state_init),
            "message_dtype": self.message_dtype,
            "reduce": self.reduce,
            "gather_default": (
                _expr_json(self.gather_default)
                if self.gather_default is not None
                else None
            ),
            "include_self": self.include_self,
            "phases": [p.as_dict() for p in self.phases],
            "state_update": (
                _expr_json(self.state_update)
                if self.state_update is not None
                else None
            ),
            "params": list(self.params),
            "requires_none": list(self.requires_none),
            "uses_mutation": self.uses_mutation,
            "has_master": self.has_master,
            "aggregates": list(self.aggregates),
            "digest": self.digest,
        }

    @property
    def num_ops(self) -> int:
        return sum(len(p.ops) for p in self.phases)

    @property
    def needs_prune(self) -> bool:
        """Peel plans prune by arc identity, so they cannot start from
        injected messages (which arrive on no arc)."""
        return any(
            op.kind == "prune_received" for p in self.phases for op in p.ops
        )


def _expr_json(e: Expr) -> list:
    """Tuples -> lists, recursively (canonical JSON form)."""
    return [_expr_json(c) if isinstance(c, tuple) else c for c in e]


def _plan_digest(plan_dict: dict) -> str:
    body = dict(plan_dict)
    body.pop("digest", None)
    body.pop("file", None)  # digest is content-addressed, not path-addressed
    body.pop("line", None)
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def render_expr(e: Expr | None) -> str:
    """S-expression text form for findings, docs, and debugging."""
    if e is None:
        return "-"
    head, *rest = e
    if head == "const":
        return repr(rest[0])
    if not rest:
        return head
    if head in ("param", "agg"):
        return f"({head} {rest[0]})"
    return "(" + " ".join([head] + [render_expr(c) for c in rest]) + ")"


# ----------------------------------------------------------------------
# Expression algebra helpers
# ----------------------------------------------------------------------
def _conj(*parts: Expr | None) -> Expr | None:
    out: Expr | None = None
    for p in parts:
        if p is None:
            continue
        out = p if out is None else ("and", out, p)
    return out


def _neg(e: Expr) -> Expr:
    if e[0] == "not":
        return e[1]
    return ("not", e)


_SCALAR_LEAVES = {"const", "param", "superstep", "nv", "agg"}
_VECTOR_LEAVES = {"state", "vertex", "out_degree", "msg", "msg_count",
                  "edge_weight"}


def _is_scalar(e: Expr) -> bool:
    head = e[0]
    if head in _SCALAR_LEAVES:
        return True
    if head in _VECTOR_LEAVES:
        return False
    return all(_is_scalar(c) for c in e[1:] if isinstance(c, tuple))


_DTYPE_RANK = {"bool": 0, "int64": 1, "float64": 2}


def _promote(*dts: str | None) -> str:
    best = None
    for d in dts:
        if d is None:
            continue
        if best is None or _DTYPE_RANK[d] > _DTYPE_RANK[best]:
            best = d
    return best or "float64"


def _dtype_of(e: Expr, state: str, msg: str | None) -> str | None:
    """Static dtype of an expression; None for bind-time params."""
    head = e[0]
    if head == "const":
        v = e[1]
        if isinstance(v, bool):
            return "bool"
        if isinstance(v, int):
            return "int64"
        return "float64"
    if head == "param":
        return None  # adopts the dtype of whatever it combines with
    if head in ("vertex", "nv", "superstep", "msg_count", "out_degree"):
        return "int64"
    if head == "state":
        return state
    if head == "msg":
        return msg or state
    if head in ("edge_weight", "div", "cast_float", "agg", "pow"):
        return "float64"
    if head in ("cast_int", "floordiv"):
        return "int64"
    if head in ("lt", "le", "gt", "ge", "eq", "ne", "and", "or", "not",
                "cast_bool"):
        return "bool"
    if head == "where":
        return _promote(_dtype_of(e[2], state, msg), _dtype_of(e[3], state, msg))
    return _promote(*(
        _dtype_of(c, state, msg) for c in e[1:] if isinstance(c, tuple)
    ))


# ----------------------------------------------------------------------
# The lifter
# ----------------------------------------------------------------------
class _Lifter:
    """Symbolic evaluator over one ``compute()`` body.

    Locals live in ``env`` (name -> expression IR); conditionals fold into
    ``where`` expressions, so every emitted expression references only
    superstep-entry arrays and op ordering cannot matter.  Effects are
    recorded as masked ops tagged with the current scalar guard for phase
    grouping.  Anything outside the modeled language raises
    :class:`LiftRefusal` with the blocking node.
    """

    def __init__(self, program: ProgramInfo, module: ModuleInfo):
        self.program = program
        self.module = module
        self.ctx = program.ctx_name
        self.state_name = program.state_name
        self.messages_name = program.messages_name
        self.env: dict[str, Expr] = {}
        if self.state_name:
            self.env[self.state_name] = ("state",)
        if self.messages_name:
            self.env[self.messages_name] = _MESSAGES
        self.mask: Expr | None = None  # vector condition on the vertex
        self.guard: Expr | None = None  # scalar (superstep) condition
        self.op_records: list[tuple[Expr | None, KOp]] = []
        self.early: list[tuple[Expr, Expr]] = []
        self.final: Expr | None = None
        self.done = False
        self.reduce: str | None = None
        self.gather_default: Expr | None = None
        self.include_self = False
        self.params: set[str] = set()
        self.requires_none: set[str] = set()
        self.uses_mutation = False
        self.agg_dtypes: dict[str, str] = {}
        self.peel_token: Any = None  # payload slot-0 constant of peel msgs
        self.declared_aggs = dict(_declared_aggregators(program))
        self.module_consts = self._module_constants(module)
        self.helper_depth = 0
        self.branch_depth = 0

    # -- setup helpers -------------------------------------------------
    @staticmethod
    def _module_constants(module: ModuleInfo) -> dict[str, Any]:
        consts: dict[str, Any] = {}
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, (bool, int, float))
            ):
                consts[stmt.targets[0].id] = stmt.value.value
        return consts

    def refuse(self, rule: str, node: ast.AST | None, reason: str) -> LiftRefusal:
        return LiftRefusal(rule, node, reason)

    def _cond(self) -> Expr | None:
        return _conj(self.guard, self.mask)

    def _emit(self, op: KOp) -> None:
        self.op_records.append((self.guard, op))

    def _set_reduce(self, kind: str, default: Expr | None, node: ast.AST) -> None:
        if self.reduce is not None and self.reduce != kind:
            raise self.refuse(
                "RPC018", node,
                f"compute() folds messages two different ways "
                f"({self.reduce} and {kind}); a dense gather needs one monoid",
            )
        self.reduce = kind
        if default is not None:
            self.gather_default = default

    # -- binding -------------------------------------------------------
    def _bind(self, name: str, value: Expr, node: ast.AST) -> None:
        if value in (_MESSAGES, _COUNTER, _MODE_BEST):
            self.env[name] = value  # structural markers bind unconditionally
            return
        cond = self._cond()
        if cond is None:
            self.env[name] = value
        else:
            prev = self.env.get(name, ("const", 0))
            self.env[name] = ("where", cond, value, prev)

    # -- statement dispatch --------------------------------------------
    def run(self, body: list[ast.stmt]) -> None:
        self._block(body)
        if not self.done:
            raise self.refuse(
                "RPC016", self.program.compute,
                "not every path through compute() returns a state value",
            )

    def _block(self, stmts: list[ast.stmt]) -> bool:
        """Translate a suite; True when it ends in an unconditional return."""
        for i, stmt in enumerate(stmts):
            if self.done:
                break  # code after a top-level return is unreachable
            self._stmt(stmt)
            if isinstance(stmt, ast.Return):
                return True
        return False

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return  # docstring / bare literal
            if isinstance(node.value, ast.Call):
                self._effect_call(node.value)
                return
            if isinstance(node.value, ast.NamedExpr):
                self._expr(node.value)
                return
            raise self.refuse(
                "RPC016", node, "expression statement with no liftable effect"
            )
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
                raise self.refuse(
                    "RPC016", node,
                    "only single-name assignments are liftable",
                )
            self._bind(node.targets[0].id, self._expr(node.value), node)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is None or not isinstance(node.target, ast.Name):
                raise self.refuse("RPC016", node, "unliftable annotated assignment")
            self._bind(node.target.id, self._expr(node.value), node)
            return
        if isinstance(node, ast.AugAssign):
            self._augassign(node)
            return
        if isinstance(node, ast.If):
            self._if(node)
            return
        if isinstance(node, ast.For):
            self._for(node)
            return
        if isinstance(node, ast.Return):
            self._return(node)
            return
        if isinstance(node, ast.Match):
            self._match(node)
            return
        if isinstance(node, ast.Pass):
            return
        raise self.refuse(
            "RPC016", node,
            f"{type(node).__name__} statements are data-dependent control "
            "flow the dense executor cannot schedule",
        )

    def _augassign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            # LPA self-label damping: counts[state] += 1 on a Counter.
            base = node.target.value
            if (
                isinstance(base, ast.Name)
                and self.env.get(base.id) == _COUNTER
                and isinstance(node.op, ast.Add)
                and isinstance(node.value, ast.Constant)
                and node.value.value == 1
            ):
                idx = self._expr(node.target.slice)
                if idx != ("state",):
                    raise self.refuse(
                        "RPC018", node,
                        "mode reduction only lifts when the vertex's own "
                        "contribution is its current state",
                    )
                self.include_self = True
                return
            raise self.refuse(
                "RPC018", node,
                "in-place update of a subscripted value is not a known "
                "monoid fold",
            )
        if not isinstance(node.target, ast.Name):
            raise self.refuse("RPC016", node, "unliftable augmented target")
        name = node.target.id
        if name not in self.env:
            raise self.refuse(
                "RPC016", node, f"augmented assignment to unbound name '{name}'"
            )
        opname = _BINOPS.get(type(node.op))
        if opname is None:
            raise self.refuse(
                "RPC018", node,
                f"augmented fold '{type(node.op).__name__}' is not a known "
                "monoid",
            )
        value = self._expr(node.value)
        self._bind(name, (opname, self.env[name], value), node)

    # -- conditionals --------------------------------------------------
    def _bind_time_none_test(self, test: ast.expr) -> tuple[str, bool] | None:
        """``self.attr is [not] None`` -> (attr, body_live_when_none)."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return None
        chain = _attr_chain(test.left)
        if not (chain and len(chain) == 2 and chain[0] == "self"):
            return None
        return chain[1], isinstance(test.ops[0], ast.Is)

    def _if(self, node: ast.If) -> None:
        bind_none = self._bind_time_none_test(node.test)
        if bind_none is not None:
            attr, body_when_none = bind_none
            self.requires_none.add(attr)
            live = node.body if body_when_none else node.orelse
            self._block(live)
            return

        test = self._expr(node.test)
        scalar = _is_scalar(test)
        pre_env = dict(self.env)

        body_env, body_ret = self._branch(node.body, test, scalar, pre_env)
        if node.orelse:
            else_env, else_ret = self._branch(
                node.orelse, _neg(test), scalar, pre_env
            )
        else:
            else_env, else_ret = pre_env, False

        if body_ret and else_ret:
            self.done = True
            return
        if body_ret:
            self.env = else_env
            self._narrow(_neg(test), scalar)
            return
        if else_ret:
            self.env = body_env
            self._narrow(test, scalar)
            return

        eff = _conj(self.guard, self.mask, test)
        merged = dict(pre_env)
        for n in set(body_env) | set(else_env):
            b = body_env.get(n, pre_env.get(n, ("const", 0)))
            e = else_env.get(n, pre_env.get(n, ("const", 0)))
            if b == e:
                merged[n] = b
            else:
                merged[n] = ("where", eff, b, e)
        self.env = merged

    def _branch(
        self,
        stmts: list[ast.stmt],
        test: Expr,
        scalar: bool,
        pre_env: dict[str, Expr],
    ) -> tuple[dict[str, Expr], bool]:
        saved = (self.env, self.mask, self.guard)
        self.env = dict(pre_env)
        if scalar:
            self.guard = _conj(self.guard, test)
        else:
            self.mask = _conj(self.mask, test)
        self.branch_depth += 1
        try:
            returned = self._block(stmts)
        finally:
            self.branch_depth -= 1
        env = self.env
        self.env, self.mask, self.guard = saved
        return env, returned

    def _narrow(self, test: Expr, scalar: bool) -> None:
        if scalar:
            self.guard = _conj(self.guard, test)
        else:
            self.mask = _conj(self.mask, test)

    def _match(self, node: ast.Match) -> None:
        subject = self._expr(node.subject)
        if not _is_scalar(subject):
            raise self.refuse(
                "RPC016", node,
                "match on a per-vertex value is data-dependent control flow",
            )
        seen: Expr | None = None
        for case in node.cases:
            if case.guard is not None:
                raise self.refuse("RPC016", case.pattern, "guarded match case")
            if isinstance(case.pattern, ast.MatchValue):
                if not isinstance(case.pattern.value, ast.Constant):
                    raise self.refuse(
                        "RPC016", case.pattern, "non-constant match pattern"
                    )
                test: Expr = ("eq", subject, ("const", case.pattern.value.value))
            elif (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.pattern.name is None
            ):
                test = ("const", True)  # wildcard case _
            else:
                raise self.refuse(
                    "RPC016", case.pattern,
                    f"{type(case.pattern).__name__} match pattern is not "
                    "liftable",
                )
            eff = test if seen is None else _conj(_neg(seen), test)
            pre_env = dict(self.env)
            env, returned = self._branch(case.body, eff, True, pre_env)
            if returned:
                raise self.refuse(
                    "RPC016", case.pattern, "return inside a match case"
                )
            cond = _conj(self.guard, self.mask, eff)
            for n, v in env.items():
                if pre_env.get(n) != v:
                    self.env[n] = ("where", cond, v, pre_env.get(n, ("const", 0)))
            seen = test if seen is None else ("or", seen, test)

    # -- loops ---------------------------------------------------------
    def _is_messages(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Name) and self.env.get(node.id) == _MESSAGES
        )

    def _for(self, node: ast.For) -> None:
        if node.orelse:
            raise self.refuse("RPC016", node, "for/else is not liftable")
        if self._is_messages(node.iter):
            self._message_loop(node)
            return
        neigh = self._neighbor_iter(node.iter)
        if neigh is not None:
            self._neighbor_loop(node, weighted=neigh)
            return
        raise self.refuse(
            "RPC016", node.iter,
            "loop over a data-dependent iterable (only the delivered "
            "messages and ctx.out_neighbors are liftable)",
        )

    def _neighbor_iter(self, it: ast.expr) -> bool | None:
        """None = not a neighbor loop; False = plain; True = zip(w) form."""
        chain = _attr_chain(it)
        if chain == [self.ctx, "out_neighbors"]:
            return False
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "zip"
            and len(it.args) == 2
            and _attr_chain(it.args[0]) == [self.ctx, "out_neighbors"]
            and _attr_chain(it.args[1]) == [self.ctx, "out_weights"]
        ):
            return True
        return None

    def _message_loop(self, node: ast.For) -> None:
        if not isinstance(node.target, ast.Name):
            raise self.refuse(
                "RPC018", node.target,
                "destructuring message payloads in a fold is not a known "
                "monoid",
            )
        mvar = node.target.id
        body = node.body
        # Idiom A: sum accumulation  `acc += m`
        if (
            len(body) == 1
            and isinstance(body[0], ast.AugAssign)
            and isinstance(body[0].op, ast.Add)
            and isinstance(body[0].target, ast.Name)
            and isinstance(body[0].value, ast.Name)
            and body[0].value.id == mvar
        ):
            acc = body[0].target.id
            prev = self.env.get(acc)
            if prev is None:
                raise self.refuse(
                    "RPC016", body[0], f"accumulator '{acc}' is unbound"
                )
            self._set_reduce("sum", ("const", 0.0), node)
            if prev in (("const", 0), ("const", 0.0)):
                self._bind(acc, ("msg",), node)
            else:
                self._bind(acc, ("add", prev, ("msg",)), node)
            return
        # Idiom B: peel prune  `if m[0] == TOKEN: ctx.remove_out_edge(m[1])`
        if (
            len(body) == 1
            and isinstance(body[0], ast.If)
            and not body[0].orelse
            and len(body[0].body) == 1
            and isinstance(body[0].body[0], ast.Expr)
            and isinstance(body[0].body[0].value, ast.Call)
        ):
            test = body[0].test
            call = body[0].body[0].value
            token = self._slot_test_token(test, mvar)
            if (
                token is not _NO_TOKEN
                and _attr_chain(call.func) == [self.ctx, "remove_out_edge"]
                and len(call.args) == 1
                and self._is_msg_slot(call.args[0], mvar, 1)
            ):
                self._note_peel_token(token, node)
                self.uses_mutation = True
                self._emit(KOp("prune_received", where=self._cond()))
                return
        raise self.refuse(
            "RPC018", node,
            "message loop is not a recognized monoid fold (sum "
            "accumulation or the k-core peel idiom)",
        )

    _NO = object()

    def _slot_test_token(self, test: ast.expr, mvar: str) -> Any:
        """``m[0] == CONST`` -> the constant; else the _NO_TOKEN sentinel."""
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and self._is_msg_slot(test.left, mvar, 0)
        ):
            return self._resolve_const(test.comparators[0])
        return _NO_TOKEN

    @staticmethod
    def _is_msg_slot(node: ast.expr, mvar: str, slot: int) -> bool:
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == mvar
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == slot
        )

    def _resolve_const(self, node: ast.expr) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name) and node.id in self.module_consts:
            return self.module_consts[node.id]
        return _NO_TOKEN

    def _note_peel_token(self, token: Any, node: ast.AST) -> None:
        if token is _NO_TOKEN:
            raise self.refuse(
                "RPC017", node, "peel tag is not a resolvable constant"
            )
        if self.peel_token is not None and self.peel_token != token:
            raise self.refuse(
                "RPC017", node,
                "peel messages are tagged with more than one constant",
            )
        self.peel_token = token

    def _neighbor_loop(self, node: ast.For, weighted: bool) -> None:
        if weighted:
            if not (
                isinstance(node.target, ast.Tuple)
                and len(node.target.elts) == 2
                and all(isinstance(e, ast.Name) for e in node.target.elts)
            ):
                raise self.refuse(
                    "RPC016", node.target, "unliftable zip loop target"
                )
            uvar = node.target.elts[0].id
            wvar = node.target.elts[1].id
        else:
            if not isinstance(node.target, ast.Name):
                raise self.refuse(
                    "RPC016", node.target, "unliftable neighbor loop target"
                )
            uvar = node.target.id
            wvar = None
        dropped = False
        for stmt in node.body:
            if not (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            ):
                raise self.refuse(
                    "RPC016", stmt,
                    "neighbor loop bodies may only send along the arc or "
                    "remove it",
                )
            call = stmt.value
            chain = _attr_chain(call.func)
            if chain == [self.ctx, "send"]:
                if len(call.args) != 2 or not self._is_loop_var(
                    call.args[0], uvar
                ):
                    raise self.refuse(
                        "RPC016", call,
                        "send target inside a neighbor loop must be the "
                        "loop variable (per-arc scatter)",
                    )
                payload = self._scatter_payload(call.args[1], wvar)
                self._emit(
                    KOp("scatter", where=self._cond(), payload=payload)
                )
            elif chain == [self.ctx, "remove_out_edge"]:
                if len(call.args) != 1 or not self._is_loop_var(
                    call.args[0], uvar
                ):
                    raise self.refuse(
                        "RPC016", call,
                        "edge removal inside a neighbor loop must target "
                        "the loop variable",
                    )
                dropped = True
            else:
                raise self.refuse(
                    "RPC016", call,
                    "only ctx.send / ctx.remove_out_edge are liftable "
                    "inside a neighbor loop",
                )
        if dropped:
            self.uses_mutation = True
            self._emit(KOp("drop_edges", where=self._cond()))

    @staticmethod
    def _is_loop_var(node: ast.expr, uvar: str) -> bool:
        if isinstance(node, ast.Name):
            return node.id == uvar
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "int"
            and len(node.args) == 1
        ):
            return (
                isinstance(node.args[0], ast.Name) and node.args[0].id == uvar
            )
        return False

    def _scatter_payload(self, node: ast.expr, wvar: str | None) -> Expr:
        """Translate a per-arc payload; the zip weight var -> edge_weight."""
        if isinstance(node, ast.Tuple):
            # Peel-token payload (TOKEN, ctx.vertex_id): deliveries carry
            # only sender identity, so the dense form is a count token.
            if len(node.elts) == 2:
                token = self._resolve_const(node.elts[0])
                second = self._translate_with_weight(node.elts[1], wvar)
                if token is not _NO_TOKEN and second == ("vertex",):
                    self._note_peel_token(token, node)
                    return ("const", 1)
            raise self.refuse(
                "RPC017", node,
                "tuple payloads only lift as peel tokens "
                "(constant tag, sender id)",
            )
        return self._translate_with_weight(node, wvar)

    def _translate_with_weight(self, node: ast.expr, wvar: str | None) -> Expr:
        if wvar is not None:
            self.env[wvar] = ("edge_weight",)
        try:
            return self._expr(node)
        finally:
            if wvar is not None:
                self.env.pop(wvar, None)

    # -- returns -------------------------------------------------------
    def _return(self, node: ast.Return) -> None:
        if node.value is None:
            raise self.refuse(
                "RPC016", node, "compute() must return the new state"
            )
        expr = self._expr(node.value)
        cond = self._cond()
        if self.branch_depth == 0:
            # The function-suite return covers every path not already
            # captured by an early return (earlies take precedence when
            # the update expression is folded), even under a mask
            # narrowed by earlier early-return branches.
            self.final = expr
            self.done = True
        else:
            assert cond is not None or self.done is False
            self.early.append((cond or ("const", True), expr))

    # -- effect calls --------------------------------------------------
    def _effect_call(self, call: ast.Call) -> None:
        chain = _attr_chain(call.func)
        method: str | None = None
        if chain and len(chain) == 2 and chain[0] == self.ctx:
            method = chain[1]
        elif isinstance(call.func, ast.Name):
            bound = self.env.get(call.func.id)
            if isinstance(bound, tuple) and bound[:1] == ("__ctxmethod__",):
                method = bound[1]
        if method is None:
            raise self.refuse(
                "RPC016", call,
                "opaque call in compute() (only ctx effect methods lift)",
            )
        where = self._cond()
        if method == "send_to_neighbors":
            if len(call.args) != 1:
                raise self.refuse("RPC016", call, "unliftable send arity")
            payload = self._scatter_payload(call.args[0], None)
            self._emit(KOp("scatter", where=where, payload=payload))
            return
        if method == "vote_to_halt":
            self._emit(KOp("vote", where=where))
            return
        if method == "aggregate":
            if len(call.args) != 2:
                raise self.refuse("RPC016", call, "unliftable aggregate arity")
            name = _constant_str(call.args[0])
            if name is None:
                raise self.refuse(
                    "RPC016", call, "aggregate name is not a literal"
                )
            self._check_sum_aggregator(name, call)
            value = self._expr(call.args[1])
            self.agg_dtypes[name] = _promote(
                self.agg_dtypes.get(name),
                _dtype_of(value, "float64", None) or "float64",
            )
            self._emit(
                KOp("aggregate", where=where, name=name, value=value)
            )
            return
        if method == "send":
            raise self.refuse(
                "RPC016", call,
                "send target is data-dependent (dense scatter only follows "
                "the CSR arcs of a neighbor loop)",
            )
        if method in ("remove_out_edge", "add_out_edge"):
            raise self.refuse(
                "RPC016", call,
                f"ctx.{method}() outside a recognized peel idiom mutates "
                "topology data-dependently",
            )
        raise self.refuse(
            "RPC016", call, f"call to ctx.{method}() is not liftable"
        )

    def _check_sum_aggregator(self, name: str, node: ast.AST) -> None:
        decl = self.declared_aggs.get(name)
        if decl is None:
            raise self.refuse(
                "RPC016", node,
                f"aggregator '{name}' is not declared by aggregators()",
            )
        if decl != "SumAggregator":
            raise self.refuse(
                "RPC018", node,
                f"aggregator '{name}' folds with {decl}; only the Sum "
                "monoid lifts to a dense segment reduce",
            )

    # -- expressions ---------------------------------------------------
    def _expr(self, node: ast.expr) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (bool, int, float)):
                return ("const", node.value)
            raise self.refuse(
                "RPC017", node,
                f"{type(node.value).__name__} constants are not fixed-width "
                "NumPy scalars",
            )
        if isinstance(node, ast.Name):
            if node.id in self.env:
                val = self.env[node.id]
                if val == _MESSAGES:
                    # truthiness: `if messages:` / `... and messages`
                    return ("gt", ("msg_count",), ("const", 0))
                if val in (_COUNTER, _MODE_BEST):
                    raise self.refuse(
                        "RPC018", node,
                        f"'{node.id}' escapes the recognized mode-reduce "
                        "idiom",
                    )
                return val
            if node.id in self.module_consts:
                return ("const", self.module_consts[node.id])
            if node.id in self.module.from_imports:
                mod, attr = self.module.from_imports[node.id]
                if mod == "math" and attr in _MATH_CONSTS:
                    return ("const", _MATH_CONSTS[attr])
            raise self.refuse(
                "RPC016", node,
                f"name '{node.id}' is not statically resolvable",
            )
        if isinstance(node, ast.NamedExpr):  # walrus
            if not isinstance(node.target, ast.Name):
                raise self.refuse("RPC016", node, "unliftable walrus target")
            value = self._expr(node.value)
            self._bind(node.target.id, value, node)
            return self.env[node.target.id]
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.BinOp):
            opname = _BINOPS.get(type(node.op))
            if opname is None:
                raise self.refuse(
                    "RPC018", node,
                    f"operator '{type(node.op).__name__}' is not a liftable "
                    "arithmetic op",
                )
            return (opname, self._expr(node.left), self._expr(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return ("neg", self._expr(node.operand))
            if isinstance(node.op, ast.Not):
                return _neg(self._expr(node.operand))
            if isinstance(node.op, ast.UAdd):
                return self._expr(node.operand)
            raise self.refuse(
                "RPC018", node, "bitwise inversion is not a liftable op"
            )
        if isinstance(node, ast.BoolOp):
            opname = "and" if isinstance(node.op, ast.And) else "or"
            out = self._expr(node.values[0])
            for v in node.values[1:]:
                out = (opname, out, self._expr(v))
            return out
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise self.refuse(
                    "RPC016", node, "chained comparisons are not liftable"
                )
            opname = _CMPOPS.get(type(node.ops[0]))
            if opname is None:
                raise self.refuse(
                    "RPC016", node,
                    f"comparison '{type(node.ops[0]).__name__}' is not "
                    "liftable",
                )
            return (
                opname,
                self._expr(node.left),
                self._expr(node.comparators[0]),
            )
        if isinstance(node, ast.IfExp):
            return (
                "where",
                self._expr(node.test),
                self._expr(node.body),
                self._expr(node.orelse),
            )
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            raise self.refuse(
                "RPC017", node,
                "subscripted access implies a container state or payload "
                "schema, which is not fixed-width",
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            raise self.refuse(
                "RPC017", node,
                f"{type(node).__name__.lower()} values are not fixed-width "
                "NumPy scalars",
            )
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            raise self.refuse(
                "RPC017", node, "comprehensions build container values"
            )
        raise self.refuse(
            "RPC016", node,
            f"{type(node).__name__} expressions are not liftable",
        )

    def _attribute(self, node: ast.Attribute) -> Expr:
        chain = _attr_chain(node)
        if chain is None:
            raise self.refuse(
                "RPC016", node, "attribute chain has a dynamic base"
            )
        if len(chain) == 2 and chain[0] == self.ctx:
            attr = chain[1]
            leaf = {
                "superstep": ("superstep",),
                "vertex_id": ("vertex",),
                "num_vertices": ("nv",),
                "out_degree": ("out_degree",),
            }.get(attr)
            if leaf is not None:
                return leaf
            if attr in ("send", "send_to_neighbors", "vote_to_halt",
                        "aggregate", "remove_out_edge", "add_out_edge"):
                return ("__ctxmethod__", attr)  # alias: emit = ctx.send_...
            raise self.refuse(
                "RPC016", node,
                f"ctx.{attr} has no dense equivalent outside a recognized "
                "idiom",
            )
        if len(chain) == 2 and chain[0] == "self":
            self.params.add(chain[1])
            return ("param", chain[1])
        if len(chain) == 2 and chain[0] in self.module.module_aliases:
            mod = self.module.module_aliases[chain[0]]
            if mod == "math" and chain[1] in _MATH_CONSTS:
                return ("const", _MATH_CONSTS[chain[1]])
        raise self.refuse(
            "RPC016", node,
            f"attribute '{'.'.join(chain)}' is not statically resolvable",
        )

    def _call(self, node: ast.Call) -> Expr:
        func = node.func
        if isinstance(func, ast.Name):
            return self._name_call(node, func.id)
        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain == [self.ctx, "aggregated"]:
                name = (
                    _constant_str(node.args[0]) if len(node.args) == 1 else None
                )
                if name is None:
                    raise self.refuse(
                        "RPC016", node, "aggregated name is not a literal"
                    )
                self._check_sum_aggregator(name, node)
                return ("agg", name)
            if chain and len(chain) == 2 and chain[0] == "self":
                return self._inline_helper(node, chain[1])
            raise self.refuse(
                "RPC016", node,
                "method call in an expression has no dense equivalent",
            )
        raise self.refuse("RPC016", node, "dynamic call target")

    def _name_call(self, node: ast.Call, fname: str) -> Expr:
        args = node.args
        if fname in ("min", "max"):
            return self._min_max(node, fname)
        if fname == "sum":
            if len(args) == 1 and self._is_messages(args[0]) and not node.keywords:
                self._set_reduce("sum", ("const", 0.0), node)
                return ("msg",)
            if len(args) == 1 and isinstance(args[0], ast.GeneratorExp):
                return self._count_genexp(args[0], node)
            raise self.refuse(
                "RPC018", node,
                "sum() over a non-message iterable is not a gather",
            )
        if fname == "len":
            if len(args) == 1 and self._is_messages(args[0]):
                return ("msg_count",)
            raise self.refuse(
                "RPC016", node, "len() of a non-message value"
            )
        if fname in ("int", "float", "bool", "abs") and len(args) == 1:
            inner = self._expr(args[0])
            return {
                "int": ("cast_int", inner),
                "float": ("cast_float", inner),
                "bool": ("cast_bool", inner),
                "abs": ("abs", inner),
            }[fname]
        if fname == "Counter" and self.module.from_imports.get(fname) == (
            "collections", "Counter"
        ):
            if len(args) == 1 and self._is_messages(args[0]):
                return _COUNTER
            raise self.refuse(
                "RPC018", node, "Counter over a non-message iterable"
            )
        raise self.refuse(
            "RPC016", node, f"call to '{fname}()' is not liftable"
        )

    def _min_max(self, node: ast.Call, fname: str) -> Expr:
        args = node.args
        kws = {k.arg: k.value for k in node.keywords}
        # min(messages, default=X) -> monoid gather
        if len(args) == 1 and self._is_messages(args[0]):
            if set(kws) != {"default"}:
                raise self.refuse(
                    "RPC018", node,
                    f"{fname}() over messages needs a default= (empty "
                    "deliveries would raise at runtime)",
                )
            default = self._expr(kws["default"])
            self._set_reduce(fname, default, node)
            return ("msg",)
        # max(counts.values()) -> the winning multiplicity (mode idiom)
        if (
            fname == "max"
            and len(args) == 1
            and not kws
            and self._counter_method(args[0]) == "values"
        ):
            return _MODE_BEST
        # min(l for l, c in counts.items() if c == best) -> mode gather
        if (
            fname == "min"
            and len(args) == 1
            and not kws
            and isinstance(args[0], ast.GeneratorExp)
        ):
            return self._mode_genexp(args[0], node)
        if len(args) >= 2 and not kws:
            opname = "min2" if fname == "min" else "max2"
            out = self._expr(args[0])
            for a in args[1:]:
                out = (opname, out, self._expr(a))
            return out
        raise self.refuse(
            "RPC018", node, f"{fname}() call is not a liftable reduction"
        )

    def _counter_method(self, node: ast.expr) -> str | None:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and self.env.get(node.func.value.id) == _COUNTER
            and not node.args
            and not node.keywords
        ):
            return node.func.attr
        return None

    def _mode_genexp(self, gen: ast.GeneratorExp, node: ast.AST) -> Expr:
        ok = (
            len(gen.generators) == 1
            and not gen.generators[0].is_async
            and self._counter_method(gen.generators[0].iter) == "items"
            and isinstance(gen.generators[0].target, ast.Tuple)
            and len(gen.generators[0].target.elts) == 2
            and all(
                isinstance(e, ast.Name)
                for e in gen.generators[0].target.elts
            )
            and len(gen.generators[0].ifs) == 1
        )
        if ok:
            lvar = gen.generators[0].target.elts[0].id
            cvar = gen.generators[0].target.elts[1].id
            cond = gen.generators[0].ifs[0]
            elt_ok = isinstance(gen.elt, ast.Name) and gen.elt.id == lvar
            cond_ok = (
                isinstance(cond, ast.Compare)
                and len(cond.ops) == 1
                and isinstance(cond.ops[0], ast.Eq)
                and isinstance(cond.left, ast.Name)
                and cond.left.id == cvar
                and isinstance(cond.comparators[0], ast.Name)
                and self.env.get(cond.comparators[0].id) == _MODE_BEST
            )
            if elt_ok and cond_ok:
                # Ties break to the smallest label: exactly the dense
                # mode-reduce's (max count, min label) ordering.
                self._set_reduce("mode", ("state",), node)
                return ("msg",)
        raise self.refuse(
            "RPC018", node,
            "label-vote expression deviates from the recognized "
            "mode-reduce idiom (min label among max-count labels)",
        )

    def _count_genexp(self, gen: ast.GeneratorExp, node: ast.AST) -> Expr:
        ok = (
            len(gen.generators) == 1
            and not gen.generators[0].is_async
            and self._is_messages(gen.generators[0].iter)
            and isinstance(gen.generators[0].target, ast.Name)
            and isinstance(gen.elt, ast.Constant)
            and gen.elt.value == 1
            and len(gen.generators[0].ifs) <= 1
        )
        if ok:
            mvar = gen.generators[0].target.id
            if gen.generators[0].ifs:
                token = self._slot_test_token(gen.generators[0].ifs[0], mvar)
                if token is _NO_TOKEN:
                    raise self.refuse(
                        "RPC018", node,
                        "counted-message filter is not a constant tag test",
                    )
                self._note_peel_token(token, node)
            self._set_reduce("count", ("const", 0), node)
            return ("msg",)
        raise self.refuse(
            "RPC018", node,
            "generator fold over messages is not a recognized count",
        )

    def _inline_helper(self, call: ast.Call, name: str) -> Expr:
        """Inline ``self.helper(...)`` when it is a single pure return.

        This is the expression-level counterpart of the costmodel's
        interprocedural send-site expansion: a helper whose body is one
        ``return <expr>`` over its formals lifts by substitution.
        """
        if self.helper_depth >= 3:
            raise self.refuse(
                "RPC016", call, "helper inlining exceeded depth 3"
            )
        fn = self.program.methods.get(name)
        if fn is None:
            raise self.refuse(
                "RPC016", call,
                f"self.{name}(...) is not a method of this program "
                "(opaque callable attribute)",
            )
        stmts = [
            s for s in fn.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        ]
        if len(stmts) != 1 or not isinstance(stmts[0], ast.Return) \
                or stmts[0].value is None:
            raise self.refuse(
                "RPC016", call,
                f"helper self.{name}() is not a single pure return "
                "expression",
            )
        formals = [a.arg for a in fn.args.args[1:]]  # drop self
        if len(call.args) != len(formals) or call.keywords:
            raise self.refuse(
                "RPC016", call, f"helper self.{name}() call arity mismatch"
            )
        bindings = {
            f: self._expr(a) for f, a in zip(formals, call.args)
        }
        saved_env = self.env
        self.env = dict(saved_env)
        # The helper sees only its formals plus self/module names.
        for k in list(self.env):
            if k not in (self.state_name, self.messages_name):
                del self.env[k]
        self.env.update(bindings)
        self.helper_depth += 1
        try:
            return self._expr(stmts[0].value)
        finally:
            self.helper_depth -= 1
            self.env = saved_env

    # -- assembly ------------------------------------------------------
    def state_update_expr(self) -> Expr | None:
        result = self.final
        earlies = list(self.early)
        if result is None:
            # Every path returned inside branches: the last early return
            # is the base case, the rest fold over it.
            _, result = earlies.pop()
        for cond, expr in reversed(earlies):
            result = ("where", cond, expr, result)
        if result == ("state",):
            return None
        return result

    def phases(self) -> tuple[KernelPhase, ...]:
        out: list[KernelPhase] = []
        cur_guard: Expr | None = None
        cur_ops: list[KOp] = []
        first = True
        for guard, op in self.op_records:
            if first or guard != cur_guard:
                if not first:
                    out.append(KernelPhase(cur_guard, tuple(cur_ops)))
                cur_guard, cur_ops, first = guard, [], False
            cur_ops.append(op)
        if not first:
            out.append(KernelPhase(cur_guard, tuple(cur_ops)))
        return tuple(out)


_NO_TOKEN = _Lifter._NO


# ----------------------------------------------------------------------
# init_state / master_compute analysis
# ----------------------------------------------------------------------
def _lift_init(program: ProgramInfo, module: ModuleInfo,
               lifter: _Lifter) -> Expr:
    fn = program.methods.get("init_state")
    if fn is None:
        raise LiftRefusal(
            "RPC016", program.node,
            "program defines no init_state() to lift",
        )
    stmts = [
        s for s in fn.body
        if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
    ]
    if len(stmts) != 1 or not isinstance(stmts[0], ast.Return) \
            or stmts[0].value is None:
        raise LiftRefusal(
            "RPC016", fn,
            "init_state() has side effects or opaque statements; only a "
            "single pure return lifts",
        )
    formals = [a.arg for a in fn.args.args[1:]]  # (vertex_id, graph)
    sub = _Lifter(program, module)
    sub.params = lifter.params
    sub.requires_none = lifter.requires_none
    sub.env = {}
    if len(formals) >= 1:
        sub.env[formals[0]] = ("vertex",)
    if len(formals) >= 2:
        # graph.num_vertices is the only graph read with a dense leaf
        sub.ctx = None
        graph_name = formals[1]

        orig_attr = sub._attribute

        def graph_attr(node: ast.Attribute) -> Expr:
            chain = _attr_chain(node)
            if chain == [graph_name, "num_vertices"]:
                return ("nv",)
            return orig_attr(node)

        sub._attribute = graph_attr  # type: ignore[method-assign]
    try:
        return sub._expr(stmts[0].value)
    except LiftRefusal as r:
        # init_state() defines the state *schema*: any value the lifter
        # cannot reduce to a fixed-width scalar expression is a schema
        # refusal, whatever sub-rule tripped first.
        raise LiftRefusal(
            "RPC017",
            _loc(r.line),
            f"state schema is not fixed-width/NumPy-representable: "
            f"init_state() {r.reason}",
        ) from None


def _check_master(program: ProgramInfo, lifter: _Lifter) -> bool:
    """Master runs natively in the dense executor; lift-time we only need
    it to be *order-insensitive*: no publish() re-broadcast, and no halt
    decision comparing a float-summed aggregate against a threshold
    (summation order would flip the barrier count across engines)."""
    fn = program.methods.get("master_compute")
    if fn is None:
        return False
    master = program.master_param
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and chain[0] == master and chain[-1] == "publish":
                raise LiftRefusal(
                    "RPC016", node,
                    "master publish() re-broadcasts a value the dense "
                    "executor does not model",
                )
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                chain = _attr_chain(sub.func)
                if not (chain and chain[0] == master
                        and chain[-1] == "aggregated"):
                    continue
                name = (
                    _constant_str(sub.args[0]) if len(sub.args) == 1 else None
                )
                dtype = lifter.agg_dtypes.get(name or "", "float64")
                if dtype == "float64":
                    raise LiftRefusal(
                        "RPC016", node,
                        f"job halt compares float-summed aggregate "
                        f"'{name}' against a threshold; the decision is "
                        "summation-order-sensitive and cannot be "
                        "certified across engines",
                    )
    return True


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lift_program(program: ProgramInfo, module: ModuleInfo) -> KernelPlan:
    """Lift one VertexProgram subclass; raises :class:`LiftRefusal`."""
    fn = program.compute
    if fn is None:
        raise LiftRefusal(
            "RPC016", program.node,
            "program defines no compute() in this module",
        )
    profile = profile_program(program, module)
    if profile.fanout is FanoutClass.BROADCAST:
        site = min(
            (s for s in profile.send_sites
             if s.fanout is FanoutClass.BROADCAST),
            key=lambda s: s.line,
        )
        raise LiftRefusal(
            "RPC016", _loc(site.line),
            "message amplification: broadcast-class fan-out sends along "
            "data-dependent targets, which a CSR scatter cannot express",
        )

    lifter = _Lifter(program, module)
    state_init = _lift_init(program, module, lifter)
    lifter.run(fn.body)

    declared = _declared_combiner(program)
    if declared is not None and lifter.reduce is not None:
        monoid = _COMBINER_MONOID.get(declared)
        if monoid != lifter.reduce:
            raise LiftRefusal(
                "RPC018", program.node,
                f"declared combiner {declared} folds '{monoid}' but "
                f"compute() folds '{lifter.reduce}'; the dense gather "
                "cannot honour both",
            )

    has_master = _check_master(program, lifter)

    state_update = lifter.state_update_expr()
    phases = lifter.phases()

    init_dtype = _dtype_of(state_init, "float64", None) or "float64"
    payloads = [
        op.payload
        for _, op in lifter.op_records
        if op.kind == "scatter" and op.payload is not None
    ]
    msg_dtype = _promote(*(
        _dtype_of(p, init_dtype, None) for p in payloads
    )) if payloads else "float64"
    state_dtype = init_dtype
    for _ in range(2):  # fixed point through state/msg recursion
        if state_update is not None:
            state_dtype = _promote(
                init_dtype, _dtype_of(state_update, state_dtype, msg_dtype)
            )
        if payloads:
            msg_dtype = _promote(*(
                _dtype_of(p, state_dtype, msg_dtype) for p in payloads
            ))

    plan = KernelPlan(
        program=program.node.name,
        file=module.filename,
        line=program.node.lineno,
        state_dtype=state_dtype,
        state_init=state_init,
        message_dtype=msg_dtype,
        reduce=lifter.reduce,
        gather_default=lifter.gather_default,
        include_self=lifter.include_self,
        phases=phases,
        state_update=state_update,
        params=tuple(sorted(lifter.params)),
        requires_none=tuple(sorted(lifter.requires_none)),
        uses_mutation=lifter.uses_mutation,
        has_master=has_master,
        aggregates=tuple(sorted(lifter.agg_dtypes)),
    )
    digest = _plan_digest(plan.as_dict())
    object.__setattr__(plan, "digest", digest)
    return plan


def _loc(line: int) -> ast.AST:
    node = ast.Pass()
    node.lineno = line
    node.col_offset = 0
    return node


@dataclass(frozen=True)
class LiftResult:
    """Definitive verdict for one program: a plan or a located refusal."""

    program: str
    file: str
    line: int
    plan: KernelPlan | None = None
    rule_id: str | None = None
    reason: str | None = None
    refusal_line: int | None = None
    refusal_col: int | None = None

    @property
    def lifted(self) -> bool:
        return self.plan is not None

    def as_dict(self) -> dict:
        out = {
            "program": self.program,
            "file": self.file,
            "line": self.line,
            "status": "lifted" if self.lifted else "refused",
        }
        if self.plan is not None:
            out["digest"] = self.plan.digest
            out["reduce"] = self.plan.reduce
            out["state_dtype"] = self.plan.state_dtype
            out["phases"] = len(self.plan.phases)
            out["ops"] = self.plan.num_ops
        else:
            out["rule"] = self.rule_id
            out["reason"] = self.reason
            out["refusal_line"] = self.refusal_line
        return out


def lift_verdict(program: ProgramInfo, module: ModuleInfo) -> LiftResult:
    """Lift with memoization per ModuleInfo (the four rules share it)."""
    cache = getattr(module, "_lift_cache", None)
    if cache is None:
        cache = {}
        module._lift_cache = cache  # type: ignore[attr-defined]
    key = id(program.node)
    if key in cache:
        return cache[key]
    try:
        plan = lift_program(program, module)
        result = LiftResult(
            program=program.node.name,
            file=module.filename,
            line=program.node.lineno,
            plan=plan,
        )
    except LiftRefusal as r:
        result = LiftResult(
            program=program.node.name,
            file=module.filename,
            line=program.node.lineno,
            rule_id=r.rule_id,
            reason=r.reason,
            refusal_line=r.line,
            refusal_col=r.col,
        )
    cache[key] = result
    return result


def lift_source(source: str, filename: str = "<string>") -> list[LiftResult]:
    """Verdicts for every VertexProgram subclass in one module's source."""
    from .analyzer import _find_programs

    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return []
    module = ModuleInfo.build(tree, filename)
    return [lift_verdict(p, module) for p in _find_programs(tree)]


def lift_file(path: str | Path) -> list[LiftResult]:
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return []
    return lift_source(source, filename=str(path))


def lift_paths(targets) -> list[LiftResult]:
    from .analyzer import iter_python_files

    out: list[LiftResult] = []
    for path in iter_python_files(targets):
        out.extend(lift_file(path))
    return out


#: source path -> (source text, its verdicts); see :func:`live_verdict`
_LIFTED: dict[str, tuple[str, list[LiftResult]]] = {}


def lift_of(program: Any) -> LiftResult | None:
    """Verdict for a *live* program object (or class) from its source file,
    lifted once per process while the file is unchanged.

    Mirrors :func:`repro.check.costmodel.profile_of`: unwraps wrappers
    exposing ``.inner``; returns None when the source cannot be located.
    """
    return live_verdict(program, lift_source, _LIFTED)


# ----------------------------------------------------------------------
# Catalog rules (opt-in: only run under `repro check --kernel-plan`)
# ----------------------------------------------------------------------
class VectorizableRule(Rule):
    """RPC015: the program lifts to a dense KernelPlan.  Informational —
    the digest names the exact plan the dense executor was certified on."""

    id = "RPC015"
    severity = Severity.INFO
    summary = "compute() lifts to a dense KernelPlan (vectorizable)"
    hint = "run it with `repro run --engine dense-ref` to use the plan"

    def check(self, program, module):
        res = lift_verdict(program, module)
        if res.plan is not None:
            p = res.plan
            yield self.finding(
                module, program.node,
                f"lifts to KernelPlan {p.digest[:16]} "
                f"({len(p.phases)} phases, {p.num_ops} ops, "
                f"reduce={p.reduce or 'none'}, state={p.state_dtype})",
            )


class DataDependentControlRule(Rule):
    """RPC016: data-dependent control flow or dataflow blocks dense mode."""

    id = "RPC016"
    severity = Severity.INFO
    summary = "data-dependent control flow blocks dense-mode lifting"
    hint = (
        "restructure per-vertex branches into uniform arithmetic over "
        "messages, neighbors, and superstep guards"
    )

    def check(self, program, module):
        res = lift_verdict(program, module)
        if res.rule_id == self.id:
            yield self.finding(
                module, _loc_at(res), f"dense lift refused: {res.reason}"
            )


class PayloadSchemaRule(Rule):
    """RPC017: state/payload schema is not fixed-width NumPy-representable."""

    id = "RPC017"
    severity = Severity.INFO
    summary = "state or payload schema is not fixed-width/NumPy-representable"
    hint = (
        "use scalar states and payloads (float/int/bool); containers and "
        "objects have no dense column form"
    )

    def check(self, program, module):
        res = lift_verdict(program, module)
        if res.rule_id == self.id:
            yield self.finding(
                module, _loc_at(res), f"dense lift refused: {res.reason}"
            )


class UnknownMonoidRule(Rule):
    """RPC018: the message reduction is not a known monoid."""

    id = "RPC018"
    severity = Severity.INFO
    summary = "message reduction is not expressible as a known monoid"
    hint = (
        "fold messages with sum/min/max (or the mode/count idioms); "
        "declare a combiner that matches the fold"
    )

    def check(self, program, module):
        res = lift_verdict(program, module)
        if res.rule_id == self.id:
            yield self.finding(
                module, _loc_at(res), f"dense lift refused: {res.reason}"
            )


def _loc_at(res: LiftResult) -> ast.AST:
    node = ast.Pass()
    node.lineno = res.refusal_line or res.line
    node.col_offset = (res.refusal_col or 1) - 1
    return node


KERNEL_RULES: tuple[Rule, ...] = (
    VectorizableRule(),
    DataDependentControlRule(),
    PayloadSchemaRule(),
    UnknownMonoidRule(),
)
