"""GSD108 — iteration-order determinism in sim-deterministic scopes.

The bit-identity guarantees (pipelined==serial, cluster==single-node,
async==resumed) all reduce to: every float accumulation and every
charged I/O sequence must happen in the same order on every run. Two
iteration orders in Python are *not* stable across runs:

* **set iteration** is hash-ordered — for str keys it varies with
  ``PYTHONHASHSEED``;
* **dict iteration on shared attributes** follows insertion order, and
  the insertion order of a long-lived attribute is the history of every
  path that filled it: serial and pipelined runs, or a cluster worker
  and a single node, can insert the same keys in different orders.
  Local dicts are exempt: built and consumed in one frame, their
  insertion order is as deterministic as the code that filled them.

The rule fires when a *suspect iterable* feeds an *order-sensitive
consumer* inside the sim-deterministic directories. It reads one file:

Suspect iterables — set literals/comprehensions, ``set()`` /
``frozenset()`` calls, set-typed locals (*every* assignment to the name
in the function builds a set, so a name rebound to ``sorted(...)``
anywhere is not suspect), ``Set``/``FrozenSet``-annotated parameters,
set operators (``| & - ^``) over suspect operands, and
``.keys()/.values()/.items()`` (or direct iteration) on dict- or
set-typed **attributes**. An attribute's type comes from its class in
the same file (or a same-file base class): a ``self.x = {}`` /
``set()`` assignment or a ``Dict[...]``/``Set[...]`` annotation. The
owner is ``self``/``cls`` or a parameter annotated with a class of the
same file; parameters typed with a class from another module are not
followed.

Order-sensitive consumers — a ``for`` loop whose body accumulates
(``+=``/``-=``), appends/extends a sequence, or charges the clock;
``sum()``/``fsum()`` over the iterable; a list or dict comprehension
built from a *set* source (order-visible output / insertion-ordered
result — a comprehension over a dict merely preserves the source's
order and is not flagged).

Discharges — wrapping the iterable in ``sorted(...)``, or
``# order-ok: <reason>`` on the loop line when the order is provably
deterministic (e.g. one fixed insertion path) and must be preserved
for bit-compatibility with recorded baselines.
"""

from __future__ import annotations

import ast
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.base import Checker, dotted_name
from repro.analysis.source import SourceFile

SET_KIND = "set"
DICT_KIND = "dict"

_DICT_VIEWS = ("keys", "values", "items")
#: Loop-body calls that make iteration order observable.
_ORDER_SENSITIVE_METHODS = ("append", "extend", "charge", "read_block", "write_block")
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_CONTAINER_ANNOTATIONS = {
    "set": SET_KIND,
    "Set": SET_KIND,
    "FrozenSet": SET_KIND,
    "frozenset": SET_KIND,
    "dict": DICT_KIND,
    "Dict": DICT_KIND,
}

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _unquote(node: Optional[ast.AST]) -> Optional[ast.AST]:
    """The expression a string annotation spells, else ``node``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    return node


def _unwrap_optional(node: Optional[ast.AST]) -> Optional[ast.AST]:
    """``T`` for ``Optional[T]`` / ``"Optional[T]"``, else the node."""
    node = _unquote(node)
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        if head is not None and head.split(".")[-1] == "Optional":
            return _unwrap_optional(node.slice)
    return node


def container_kind_of(node: ast.AST) -> Optional[str]:
    """SET_KIND/DICT_KIND when the expression builds a set or dict."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return SET_KIND
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return DICT_KIND
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return SET_KIND
        if name == "dict":
            return DICT_KIND
    return None


def annotation_kind(node: Optional[ast.AST]) -> Optional[str]:
    """Container kind named by an annotation (``Set[int]``, ``dict``)."""
    node = _unwrap_optional(node)
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node) if node is not None else None
    return None if name is None else _CONTAINER_ANNOTATIONS.get(name.split(".")[-1])


class _FileClasses:
    """Container-typed attributes of the classes defined in one file."""

    def __init__(self, tree: ast.Module) -> None:
        self.nodes: Dict[str, ast.ClassDef] = {
            node.name: node for node in tree.body if isinstance(node, ast.ClassDef)
        }
        #: class name -> {attr: kind}, collected on first use.
        self._attrs: Dict[str, Dict[str, str]] = {}

    @staticmethod
    def _collect(cls: ast.ClassDef) -> Dict[str, str]:
        """``{attr: kind}`` of one class; first declaration wins."""
        kinds: Dict[str, str] = {}
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                kind = annotation_kind(stmt.annotation)
                if kind is not None:
                    kinds.setdefault(stmt.target.id, kind)
        for sub in ast.walk(cls):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, kind = sub.targets[0], container_kind_of(sub.value)
            elif isinstance(sub, ast.AnnAssign):
                target = sub.target
                kind = annotation_kind(sub.annotation)
                if kind is None and sub.value is not None:
                    kind = container_kind_of(sub.value)
            else:
                continue
            if (
                kind is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                kinds.setdefault(target.attr, kind)
        return kinds

    def attr_kind(self, cls: str, attr: str) -> Optional[str]:
        """Kind of ``cls``'s ``attr``, through same-file base classes."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            name = stack.pop(0)
            node = self.nodes.get(name)
            if node is None or name in seen:
                continue
            seen.add(name)
            if name not in self._attrs:
                self._attrs[name] = self._collect(node)
            kind = self._attrs[name].get(attr)
            if kind is not None:
                return kind
            stack.extend(b.id for b in node.bases if isinstance(b, ast.Name))
        return None


class _FunctionContext:
    """Per-function typing context for iterable classification."""

    def __init__(
        self, classes: _FileClasses, fn: FunctionNode, owner: Optional[str]
    ) -> None:
        self.classes = classes
        self.owner = owner
        #: parameter -> container kind of its annotation, when it has one.
        self.param_kinds: Dict[str, str] = {}
        #: parameter -> same-file class its annotation names.
        self.param_classes: Dict[str, str] = {}
        for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]:
            kind = annotation_kind(a.annotation)
            if kind is not None:
                self.param_kinds[a.arg] = kind
            ann = _unwrap_optional(a.annotation)
            cls = dotted_name(ann) if ann is not None else None
            if cls in classes.nodes:
                self.param_classes[a.arg] = cls
        self.fn = fn
        self._resolving: Set[str] = set()

    @cached_property
    def assignments(self) -> Dict[str, List[Optional[ast.AST]]]:
        """Every value bound to each name in the function; None where the
        binding is no plain value (loop target, unpacking, ``+=``, ...)."""
        plain: Dict[int, ast.AST] = {}
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    plain[id(t)] = node.value
            elif isinstance(node, ast.AnnAssign):
                plain[id(node.target)] = (
                    node.value if node.value is not None else node.annotation
                )
            elif isinstance(node, ast.NamedExpr):
                plain[id(node.target)] = node.value
        assigned: Dict[str, List[Optional[ast.AST]]] = {}
        for node in ast.walk(self.fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.setdefault(node.id, []).append(plain.get(id(node)))
        return assigned

    def iterable_kind(self, expr: ast.AST) -> Optional[str]:
        """SET/DICT kind of an iterable expression, or None (not suspect)."""
        # sorted(...) discharges; list(X)/tuple(X)/iter(X) preserve order.
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id == "sorted":
                return None
            if expr.func.id in ("list", "tuple", "iter", "enumerate") and expr.args:
                return self.iterable_kind(expr.args[0])
        direct = container_kind_of(expr)
        if direct is not None:
            # A dict *literal* iterates in written order.
            return SET_KIND if direct == SET_KIND else None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            recv = expr.func.value
            if expr.func.attr in _DICT_VIEWS and isinstance(recv, ast.Attribute):
                # Local dicts iterate in deterministic insertion order.
                return DICT_KIND if self._attr_kind(recv) else None
            return None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
            sides = (self.iterable_kind(expr.left), self.iterable_kind(expr.right))
            return SET_KIND if SET_KIND in sides else None
        if isinstance(expr, ast.Name):
            return self._name_kind(expr.id)
        if isinstance(expr, ast.Attribute):
            # Direct iteration over a dict attribute == .keys().
            return self._attr_kind(expr)
        return None

    def _attr_kind(self, node: ast.Attribute) -> Optional[str]:
        if not isinstance(node.value, ast.Name):
            return None
        name = node.value.id
        cls = self.owner if name in ("self", "cls") else self.param_classes.get(name)
        return None if cls is None else self.classes.attr_kind(cls, node.attr)

    def _name_kind(self, name: str) -> Optional[str]:
        """SET_KIND when every binding of ``name`` — a container-annotated
        parameter included — builds a set; local dicts and anything else
        are not suspect."""
        if name in self._resolving:
            return None
        kinds: Set[Optional[str]] = set()
        if name in self.param_kinds:
            kinds.add(self.param_kinds[name])
        self._resolving.add(name)
        for value in self.assignments.get(name, []):
            kind = None
            if value is not None:
                kind = container_kind_of(value) or annotation_kind(value)
                if kind is None and isinstance(value, ast.BinOp):
                    kind = self.iterable_kind(value)
            kinds.add(kind)
        self._resolving.discard(name)
        return SET_KIND if kinds == {SET_KIND} else None


def _loop_is_order_sensitive(loop: ast.For) -> bool:
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDER_SENSITIVE_METHODS
            ):
                return True
    return False


def _functions(tree: ast.Module) -> Iterator[Tuple[FunctionNode, Optional[str]]]:
    """Module-level functions and methods of module-level classes, with
    the owning class name. Nested functions are checked as part of the
    function that defines them."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield stmt, node.name


class IterationOrderChecker(Checker):
    rule_id = "GSD108"
    title = "hash- or insertion-ordered iteration must not feed accumulation or I/O"
    suppress_marker = "order-ok"
    # Unlike GSD101's wall-clock half, ``utils`` is in scope: SimClock's
    # accounting dicts live there and are exactly the shared state this
    # rule protects.
    scope_dirs = (
        "core", "graph", "storage", "algorithms", "obs", "cluster", "tune", "utils",
    )

    def visit(self, sf: SourceFile) -> None:
        classes = _FileClasses(sf.tree)
        for fn, owner in _functions(sf.tree):
            ctx = _FunctionContext(classes, fn, owner)
            for stmt in fn.body:
                for node in ast.walk(stmt):
                    self._check_node(ctx, node)

    def _check_node(self, ctx: _FunctionContext, node: ast.AST) -> None:
        """Report a suspect iterable feeding ``node``, at the iterable's
        line (where the ``sorted(...)`` goes); ``# order-ok:`` on the
        consumer's line suppresses it too."""
        if isinstance(node, ast.For):
            source = node.iter
            kind = ctx.iterable_kind(source)
            if kind is None or not _loop_is_order_sensitive(node):
                return
            what = "loop body accumulates / charges in iteration order"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("sum", "fsum")
            and node.args
        ):
            arg = node.args[0]
            source = arg.generators[0].iter if isinstance(arg, ast.GeneratorExp) else arg
            kind = ctx.iterable_kind(source)
            if kind is None:
                return
            what = "float summation order follows iteration order"
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            # Only hash-ordered (set) sources make a comprehension
            # hazardous: a dict/list comp over a dict *preserves* the
            # source's order — no new nondeterminism.
            source = node.generators[0].iter
            kind = ctx.iterable_kind(source)
            if kind != SET_KIND:
                return
            what = (
                "list output is order-visible"
                if isinstance(node, ast.ListComp)
                else "result dict insertion order follows iteration order"
            )
        else:
            return
        if not self._sf.suppressed("order-ok", node.lineno):
            self.report(source, self._msg(kind, what))

    @staticmethod
    def _msg(kind: str, consequence: str) -> str:
        source = (
            "set iteration is hash-ordered (varies with PYTHONHASHSEED)"
            if kind == SET_KIND
            else "shared dict attribute: insertion order follows every path that filled it"
        )
        return (
            f"{source} and {consequence}; iterate sorted(...) or annotate "
            "'# order-ok: <why the order is deterministic>'"
        )
