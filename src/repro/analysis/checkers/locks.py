"""GSD103 — lock-discipline race detector (Eraser-style lock sets).

Classes with real cross-thread state declare, on the field's assignment
line in ``__init__`` (or on a class-body annotation), which lock guards
it::

    self._components = {}  # guarded-by: _lock

From then on, *every* read or write of that field inside the class —
``self._components`` in a method, or ``other._components`` on another
instance — must sit lexically inside a ``with <owner>.<lock>:`` block
whose context expression names the same owner object and the declared
lock attribute. The rule is a static lock-set check: it cannot prove the
absence of every race, but it catches the common regression (a new
method touching shared state without taking the lock) at lint time
instead of as a once-a-month flaky test.

A helper whose *callers* take the lock declares its calling convention
on the ``def`` line: ``# lock-held: _lock``. The helper's body starts
with ``(self, _lock)`` held, and the rest of the class is checked
against the declaration:

* a call ``owner.helper(...)`` is checked like an access to a
  ``guarded-by: _lock`` field — ``(owner, _lock)`` must be held there.
  A caller that is itself declared ``lock-held`` on the same lock holds
  it on ``self``, so chains of helpers need one annotation each;
* a *value* reference to the helper (thread target, callback) is an
  escape: the lock context at the eventual call site is unknowable, so
  the reference itself is reported;
* holding a non-reentrant lock (``self.<lock> = threading.Lock()`` in
  ``__init__``) while calling a method of the class that acquires it
  (``with self.<lock>:``) is a guaranteed self-deadlock.

Conventions:

* ``__init__`` is exempt from the access and call checks —
  construction happens-before publication to any other thread.
* Lock acquisition must be literal ``with owner.<lock>:`` — aliasing the
  lock through a local is not recognized (keep it simple, keep it
  checkable).
* Every check stays inside one class of one file: calls from other
  classes or modules are not followed.
* Known-benign unguarded accesses and calls carry
  ``# unguarded-ok: <reason>``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.base import Checker
from repro.analysis.source import SourceFile


def _expr_key(node: ast.AST) -> Optional[str]:
    """A comparable identity for simple owner expressions (self, other,
    self.foo, ...); None for anything too dynamic to match."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_key(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``x`` for ``self.x``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassLocks:
    """One class's lock declarations and lock facts."""

    def __init__(self, cls: ast.ClassDef, sf: SourceFile) -> None:
        self.name = cls.name
        #: field name -> lock attr (``guarded-by`` declarations).
        self.guarded: Dict[str, str] = {}
        #: method name -> lock attr (``lock-held`` declarations).
        self.lock_held: Dict[str, str] = {}
        #: method name -> non-reentrant lock attrs it acquires on self.
        self.acquires: Dict[str, Set[str]] = {}

        declarations = sf.declarations("guarded-by")
        for stmt in ast.walk(cls) if declarations else ():
            lock = declarations.get(getattr(stmt, "lineno", -1))
            if lock is None:
                continue
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ):
                    self.guarded[target.attr] = lock.strip()
                elif isinstance(target, ast.Name):  # class-body declaration
                    self.guarded[target.id] = lock.strip()

        held_decls = sf.declarations("lock-held")
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for fn in methods:
            decl = held_decls.get(fn.lineno) or held_decls.get(fn.lineno - 1)
            if decl is not None:
                self.lock_held[fn.name] = decl.strip()

        nonreentrant = {
            attr
            for fn in methods
            if fn.name == "__init__"
            for attr in _plain_locks_assigned(fn)
        }
        for fn in methods if nonreentrant else ():
            acquired = {
                attr
                for node in ast.walk(fn)
                if isinstance(node, (ast.With, ast.AsyncWith))
                for item in node.items
                for attr in [_self_attr(item.context_expr)]
                if attr in nonreentrant
            }
            if acquired:
                self.acquires[fn.name] = acquired

    @property
    def empty(self) -> bool:
        return not (self.guarded or self.lock_held or self.acquires)


def _plain_locks_assigned(init: ast.AST) -> Set[str]:
    """Attrs assigned ``threading.Lock()`` (or ``Lock()``) in ``init``.

    ``RLock`` and anything else is excluded — re-acquiring those is
    legal.
    """
    out: Set[str] = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        else:
            continue
        attr = _self_attr(target)
        if attr is None or not isinstance(value, ast.Call):
            continue
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "Lock":
            out.add(attr)
    return out


class _MethodScanner(ast.NodeVisitor):
    """Walks one method body tracking the active set of held locks."""

    def __init__(
        self,
        checker: "LockDisciplineChecker",
        locks: _ClassLocks,
        method_name: str,
        seed_held: List[Tuple[str, str]],
    ) -> None:
        self.checker = checker
        self.locks = locks
        self.method_name = method_name
        #: ``__init__``: accesses and helper calls are exempt.
        self.construction = method_name == "__init__"
        #: (owner key, lock attr) pairs currently held.
        self.held: List[Tuple[str, str]] = list(seed_held)

    def visit_With(self, node: ast.With) -> None:
        acquired: List[Tuple[str, str]] = []
        for item in node.items:
            ctx = item.context_expr
            if isinstance(ctx, ast.Attribute):
                owner = _expr_key(ctx.value)
                if owner is not None:
                    acquired.append((owner, ctx.attr))
        self.held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self.held.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        field = node.attr
        lock = self.locks.guarded.get(field)
        if lock is not None and not self.construction:
            owner = _expr_key(node.value)
            if owner is None or (owner, lock) not in self.held:
                self.checker.report(
                    node,
                    f"access to {owner or '<expr>'}.{field} in "
                    f"{self.method_name}() outside 'with "
                    f"{owner or '<owner>'}.{lock}:' (declared guarded-by "
                    f"{lock})",
                )
        helper_lock = self.locks.lock_held.get(field)
        if helper_lock is not None and isinstance(node.ctx, ast.Load):
            # Reached only for non-call uses: visit_Call skips the callee.
            self.checker.report(
                node,
                f"{self.locks.name}.{field} is declared '# lock-held: "
                f"{helper_lock}' but is referenced as a value here (thread "
                "target / callback): the lock context at the eventual call "
                "site cannot be verified",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            self.generic_visit(node)
            return
        owner = _expr_key(func.value)
        name = func.attr
        lock = self.locks.lock_held.get(name)
        if lock is not None and not self.construction:
            if owner is None or (owner, lock) not in self.held:
                self.checker.report(
                    node,
                    f"call to {self.locks.name}.{name} requires '# lock-held: "
                    f"{lock}' but {owner or '<expr>'}.{lock} is not held on "
                    f"this path (wrap the call in 'with {owner or '<owner>'}."
                    f"{lock}:' or declare the caller lock-held)",
                )
        for attr in sorted(self.locks.acquires.get(name, ())):
            if owner is not None and (owner, attr) in self.held:
                self.checker.report(
                    node,
                    f"calling {self.locks.name}.{name} while holding "
                    f"{owner}.{attr}: the callee re-acquires the "
                    "non-reentrant lock (self-deadlock)",
                )
        # A lock-held helper in call position is a call, not an escape.
        self.visit(func.value if lock is not None else func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword)

    # Nested functions/lambdas inherit the lexical lock set: a closure
    # defined inside `with self._lock:` typically *escapes* the lock's
    # dynamic extent (it runs later, on another thread), so treat the
    # nested body as holding nothing.
    def _visit_nested(self, node: ast.AST) -> None:
        outer = self.held
        self.held = []
        self.generic_visit(node)
        self.held = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_nested(node)


class LockDisciplineChecker(Checker):
    rule_id = "GSD103"
    title = "guarded-by fields and lock-held helpers only under their lock"
    suppress_marker = "unguarded-ok"
    scope_dirs = ()  # driven entirely by declarations and lock fields

    def visit(self, sf: SourceFile) -> None:
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ClassDef):
                locks = _ClassLocks(node, sf)
                if not locks.empty:
                    self._check_class(node, locks)

    def _check_class(self, cls: ast.ClassDef, locks: _ClassLocks) -> None:
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            lock = locks.lock_held.get(stmt.name)
            # Callers hold the lock on *this* instance (checked at each
            # call in the class); the body may touch guarded state.
            seed = [("self", lock)] if lock is not None else []
            scanner = _MethodScanner(self, locks, stmt.name, seed)
            for inner in stmt.body:
                scanner.visit(inner)
