"""``async-blocking`` / ``lock-order`` / ``blind-sleep`` — event-loop hygiene.

The serving core runs on one event loop: the gateway's flusher serves
each tick inline (its batched engine calls included — measured faster
than handing them to a thread pool), and its connections share that
loop.  Nothing on it may *wait* by blocking, and
any code that takes several ``asyncio.Lock``s must take them in
**sorted** key order (two tasks locking ``{a, b}`` and ``{b, a}`` in
arrival order deadlock).  Both contracts are invisible in a diff until
the wrong interleaving hits production; this checker makes them
reviewable statically.

Rules (applied only to code whose *nearest enclosing function* is an
``async def`` — sync closures defined inside one may be executor
payloads and may block):

* ``async-blocking`` — ``time.sleep(...)``: use ``asyncio.sleep``, or
  better an event with a deadline.  A tick's own compute (engine calls
  included) is not a wait and is allowed on the loop.
* ``lock-order`` — a loop that acquires a lock per iteration
  (``await lock.acquire()`` / ``async with lock``) must iterate a
  ``sorted(...)`` iterable — directly, or via a variable whose assignment
  in the same function contains a ``sorted(...)`` call.
* ``blind-sleep`` — ``asyncio.sleep(<anything but a literal 0>)`` in the
  serving core (:data:`BLIND_SLEEP_PATHS`): a task that sleeps cannot see
  the arrival or disconnect it is waiting out — the gateway's flusher slept
  its whole batch window in 91% of lockstep flushes that way.  Wait on an
  event with a deadline instead.  The gateway client is in scope too: it
  never backs off, since no chunk is refused.  Load generators pace by
  sleeping on purpose and are out of scope by path.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .core import Checker, SourceFile, Violation

__all__ = ["AsyncHygieneChecker"]

#: Files (posix path suffixes) where waiting must be event-driven.
BLIND_SLEEP_PATHS = (
    "serving/gateway/server.py",
    "serving/gateway/client.py",
    "serving/async_fleet.py",
)


def _is_sleep(call: ast.Call, module: str, sleep_aliases: "set[str]") -> bool:
    """``<module>.sleep(...)`` or a ``from <module> import sleep`` alias."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "sleep":
        return isinstance(func.value, ast.Name) and func.value.id == module
    return isinstance(func, ast.Name) and func.id in sleep_aliases


def _sleep_aliases(tree: ast.AST, module: str) -> "set[str]":
    """Local names bound to ``<module>.sleep`` by a ``from`` import."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name == "sleep":
                    aliases.add(alias.asname or alias.name)
    return aliases


def _is_literal_zero(call: ast.Call) -> bool:
    """``sleep(0)``: a bare yield to the loop, not a wait."""
    return (
        len(call.args) == 1
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value == 0
    )


def _contains_sorted_call(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Name)
        and sub.func.id == "sorted"
        for sub in ast.walk(node)
    )


def _acquires_lock(node: ast.AST) -> bool:
    """``await x.acquire()`` or ``async with <lock-ish>``."""
    if isinstance(node, ast.Await):
        value = node.value
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "acquire"
        )
    if isinstance(node, ast.AsyncWith):
        for item in node.items:
            expr = item.context_expr
            if "lock" in ast.unparse(expr).lower():
                return True
    return False


def _direct_statements(func: ast.AST) -> List[ast.stmt]:
    """Every statement whose nearest enclosing function is ``func``.

    Nested ``def``/``async def``/``class`` bodies are excluded: a sync
    closure defined inside an async def may be an executor payload
    running off the event loop, so the blocking rules do not apply to it.
    """
    collected: List[ast.stmt] = []
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.stmt):
            collected.append(node)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue  # nested body is a different execution context
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                stack.append(child)
            elif isinstance(child, getattr(ast, "match_case", ())):
                stack.append(child)
    return collected


def _own_expressions(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions evaluated by ``stmt`` itself (not by sub-statements)."""
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]


def _iterable_is_sorted(
    loop: ast.For, func_statements: List[ast.stmt]
) -> bool:
    """Whether a loop's iterable traces to a ``sorted(...)`` call."""
    if _contains_sorted_call(loop.iter):
        return True
    if isinstance(loop.iter, ast.Name):
        target = loop.iter.id
        for stmt in func_statements:
            if isinstance(stmt, ast.Assign):
                names = [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                ]
                if target in names and _contains_sorted_call(stmt.value):
                    return True
    return False


class AsyncHygieneChecker(Checker):
    name = "async-hygiene"
    rules = ("async-blocking", "lock-order", "blind-sleep")

    def check(self, src: SourceFile) -> Iterable[Violation]:
        sleep_aliases = _sleep_aliases(src.tree, "time")
        # None = this file may sleep (pacing, back-off: not the serving core)
        async_sleep_aliases = (
            _sleep_aliases(src.tree, "asyncio")
            if src.rel.endswith(BLIND_SLEEP_PATHS)
            else None
        )
        for func in ast.walk(src.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            statements = _direct_statements(func)
            for stmt in statements:
                yield from self._check_statement(
                    src, func, stmt, statements, sleep_aliases,
                    async_sleep_aliases,
                )

    def _check_statement(
        self, src, func, stmt, statements, sleep_aliases, async_sleep_aliases
    ) -> Iterable[Violation]:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            acquires = any(
                _acquires_lock(sub) for sub in ast.walk(stmt)
            )
            if acquires and not _iterable_is_sorted(stmt, statements):
                yield src.violation(
                    "lock-order",
                    stmt,
                    f"async def {func.name} acquires locks in a loop over "
                    "an unsorted iterable — acquire per-session locks in "
                    "sorted key order or two concurrent ticks deadlock",
                )
        for expr in _own_expressions(stmt):
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                if _is_sleep(call, "time", sleep_aliases):
                    yield src.violation(
                        "async-blocking",
                        call,
                        f"time.sleep inside async def {func.name} blocks "
                        "the event loop — use await asyncio.sleep(...)",
                    )
                elif (
                    async_sleep_aliases is not None
                    and _is_sleep(call, "asyncio", async_sleep_aliases)
                    and not _is_literal_zero(call)
                ):
                    yield src.violation(
                        "blind-sleep",
                        call,
                        f"asyncio.sleep inside async def {func.name} cannot "
                        "see what it is waiting for happen — wait on an "
                        "event with a deadline",
                    )
