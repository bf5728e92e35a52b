"""PROTO — simcore process-protocol typestate.

The discrete-event engine resumes a coroutine process according to what
it yields; anything other than a registered request dataclass
(``Timeout``/``Acquire``/``Get``/``Put``/``Wait``/``AllOf``) raises at
runtime — possibly deep into a multi-hour sweep. And the engine is
dual-backend: components must be built through the factory
seam (``repro.accel.make_engine()`` plus ``engine.event()`` /
``engine.bandwidth_resource()`` / ``engine.slot_pool()``) so one
selection point switches the whole simulation; naming an engine class
directly silently pins the Python backend and forks the two data paths.

Two checks:

* **yield typestate** — a generator function that yields at least one
  known request (so it is statically recognizable as a process
  generator) must yield *only* requests: request constructor calls,
  locals assigned from them, or conditional expressions of those.
  ``yield from`` delegation is allowed (the delegate is checked on its
  own).
* **factory seam** — calling ``Engine``/``Event``/``Process``/
  ``BandwidthResource``/``SlotPool`` imported from ``simcore`` (or via
  the module object) is flagged outside ``utils/simcore.py`` and
  ``accel/__init__.py`` themselves.

The request-name list is parsed from ``utils/simcore.py``'s
``_DISPATCH`` table when that file is part of the scanned tree, so a
newly registered request type is recognized without touching the
linter; the canonical six are the fallback.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..findings import Finding
from .common import ImportMap, ModuleUnderLint, Rule, finding, origin_endswith
from .par import dispatch_request_names

#: Fallback when utils/simcore.py is not in the scanned tree.
CANONICAL_REQUESTS = ("Timeout", "Acquire", "Get", "Put", "Wait", "AllOf")

#: Engine primitives that must come from the factory seam.
PRIMITIVES = ("Engine", "Event", "Process", "BandwidthResource", "SlotPool")


class PROTO(Rule):
    id = "PROTO"
    title = "simcore process-protocol typestate"
    sanctioned = (
        "utils/simcore.py",
        "accel/__init__.py",
    )

    def __init__(self) -> None:
        self._requests: Tuple[str, ...] = CANONICAL_REQUESTS

    def prepare(self, modules: List[ModuleUnderLint]) -> None:
        """Learn the registered request set from the scanned tree."""
        for module in modules:
            if module.package_rel == "utils/simcore.py":
                parsed = dispatch_request_names(module.tree)
                if parsed:
                    self._requests = tuple(parsed)
                return

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        imports = ImportMap.of(module.tree)
        if not self.is_sanctioned(module):
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Call)
                    and self._resolved_simcore_name(node.func, imports) in PRIMITIVES
                ):
                    yield finding(
                        module,
                        node,
                        self.id,
                        "direct construction of simcore.{} bypasses the "
                        "engine factory seam; use repro.accel.make_engine() "
                        "and the engine's event()/bandwidth_resource()/"
                        "slot_pool() factories".format(
                            self._resolved_simcore_name(node.func, imports)
                        ),
                    )
        for fn in self._functions(module.tree):
            for found in self._check_generator(module, fn, imports):
                yield found

    # -- name binding -----------------------------------------------------

    def _resolved_simcore_name(
        self, func: ast.AST, imports: ImportMap
    ) -> Optional[str]:
        """If ``func`` names a simcore class (imported name or
        ``simcore.X`` attribute), its bare class name."""
        origin = imports.resolve(func)
        if origin is None:
            return None
        for name in tuple(self._requests) + PRIMITIVES:
            if origin_endswith(origin, "simcore." + name):
                return name
        return None

    def _is_request_call(self, node: ast.AST, imports: ImportMap) -> bool:
        return (
            isinstance(node, ast.Call)
            and self._resolved_simcore_name(node.func, imports) in self._requests
        )

    # -- generator typestate ----------------------------------------------

    @staticmethod
    def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                yield node

    @staticmethod
    def _own_yields(fn: ast.FunctionDef) -> List[ast.AST]:
        """Yield/YieldFrom nodes belonging to this function, excluding
        nested functions and lambdas."""
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    def _check_generator(
        self,
        module: ModuleUnderLint,
        fn: ast.FunctionDef,
        imports: ImportMap,
    ) -> Iterator[Finding]:
        yields = self._own_yields(fn)
        plain = [y for y in yields if isinstance(y, ast.Yield)]
        if not plain:
            return
        if not any(
            y.value is not None and self._is_request_call(y.value, imports)
            for y in plain
        ):
            return  # not statically recognizable as a process generator
        request_locals = self._request_locals(fn, imports)
        for node in plain:
            if not self._yield_ok(node.value, imports, request_locals):
                yield finding(
                    module,
                    node,
                    self.id,
                    "process generator {}() yields a value that is not a "
                    "registered simcore request ({})".format(
                        fn.name, ", ".join(self._requests)
                    ),
                )

    def _request_locals(
        self, fn: ast.FunctionDef, imports: ImportMap
    ) -> Set[str]:
        """Locals assigned a request constructor anywhere in the
        function (flow-insensitive: good enough to accept the
        ``req = Acquire(...); yield req`` idiom)."""
        out: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and self._is_request_call(
                node.value, imports
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
        return out

    def _yield_ok(
        self,
        value: Optional[ast.AST],
        imports: ImportMap,
        request_locals: Set[str],
    ) -> bool:
        if value is None:
            return False  # bare `yield` would resume-dispatch None
        if self._is_request_call(value, imports):
            return True
        if isinstance(value, ast.Name) and value.id in request_locals:
            return True
        if isinstance(value, ast.IfExp):
            return self._yield_ok(
                value.body, imports, request_locals
            ) and self._yield_ok(value.orelse, imports, request_locals)
        return False
