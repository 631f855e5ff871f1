"""Call-graph resolution over the flow symbol table.

Turns call sites and callback expressions into
:class:`~repro.devtools.flow.symtab.FunctionInfo` targets:

* ``self.m(...)``               -> method of the enclosing class, own
                                   or inherited — plus, as call-graph
                                   edges, every subclass override of it
* ``self.attr.m(...)``          -> method of the class ``attr`` was
                                   constructed with, or is given as an
                                   annotated ``__init__`` parameter
* ``x = ClassName(...); x.m()`` -> method via local construction
* ``for x in self.f(): x.m()``  -> method of the element class of
                                   ``f``'s return annotation
                                   (``List[ClassName]``)
* ``name(...)``                 -> module function, imported project
                                   function, or class constructor
                                   (= its ``__init__``)
* annotated parameters          -> methods of the annotated class

Anything else resolves to ``None`` — unknown callees are dropped, not
guessed, so flow findings only ride edges the source actually shows.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .symtab import ClassInfo, FunctionInfo, Program

__all__ = ["Resolver"]


class Resolver:
    """Call and callback resolution for the flow pass."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._local_types: Dict[int, Dict[str, ClassInfo]] = {}

    # -- local type inference -------------------------------------------

    def local_types(self, fn: FunctionInfo) -> Dict[str, ClassInfo]:
        """Variable -> class for ``x = ClassName(...)`` assignments,
        loops over ``self.f()`` and annotated parameters inside ``fn``."""
        cached = self._local_types.get(id(fn.node))
        if cached is not None:
            return cached
        types: Dict[str, ClassInfo] = {}
        for param, type_name in fn.param_types().items():
            cls = self.program.unique_class(type_name)
            if cls is not None:
                types[param] = cls
        for node in ast.walk(fn.node):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                element = self._element_class(fn, node.iter)
                if element is not None:
                    types.setdefault(node.target.id, element)
                continue
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            target_cls = self._class_of_call(fn, node.value)
            if target_cls is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    types.setdefault(target.id, target_cls)
        self._local_types[id(fn.node)] = types
        return types

    def _element_class(
        self, fn: FunctionInfo, expr: ast.expr
    ) -> Optional[ClassInfo]:
        """``Cls`` for ``self.f()`` annotated to return ``List[Cls]``
        (any one-parameter generic)."""
        func = getattr(expr, "func", None)
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and fn.owner is not None
        ):
            return None
        method = self.program.find_method(fn.owner, func.attr)
        returns = getattr(method.node, "returns", None) if method else None
        if isinstance(returns, ast.Subscript) and isinstance(
            returns.slice, ast.Name
        ):
            return self.program.unique_class(returns.slice.id)
        return None

    def _class_of_call(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Optional[ClassInfo]:
        dotted = fn.module.resolve_call(call)
        if dotted is None:
            return None
        resolved = self.program.resolve_name(
            fn.module, dotted.split(".")[0]
        )
        if isinstance(resolved, ClassInfo) and "." not in dotted:
            return resolved
        tail = dotted.split(".")[-1]
        if tail[:1].isupper():
            by_dotted = self.program.resolve_dotted(dotted)
            if isinstance(by_dotted, ClassInfo):
                return by_dotted
            return self.program.unique_class(tail)
        return None

    # -- callable expressions (callback registrations) ------------------

    def resolve_callable(
        self, fn: FunctionInfo, expr: ast.expr
    ) -> Optional[FunctionInfo]:
        """A callback *expression* (``self._tick``, a bare function
        name, ``functools.partial(self._m, x)``, or a lambda) -> the
        function it will invoke."""
        if isinstance(expr, ast.Lambda):
            return FunctionInfo(
                name="<lambda>",
                qualname=f"{fn.qualname}.<lambda>",
                node=expr,
                module=fn.module,
                owner=fn.owner,
            )
        if isinstance(expr, ast.Call):
            # functools.partial(f, ...) registers f.
            dotted = fn.module.resolve_call(expr) or ""
            if dotted.split(".")[-1] == "partial" and expr.args:
                return self.resolve_callable(fn, expr.args[0])
            return None
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and fn.owner is not None
            ):
                return self.program.find_method(fn.owner, expr.attr)
            receiver = self._receiver_class(fn, expr.value)
            if receiver is not None:
                return self.program.find_method(receiver, expr.attr)
            return None
        if isinstance(expr, ast.Name):
            # A closure defined in the registering function itself
            # (``def swap(): ...; reactor.run_sync(swap)``).
            for sub in ast.walk(fn.node):
                if (
                    isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and sub.name == expr.id
                    and sub is not fn.node
                ):
                    return FunctionInfo(
                        name=sub.name,
                        qualname=f"{fn.qualname}.{sub.name}",
                        node=sub,
                        module=fn.module,
                        owner=fn.owner,
                    )
            resolved = self.program.resolve_name(fn.module, expr.id)
            if isinstance(resolved, FunctionInfo):
                return resolved
            return None
        return None

    # -- call sites -----------------------------------------------------

    def resolve_call(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Optional[FunctionInfo]:
        """The project function/method a call site lands on."""
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.program.resolve_name(fn.module, func.id)
            if isinstance(resolved, FunctionInfo):
                return resolved
            if isinstance(resolved, ClassInfo):
                return resolved.methods.get("__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        receiver = self._receiver_class(fn, func.value)
        if receiver is not None:
            return self.program.find_method(receiver, func.attr)
        # mod.func(...) through an imported project module
        dotted = fn.module.resolve_call(call)
        if dotted is not None:
            resolved = self.program.resolve_dotted(dotted)
            if isinstance(resolved, FunctionInfo):
                return resolved
            if isinstance(resolved, ClassInfo):
                return resolved.methods.get("__init__")
        return None

    def _receiver_class(
        self, fn: FunctionInfo, value: ast.expr
    ) -> Optional[ClassInfo]:
        """The class of a method-call receiver expression."""
        if isinstance(value, ast.Name):
            if value.id == "self":
                return fn.owner
            return self.local_types(fn).get(value.id)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and fn.owner is not None
        ):
            ctor = fn.owner.attr_ctors.get(value.attr)
            if ctor is not None:
                return self.program.unique_class(ctor)
        return None

    def callees(
        self, fn: FunctionInfo
    ) -> Iterator[Tuple[ast.Call, FunctionInfo]]:
        """Resolved ``(call site, target)`` edges out of ``fn``."""
        body: Union[List[ast.stmt], ast.expr]
        if isinstance(fn.node, ast.Lambda):
            body = fn.node.body
            nodes = ast.walk(body)
        else:
            nodes = ast.walk(fn.node)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            targets = [self.resolve_call(fn, node)]
            if isinstance(node.func, ast.Attribute):
                # Dynamic dispatch: the receiver may be a subclass.
                receiver = self._receiver_class(fn, node.func.value)
                if receiver is not None:
                    targets.extend(
                        self.program.overriders(receiver, node.func.attr)
                    )
            for target in targets:
                if target is not None and target.node is not fn.node:
                    yield node, target
