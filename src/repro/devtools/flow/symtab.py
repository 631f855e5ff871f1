"""Project-wide symbol table for the flow pass.

The per-module rules in :mod:`repro.devtools.rules` see one file at a
time; FLOW-BLOCK needs to know *what a name is* across the whole of
``src/repro``: which class a ``self.attr`` holds, which module a
``from .wire import encode_binary_frame`` lands in, which methods a
class defines.  This module builds that table once per lint run,
stdlib ``ast`` only.

Resolution is deliberately name-based and conservative: a symbol that
cannot be resolved to exactly one definition resolves to nothing, so
ambiguity degrades to silence, never to a false finding.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..lint import LintModule

__all__ = ["ClassInfo", "FunctionInfo", "Program"]


@dataclasses.dataclass
class FunctionInfo:
    """One function/method/lambda the call graph can land on."""

    name: str
    qualname: str  # "<relpath>::Class.method" — stable display name
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    module: LintModule
    owner: Optional["ClassInfo"] = None

    def param_types(self) -> Dict[str, str]:
        """Parameter name -> annotated class name (bare names only)."""
        types: Dict[str, str] = {}
        args = getattr(self.node, "args", None)
        if args is None:
            return types
        for arg in list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        ):
            annotation = arg.annotation
            if isinstance(annotation, ast.Name):
                types[arg.arg] = annotation.id
            elif isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                types[arg.arg] = annotation.value.split(".")[-1]
            elif isinstance(annotation, ast.Attribute):
                types[arg.arg] = annotation.attr
        return types


@dataclasses.dataclass
class ClassInfo:
    """One class: its methods plus what its attributes hold."""

    name: str
    node: ast.ClassDef
    module: LintModule
    methods: Dict[str, FunctionInfo] = dataclasses.field(
        default_factory=dict
    )
    #: ``self.<attr> = <Ctor>(...)``, or ``self.<attr> = <param>`` in
    #: ``__init__`` — attr name -> the constructor's or the parameter
    #: annotation's bare class name (resolved lazily against the
    #: program's class table).
    attr_ctors: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Bare names of the base classes, as written (resolved lazily).
    bases: List[str] = dataclasses.field(default_factory=list)


def _bare_callee(module: LintModule, call: ast.Call) -> Optional[str]:
    """Last dotted component of a call target (``wire.Router`` ->
    ``Router``), import aliases resolved."""
    dotted = module.resolve_call(call)
    if dotted is None:
        return None
    return dotted.split(".")[-1]


class Program:
    """Symbol table over every module in one lint run."""

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.modules: List[LintModule] = list(modules)
        #: class name -> definitions (several = ambiguous, unresolved)
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: module-level function name -> definitions
        self.functions: Dict[str, List[FunctionInfo]] = {}
        #: relpath -> {top-level symbol name -> Function/ClassInfo}
        self.module_symbols: Dict[
            str, Dict[str, Union[FunctionInfo, ClassInfo]]
        ] = {}
        for module in self.modules:
            self._index_module(module)

    # -- construction ---------------------------------------------------

    def _index_module(self, module: LintModule) -> None:
        symbols: Dict[str, Union[FunctionInfo, ClassInfo]] = {}
        for item in module.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    name=item.name,
                    qualname=f"{module.relpath}::{item.name}",
                    node=item,
                    module=module,
                )
                symbols[item.name] = info
                self.functions.setdefault(item.name, []).append(info)
            elif isinstance(item, ast.ClassDef):
                cls = self._index_class(module, item)
                symbols[item.name] = cls
                self.classes.setdefault(item.name, []).append(cls)
        self.module_symbols[module.relpath] = symbols

    def _index_class(
        self, module: LintModule, node: ast.ClassDef
    ) -> ClassInfo:
        cls = ClassInfo(name=node.name, node=node, module=module)
        for base in node.bases:
            if isinstance(base, ast.Name):
                cls.bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                cls.bases.append(base.attr)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[item.name] = FunctionInfo(
                    name=item.name,
                    qualname=(
                        f"{module.relpath}::{node.name}.{item.name}"
                    ),
                    node=item,
                    module=module,
                    owner=cls,
                )
        # self.<attr> = Ctor(...) anywhere in the class, or an annotated
        # __init__ parameter, tells the call graph what methods
        # self.<attr>.m() can land on.
        for method in cls.methods.values():
            params = method.param_types() if method.name == "__init__" else {}
            for sub in ast.walk(method.node):
                if not isinstance(sub, ast.Assign):
                    continue
                if isinstance(sub.value, ast.Call):
                    callee = _bare_callee(module, sub.value)
                elif isinstance(sub.value, ast.Name):
                    callee = params.get(sub.value.id)
                else:
                    continue
                if callee is None or not callee[:1].isupper():
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_ctors.setdefault(target.attr, callee)
        return cls

    # -- lookups --------------------------------------------------------

    def all_classes(self) -> Iterator[ClassInfo]:
        for definitions in self.classes.values():
            yield from definitions

    def unique_class(self, name: str) -> Optional[ClassInfo]:
        definitions = self.classes.get(name, [])
        return definitions[0] if len(definitions) == 1 else None

    def lineage(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """``cls``, then its resolvable base classes, nearest first."""
        queue, seen = [cls], {id(cls)}
        while queue:
            current = queue.pop(0)
            yield current
            for name in current.bases:
                base = self.unique_class(name)
                if base is not None and id(base) not in seen:
                    seen.add(id(base))
                    queue.append(base)

    def find_method(
        self, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        """``cls``'s own or nearest inherited definition of ``name``."""
        for owner in self.lineage(cls):
            method = owner.methods.get(name)
            if method is not None:
                return method
        return None

    def overriders(
        self, cls: ClassInfo, name: str
    ) -> Iterator[FunctionInfo]:
        """Definitions of ``name`` in ``cls``'s subclasses — where a
        ``self.name()`` written in ``cls`` may land at run time (a
        base class calling the hooks its subclasses fill in)."""
        for other in self.all_classes():
            if other is cls or name not in other.methods:
                continue
            if any(base is cls for base in self.lineage(other)):
                yield other.methods[name]

    def unique_function(self, name: str) -> Optional[FunctionInfo]:
        definitions = self.functions.get(name, [])
        return definitions[0] if len(definitions) == 1 else None

    def resolve_name(
        self, module: LintModule, name: str
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """A bare name used in ``module``: same-module symbol first,
        then the import table, then a unique project-wide match."""
        symbol = self.module_symbols.get(module.relpath, {}).get(name)
        if symbol is not None:
            return symbol
        canonical = module.import_aliases.get(name)
        if canonical is not None:
            resolved = self.resolve_dotted(canonical)
            if resolved is not None:
                return resolved
            # Fall back on the symbol's own name: relative imports
            # canonicalise without the package root, so the dotted
            # module path may not match any indexed relpath.
            tail = canonical.split(".")[-1]
            return self.unique_function(tail) or self.unique_class(tail)
        return None

    def resolve_dotted(
        self, dotted: str
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """``pkg.module.symbol`` -> the definition, when the module
        suffix matches exactly one indexed file."""
        parts = dotted.split(".")
        if len(parts) < 2:
            return (
                self.unique_function(dotted) or self.unique_class(dotted)
            )
        symbol, module_parts = parts[-1], parts[:-1]
        suffix = "/".join(module_parts) + ".py"
        matches = [
            relpath
            for relpath in self.module_symbols
            if relpath == suffix or relpath.endswith("/" + suffix)
        ]
        if len(matches) != 1:
            return None
        return self.module_symbols[matches[0]].get(symbol)
