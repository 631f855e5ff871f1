"""FLOW-WIRE: static conformance of the binary wire codec.

The codec in :mod:`repro.service.wire` is a set of hand-maintained
inverses: every ``Struct.pack`` has an ``unpack`` twin and every
``FT_*`` frame tag an encoder emits needs a decoder branch.  A
mismatch produces torn frames that only fail under load — so this pass
checks the pairings statically, across modules:

* module-level ``NAME = struct.Struct("fmt")`` formats must compile;
* ``NAME.pack(...)`` argument counts and ``a, b, c = NAME.unpack…``
  target counts must equal the format's field count;
* every ``FT_*`` tag passed to an encoder — a constant, or a codec's
  ``ft_*`` attribute holding one — must appear in a decoder comparison
  or key a dispatch table somewhere in the serving modules;
* a tag encoded as a module constant (``FT_MSG``: the generic message
  frame, sent in both directions) must moreover be handled by *every*
  frame reader — each module that takes binary frames off the wire
  with ``decode_binary_frame``/``recv_binary_frame`` — since whichever
  end reads, it can be sent one. A codec's ``ft_*`` attribute is
  directional, so one decoder somewhere suffices.

Scope: serving dirs only (``service/``, ``cluster/``, ``stream/``) —
the modules that speak the wire protocol.
"""

from __future__ import annotations

import ast
import dataclasses
import struct
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..lint import LintModule, ProgramContext, Violation, rule
from ..rules import SERVING_DIRS

__all__ = ["check_wire_conformance"]


@dataclasses.dataclass
class _StructConst:
    """One module-level ``NAME = struct.Struct("fmt")`` constant."""

    name: str
    fmt: str
    node: ast.AST
    module: LintModule
    fields: int


def _literal_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _fmt_fields(fmt: str) -> Optional[int]:
    """Field count of a format string, None when invalid."""
    try:
        return len(struct.unpack(fmt, b"\x00" * struct.calcsize(fmt)))
    except struct.error:
        return None


def _collect_consts(
    module: LintModule,
) -> Tuple[Dict[str, _StructConst], List[Violation]]:
    consts: Dict[str, _StructConst] = {}
    bad: List[Violation] = []
    for item in module.tree.body:
        if not isinstance(item, ast.Assign):
            continue
        if not isinstance(item.value, ast.Call):
            continue
        if module.resolve_call(item.value) != "struct.Struct":
            continue
        if not item.value.args:
            continue
        fmt = _literal_str(item.value.args[0])
        if fmt is None:
            continue
        for target in item.targets:
            if not isinstance(target, ast.Name):
                continue
            fields = _fmt_fields(fmt)
            if fields is None:
                bad.append(
                    module.violation(
                        "FLOW-WIRE",
                        item,
                        f"{target.id} = struct.Struct({fmt!r}) does "
                        f"not compile — invalid format string",
                    )
                )
                continue
            consts[target.id] = _StructConst(
                target.id, fmt, item, module, fields
            )
    return consts, bad


def _receiver_const(
    func: ast.Attribute,
    local: Dict[str, _StructConst],
    global_by_name: Dict[str, List[_StructConst]],
) -> Optional[_StructConst]:
    if isinstance(func.value, ast.Name):
        name = func.value.id
    elif isinstance(func.value, ast.Attribute):
        name = func.value.attr
    else:
        return None
    const = local.get(name)
    if const is not None:
        return const
    candidates = global_by_name.get(name, [])
    return candidates[0] if len(candidates) == 1 else None


def _tuple_target_count(
    module: LintModule, call: ast.Call
) -> Optional[int]:
    """How many names the unpack result is destructured into, when
    that is statically clear (single tuple target, no starred)."""
    parent = module.parent(call)
    target: Optional[ast.expr] = None
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
    elif isinstance(parent, ast.For) and parent.iter is call:
        target = parent.target
    if isinstance(target, ast.Tuple) and not any(
        isinstance(elt, ast.Starred) for elt in target.elts
    ):
        return len(target.elts)
    return None


#: Taking a binary frame off the wire: a module calling one of these
#: is a frame reader.
_FRAME_READERS = {"decode_binary_frame", "recv_binary_frame"}


def _ft_operands(node: ast.expr) -> Iterator[str]:
    candidates = (
        node.elts if isinstance(node, (ast.Tuple, ast.List)) else [node]
    )
    for candidate in candidates:
        name: Optional[str] = None
        if isinstance(candidate, ast.Name):
            name = candidate.id
        elif isinstance(candidate, ast.Attribute):
            name = candidate.attr
        # ``FT_MSG`` constants and ``codec.ft_reply``-style attributes.
        if name is not None and name.upper().startswith("FT_"):
            yield name


@rule(
    "FLOW-WIRE",
    severity="error",
    scope="program",
    summary=(
        "struct pack/unpack field counts and FT_* encoder/decoder "
        "coverage must agree across the wire modules"
    ),
    example=(
        "HDR = struct.Struct('>BBII')    # magic, type, id, length\n"
        "HDR.pack(MAGIC, ftype, len(payload))\n"
        "# FLOW-WIRE: pack() called with 3 value(s), 4 field(s) declared\n"
    ),
)
def check_wire_conformance(
    context: ProgramContext,
) -> Iterator[Violation]:
    """Cross-check the binary codec against itself across all wire
    modules: every module-level ``struct.Struct`` constant's field
    count must match its ``pack`` argument lists and ``unpack`` tuple
    destructurings; and every ``FT_*`` tag (or codec ``ft_*``
    attribute) passed to an encoder must be compared against, or key a
    dispatch table, in some decoder."""
    wire_modules = [
        module
        for module in context.modules
        if module.in_dirs(*SERVING_DIRS)
    ]
    consts_by_module: Dict[str, Dict[str, _StructConst]] = {}
    global_by_name: Dict[str, List[_StructConst]] = {}
    for module in wire_modules:
        consts, bad = _collect_consts(module)
        consts_by_module[module.relpath] = consts
        yield from bad
        for const in consts.values():
            global_by_name.setdefault(const.name, []).append(const)

    encoded: Dict[str, Tuple[LintModule, ast.Call]] = {}
    #: relpath -> the tags that module compares against / dispatches on
    compared_by: Dict[str, Set[str]] = {}
    #: relpath -> (module, its first frame-reading call)
    readers: Dict[str, Tuple[LintModule, ast.Call]] = {}

    for module in wire_modules:
        local = consts_by_module[module.relpath]
        compared = compared_by.setdefault(module.relpath, set())
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare):
                for operand in [node.left] + list(node.comparators):
                    compared.update(_ft_operands(operand))
                continue
            if isinstance(node, (ast.Dict, ast.DictComp)):
                # A dispatch table keyed by frame type is a decoder.
                for key in (
                    node.keys if isinstance(node, ast.Dict) else [node.key]
                ):
                    if key is not None:
                        compared.update(_ft_operands(key))
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # FT_* tags handed to an encoder
            callee = (module.dotted_name(func) or "").split(".")[-1]
            if callee in _FRAME_READERS:
                readers.setdefault(module.relpath, (module, node))
            if "encode" in callee:
                for arg in node.args:
                    for tag in _ft_operands(arg):
                        encoded.setdefault(tag, (module, node))
            if not isinstance(func, ast.Attribute):
                # struct.pack('fmt', ...) / struct.unpack('fmt', ...)
                continue
            if func.attr == "pack" or (
                func.attr in ("unpack", "unpack_from", "iter_unpack")
            ):
                dotted = module.resolve_call(node) or ""
                if dotted in (
                    "struct.pack",
                    "struct.unpack",
                    "struct.unpack_from",
                ):
                    yield from _inline_struct_issues(module, node)
                    continue
                const = _receiver_const(func, local, global_by_name)
                if const is None:
                    continue
                yield from _const_call_issues(module, node, func, const)

    compared_anywhere = set().union(*compared_by.values())
    for tag, (module, site) in sorted(encoded.items()):
        if tag.isupper():
            for reader, read_site in readers.values():
                if tag not in compared_by[reader.relpath]:
                    yield reader.violation(
                        "FLOW-WIRE",
                        read_site,
                        f"{tag} is a frame either end may be sent, but "
                        f"this module reads frames here and never "
                        f"compares a frame type against {tag} — it "
                        f"could not tell one from a packed frame",
                    )
        if tag not in compared_anywhere:
            yield module.violation(
                "FLOW-WIRE",
                site,
                f"{tag} is encoded here but no decoder in the serving "
                f"modules compares a frame type against {tag} or keys "
                f"a dispatch table on it — the frame would be "
                f"unparseable on arrival",
            )


def _const_call_issues(
    module: LintModule,
    node: ast.Call,
    func: ast.Attribute,
    const: _StructConst,
) -> Iterator[Violation]:
    if func.attr == "pack":
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            return
        if node.keywords:
            return
        if len(node.args) != const.fields:
            yield module.violation(
                "FLOW-WIRE",
                node,
                f"{const.name}.pack() called with {len(node.args)} "
                f"value(s) but format {const.fmt!r} has "
                f"{const.fields} field(s)",
            )
        return
    count = _tuple_target_count(module, node)
    if count is not None and count != const.fields:
        yield module.violation(
            "FLOW-WIRE",
            node,
            f"{const.name}.{func.attr}() result is destructured into "
            f"{count} name(s) but format {const.fmt!r} has "
            f"{const.fields} field(s)",
        )


def _inline_struct_issues(
    module: LintModule, node: ast.Call
) -> Iterator[Violation]:
    if not node.args:
        return
    fmt = _literal_str(node.args[0])
    if fmt is None:
        return
    fields = _fmt_fields(fmt)
    if fields is None:
        yield module.violation(
            "FLOW-WIRE",
            node,
            f"struct format {fmt!r} does not compile — invalid "
            f"format string",
        )
        return
    func = node.func
    attr = func.attr if isinstance(func, ast.Attribute) else ""
    if attr == "pack":
        values = node.args[1:]
        if any(isinstance(arg, ast.Starred) for arg in values):
            return
        if len(values) != fields:
            yield module.violation(
                "FLOW-WIRE",
                node,
                f"struct.pack({fmt!r}, ...) called with "
                f"{len(values)} value(s) but the format has "
                f"{fields} field(s)",
            )
    else:
        count = _tuple_target_count(module, node)
        if count is not None and count != fields:
            yield module.violation(
                "FLOW-WIRE",
                node,
                f"struct.{attr}({fmt!r}, ...) result is destructured "
                f"into {count} name(s) but the format has {fields} "
                f"field(s)",
            )
