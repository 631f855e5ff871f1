"""FLOW-WIRE: static conformance of the binary wire codec.

Every ``FT_*`` frame tag an encoder in :mod:`repro.service.wire` emits
needs a decoder branch on the end that receives it. A missing one
produces frames that are unparseable on arrival and only fail under
load — so this pass checks the pairing statically, across modules:

* every ``FT_*`` tag passed to an encoder — a constant, or a codec's
  ``ft_*`` attribute holding one — must appear in a decoder comparison
  or key a dispatch table somewhere in the serving modules;
* a tag encoded as a module constant (``FT_MSG``: the generic message
  frame, sent in both directions) must moreover be handled by *every*
  frame reader — each module that takes binary frames off the wire
  with ``decode_binary_frame``/``recv_binary_frame`` — since whichever
  end reads, it can be sent one. A codec's ``ft_*`` attribute is
  directional, so one decoder somewhere suffices.

The byte layout inside a frame is not this pass's business: the
structs that carry requests and verdicts are built per family at run
time, where no AST pass sees them, and their pack/unpack pairs are
hex-pinned and round-tripped by the tests instead.

Scope: serving dirs only (``service/``, ``cluster/``, ``stream/``) —
the modules that speak the wire protocol.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from ..lint import LintModule, ProgramContext, Violation, rule
from ..rules import SERVING_DIRS

__all__ = ["check_wire_conformance"]


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
        "every FT_* frame tag an encoder emits must have a decoder "
        "branch, in every frame reader when either end may send it"
    ),
    example=(
        "FT_PING = 7\n"
        "encode_binary_frame(FT_PING, payload)\n"
        "# FLOW-WIRE: FT_PING is encoded here but no decoder in the "
        "serving modules compares a frame type against FT_PING\n"
    ),
)
def check_wire_conformance(
    context: ProgramContext,
) -> Iterator[Violation]:
    """Cross-check the binary codec's frame tags across all wire
    modules: every ``FT_*`` tag (or codec ``ft_*`` attribute) passed
    to an encoder must be compared against, or key a dispatch table,
    in some decoder — and a constant tag in every module that reads
    frames."""
    wire_modules = [
        module
        for module in context.modules
        if module.in_dirs(*SERVING_DIRS)
    ]
    encoded: Dict[str, Tuple[LintModule, ast.Call]] = {}
    #: relpath -> the tags that module compares against / dispatches on
    compared_by: Dict[str, Set[str]] = {}
    #: relpath -> (module, its first frame-reading call)
    readers: Dict[str, Tuple[LintModule, ast.Call]] = {}

    for module in wire_modules:
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
            callee = (
                module.dotted_name(node.func) or ""
            ).split(".")[-1]
            if callee in _FRAME_READERS:
                readers.setdefault(module.relpath, (module, node))
            if "encode" in callee:
                # FT_* tags handed to an encoder
                for arg in node.args:
                    for tag in _ft_operands(arg):
                        encoded.setdefault(tag, (module, node))

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
