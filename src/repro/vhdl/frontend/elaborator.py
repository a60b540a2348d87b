"""Elaboration: VHDL source -> flattened kernel Design.

"After elaboration, the VHDL hierarchy is flattened into a graph of
processes interconnected by signals" (paper Sec. 3).  This module does
exactly that: it resolves the top entity, recursively instantiates
components, creates one :class:`~repro.vhdl.signal.SignalLP` per signal
and one :class:`~repro.vhdl.process.ProcessLP` per process statement
(concurrent assignments become implicit processes), and wires the
bi-partite LP graph.

Mode heuristic (the paper's *mixed* configuration): processes containing
a clock-edge test (``rising_edge`` / ``falling_edge`` / ``'event``) are
tagged conservative — "synchronous components are mapped as conservative
... the clock signal is very persistent"; everything else defaults to
optimistic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from ...core.model import SyncMode
from ..design import Design
from ..process import ProcessLP
from . import ast
from .interp import (Env, InterpretedBody, SignalRef, _eval_const,
                     coerce_value, resolve_type)
from .parser import parse


class ElaborationError(RuntimeError):
    pass


def elaborate(source: Union[str, ast.DesignFile], top: str,
              generics: Optional[Dict[str, Any]] = None,
              traced: Union[bool, Tuple[str, ...]] = True,
              name: Optional[str] = None) -> Design:
    """Elaborate VHDL ``source`` with ``top`` as the root entity.

    ``generics`` overrides the top entity's generic defaults.  ``traced``
    selects which signals record their history: ``True`` (all), a tuple
    of hierarchical names, or ``False``.
    """
    design_file = parse(source) if isinstance(source, str) else source
    design = Design(name or f"vhdl_{top.lower()}")
    elab = _Elaborator(design_file, design, traced)
    elab.instantiate(top, prefix="", generic_overrides=generics or {},
                     port_bindings={})
    elab.mark_shared_signals()
    return design


class _Elaborator:
    def __init__(self, design_file: ast.DesignFile, design: Design,
                 traced) -> None:
        self.file = design_file
        self.design = design
        self.traced = traced
        self._anon = 0
        #: lp_id -> every SignalRef created for it (for the post-pass
        #: that flags multi-driver signals; see SignalRef.shared).
        self._refs: Dict[int, List[SignalRef]] = {}

    # ------------------------------------------------------------------
    def _is_traced(self, name: str) -> bool:
        if self.traced is True:
            return True
        if not self.traced:
            return False
        return name in self.traced

    def _fresh_label(self, prefix: str, base: str) -> str:
        self._anon += 1
        return f"{prefix}{base}{self._anon}"

    # ------------------------------------------------------------------
    def instantiate(self, entity_name: str, prefix: str,
                    generic_overrides: Dict[str, Any],
                    port_bindings: Dict[str, SignalRef]) -> None:
        """Create the LPs of one entity instance under ``prefix``."""
        entity = self.file.entity(entity_name)
        arch = self.file.architecture_of(entity_name)

        constants: Dict[str, Any] = {}
        for generic in entity.generics:
            if generic.name in generic_overrides:
                constants[generic.name] = generic_overrides[generic.name]
            elif generic.default is not None:
                constants[generic.name] = _eval_const(generic.default,
                                                      constants)
            else:
                raise ElaborationError(
                    f"{prefix}{entity_name}: generic "
                    f"{generic.name!r} has no value")

        signals: Dict[str, SignalRef] = {}

        # Ports: bound to parent signals, or created fresh at the top.
        for port in entity.ports:
            if port.name in port_bindings:
                signals[port.name] = port_bindings[port.name]
                continue
            vtype = resolve_type(port.type_mark,
                                 lambda e: _eval_const(e, constants))
            initial = vtype.default()
            if port.default is not None:
                initial = coerce_value(
                    _eval_const(port.default, constants, vtype), vtype)
            lp = self.design.signal(f"{prefix}{port.name}", initial,
                                    traced=self._is_traced(
                                        f"{prefix}{port.name}"))
            ref = SignalRef(lp.lp_id, vtype)
            self._refs.setdefault(lp.lp_id, []).append(ref)
            signals[port.name] = ref

        # Architecture declarations.
        components: Dict[str, ast.ComponentDecl] = {}
        for decl in arch.declarations:
            if isinstance(decl, ast.SignalDecl):
                vtype = resolve_type(decl.type_mark,
                                     lambda e: _eval_const(e, constants))
                for sig_name in decl.names:
                    initial = vtype.default()
                    if decl.initial is not None:
                        initial = coerce_value(
                            _eval_const(decl.initial, constants, vtype),
                            vtype)
                    full = f"{prefix}{sig_name}"
                    lp = self.design.signal(full, initial,
                                            traced=self._is_traced(full))
                    ref = SignalRef(lp.lp_id, vtype)
                    self._refs.setdefault(lp.lp_id, []).append(ref)
                    signals[sig_name] = ref
            elif isinstance(decl, ast.ConstantDecl):
                vtype = resolve_type(decl.type_mark,
                                     lambda e: _eval_const(e, constants))
                value = coerce_value(
                    _eval_const(decl.value, constants, vtype), vtype)
                for const_name in decl.names:
                    constants[const_name] = value
            elif isinstance(decl, ast.ComponentDecl):
                components[decl.name] = decl
            else:
                raise ElaborationError(
                    f"unsupported declaration {type(decl)}")

        env = Env(signals, constants)

        # Concurrent statements.
        for stmt in arch.statements:
            self._elaborate_statement(stmt, signals, constants,
                                      components, prefix)

    def _elaborate_statement(self, stmt, signals, constants, components,
                             prefix: str) -> None:
        env = Env(signals, constants)
        if isinstance(stmt, ast.ProcessStmt):
            self._make_process(stmt, env, prefix)
        elif isinstance(stmt, ast.ConcurrentAssign):
            process = _assign_to_process(stmt)
            self._make_process(process, env, prefix)
        elif isinstance(stmt, ast.Instantiation):
            self._make_instance(stmt, components, env, constants, prefix)
        elif isinstance(stmt, ast.GenerateFor):
            low = int(_eval_const(stmt.low, constants))
            high = int(_eval_const(stmt.high, constants))
            step = -1 if stmt.downto else 1
            values = range(low, high + step, step)
            for value in values:
                # The loop parameter is a constant in the replicated
                # scope; labels get an index suffix for uniqueness.
                child_constants = dict(constants)
                child_constants[stmt.var] = value
                child_prefix = f"{prefix}{stmt.label}({value})."
                for inner in stmt.statements:
                    self._elaborate_statement(inner, signals,
                                              child_constants,
                                              components, child_prefix)
        else:
            raise ElaborationError(
                f"unsupported concurrent statement {type(stmt)}")

    def mark_shared_signals(self) -> None:
        """Flag multi-driver signals so partial assignments use
        per-element 'Z' drivers (see SignalRef.shared)."""
        for signal in self.design.signals:
            if len(signal.drivers) > 1:
                for ref in self._refs.get(signal.lp_id, ()):
                    ref.shared = True

    # ------------------------------------------------------------------
    def _make_process(self, process: ast.ProcessStmt, env: Env,
                      prefix: str) -> ProcessLP:
        body = InterpretedBody(process, env)
        label = process.label or self._fresh_label(prefix, "proc")
        mode = (SyncMode.CONSERVATIVE if _is_synchronous(process)
                else SyncMode.OPTIMISTIC)
        full = f"{prefix}{process.label}" if process.label else label
        return self.design.process(full, body, mode=mode)

    def _make_instance(self, inst: ast.Instantiation,
                       components: Dict[str, ast.ComponentDecl],
                       env: Env, constants: Dict[str, Any],
                       prefix: str) -> None:
        # The component must correspond to an entity of the same name.
        try:
            entity = self.file.entity(inst.component)
        except KeyError:
            raise ElaborationError(
                f"instance {inst.label}: no entity named "
                f"{inst.component!r}")
        generic_overrides: Dict[str, Any] = {}
        names_by_pos = [g.name for g in entity.generics]
        for formal, actual in inst.generic_map:
            key = names_by_pos[int(formal)] if formal.isdigit() else formal
            generic_overrides[key] = _eval_const(actual, constants)
        port_bindings: Dict[str, SignalRef] = {}
        port_names = [p.name for p in entity.ports]
        for formal, actual in inst.port_map:
            key = port_names[int(formal)] if formal.isdigit() else formal
            if isinstance(actual, ast.Name) and \
                    actual.ident in env.signals:
                port_bindings[key] = env.signals[actual.ident]
            elif isinstance(actual, ast.Name) and actual.ident == "open":
                continue
            else:
                # Constant actual: materialize a driver-less signal
                # holding the value (it never changes).
                value = _eval_const(actual, constants)
                port = next(p for p in entity.ports if p.name == key)
                vtype = resolve_type(
                    port.type_mark,
                    lambda e: _eval_const(e, generic_overrides
                                          or constants))
                lp = self.design.signal(
                    f"{prefix}{inst.label}.{key}.const",
                    coerce_value(value, vtype))
                ref = SignalRef(lp.lp_id, vtype)
                self._refs.setdefault(lp.lp_id, []).append(ref)
                port_bindings[key] = ref
        self.instantiate(inst.component, prefix=f"{prefix}{inst.label}.",
                         generic_overrides=generic_overrides,
                         port_bindings=port_bindings)


def _is_synchronous(process: ast.ProcessStmt) -> bool:
    """Paper's mixed heuristic: edge-triggered processes -> conservative."""
    return _edge_in_stmts(process.body)


_EDGES = ("rising_edge", "falling_edge")


# Module-level, like the walkers of interp.py: a nested recursive
# function would reach itself through its own closure cell, a cycle.
def _edge_in_expr(node) -> bool:
    if isinstance(node, ast.Call) and node.func in _EDGES:
        return True
    if isinstance(node, ast.Indexed):
        return (isinstance(node.base, ast.Name)
                and node.base.ident in _EDGES) \
            or _edge_in_expr(node.base) or _edge_in_expr(node.index)
    if isinstance(node, ast.Attribute):
        return node.attr == "event" or _edge_in_expr(node.base)
    if isinstance(node, ast.Unary):
        return _edge_in_expr(node.operand)
    if isinstance(node, ast.Binary):
        return _edge_in_expr(node.left) or _edge_in_expr(node.right)
    if isinstance(node, ast.Call):
        return any(map(_edge_in_expr, node.args))
    return False


def _edge_in_stmts(stmts) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ast.IfStmt):
            if any(_edge_in_expr(condition) or _edge_in_stmts(body)
                   for condition, body in stmt.arms) \
                    or _edge_in_stmts(stmt.orelse):
                return True
        elif isinstance(stmt, ast.CaseStmt):
            if any(_edge_in_stmts(body) for _choices, body in stmt.arms):
                return True
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
            if _edge_in_stmts(stmt.body):
                return True
        elif isinstance(stmt, ast.WaitStmt):
            if stmt.until is not None and _edge_in_expr(stmt.until):
                return True
    return False


def _assign_to_process(stmt: ast.ConcurrentAssign) -> ast.ProcessStmt:
    """Desugar a concurrent (conditional) assignment into a process.

    ``y <= a when c else b after t;`` becomes a process sensitive to all
    signals read, whose body is the equivalent if/else of signal
    assignments.  Sensitivity is filled in by the elaborator through the
    read-collection pass, so here the sensitivity list is left empty and
    an explicit ``wait on`` is synthesized instead — except that the
    interpreter needs a static list; we collect names at this level.
    """
    waveform_of = lambda value: ((value, stmt.after),)

    def arm_stmt(value):
        return ast.SignalAssign(stmt.target, waveform_of(value),
                                stmt.transport, None)

    arms = list(stmt.arms)
    last_value, last_cond = arms[-1]
    if last_cond is not None:
        raise ElaborationError(
            "conditional assignment must end with an unconditional else")
    if len(arms) == 1:
        body: Tuple[ast.Stmt, ...] = (arm_stmt(last_value),)
    else:
        if_arms = tuple((cond, (arm_stmt(value),))
                        for value, cond in arms[:-1])
        body = (ast.IfStmt(if_arms, (arm_stmt(last_value),)),)

    # Sensitivity: every signal read anywhere in the statement.
    read_names: List[str] = []

    def collect(node):
        if isinstance(node, ast.Name):
            read_names.append(node.ident)
        elif isinstance(node, ast.Indexed):
            collect(node.base)
            collect(node.index)
        elif isinstance(node, ast.Sliced):
            collect(node.base)
        elif isinstance(node, ast.Attribute):
            collect(node.base)
        elif isinstance(node, ast.Unary):
            collect(node.operand)
        elif isinstance(node, ast.Binary):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                collect(arg)
        elif isinstance(node, ast.Aggregate):
            for item in node.positional:
                collect(item)
            if node.others is not None:
                collect(node.others)

    for value, cond in arms:
        collect(value)
        if cond is not None:
            collect(cond)
    sensitivity = tuple(dict.fromkeys(read_names))
    return ast.ProcessStmt(stmt.label, sensitivity, (), body)
