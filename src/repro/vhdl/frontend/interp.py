"""Interpreted VHDL process bodies.

The paper translated each VHDL process into a C class whose ``run()``
method is invoked by the kernel.  We interpret the process AST instead —
with one crucial property: the interpreter's execution state (variable
values plus a stack of resumable statement frames) is *plain data*, so
the body is *checkpointable* and interpreted processes can run under
Time Warp.  This is exactly the opposite of the generator-based bodies,
whose live Python frames force conservative mode.

Execution model: an explicit frame stack.  Each frame is a small list
(mutable for in-place position updates, cheap to shallow-copy for
snapshots) of one of the forms::

    ['seq',   stmts, idx]                  # statement list position
    ['for',   stmt, current, stop, step, shadow]   # loop control
    ['while', stmt]

Running proceeds until a ``wait`` statement is reached, which produces
the kernel-level :class:`~repro.vhdl.process.Wait`; the frame stack
stays put and ``resume`` continues from it.  When the top-level body
ends, the process loops (VHDL processes are infinite loops); a process
with a sensitivity list instead performs the implicit
``wait on <sensitivity>``.

Each statement and expression is dispatched through a table keyed by
its exact node class (``_EXEC``, ``_EVAL``), and each binary operator
through one keyed by the operator (``_BINARY``).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...core.vtime import NS
from ..process import ProcessBody, ProcessLP, Wait
from ..values import SL_0, SL_U, SL_Z, StdLogic, sl, slv, vector_to_int
from . import ast


class VhdlRuntimeError(RuntimeError):
    """A VHDL-level error (failed assertion, bad index, type misuse)."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------
class VType:
    """Resolved object type: scalar logic, vector, integer, boolean..."""

    __slots__ = ("kind", "left", "right", "downto")

    def __init__(self, kind: str, left: int = None, right: int = None,
                 downto: bool = True) -> None:
        self.kind = kind
        self.left = left
        self.right = right
        self.downto = downto

    @property
    def width(self) -> int:
        if self.left is None:
            raise VhdlRuntimeError(f"type {self.kind} has no range")
        return abs(self.left - self.right) + 1

    def position(self, index: int) -> int:
        """Tuple position of VHDL index ``index`` (leftmost = 0)."""
        if self.downto:
            pos = self.left - index
        else:
            pos = index - self.left
        if not 0 <= pos < self.width:
            raise VhdlRuntimeError(
                f"index {index} out of range "
                f"({self.left} {'downto' if self.downto else 'to'} "
                f"{self.right})")
        return pos

    def default(self) -> Any:
        if self.kind == "logic":
            return SL_U
        if self.kind == "vector":
            return (SL_U,) * self.width
        if self.kind == "integer":
            return 0
        if self.kind == "boolean":
            return False
        if self.kind == "time":
            return 0
        raise VhdlRuntimeError(f"no default for type {self.kind}")


_SCALAR_LOGIC = {"std_logic", "std_ulogic", "bit"}
_VECTOR_LOGIC = {"std_logic_vector", "std_ulogic_vector", "bit_vector",
                 "unsigned", "signed"}
_INTEGERS = {"integer", "natural", "positive"}


def resolve_type(mark: ast.TypeMark,
                 const_eval: Callable[[ast.Expr], Any]) -> VType:
    """Resolve a parsed type mark against the constant environment."""
    name = mark.name
    if name in _SCALAR_LOGIC:
        return VType("logic")
    if name in _VECTOR_LOGIC:
        if mark.left is None:
            raise VhdlRuntimeError(f"{name} needs an index range")
        return VType("vector", int(const_eval(mark.left)),
                     int(const_eval(mark.right)), mark.downto)
    if name in _INTEGERS:
        return VType("integer")
    if name == "boolean":
        return VType("boolean")
    if name == "time":
        return VType("time")
    raise VhdlRuntimeError(f"unsupported type {name!r}")


# ---------------------------------------------------------------------------
# Environment shared by one process
# ---------------------------------------------------------------------------
class SignalRef:
    """Binding of a VHDL signal name to its kernel LP.

    ``shared`` is set by the elaborator when the signal has several
    driving processes.  It changes the semantics of *partial*
    assignments (``s(i) <= ...``): a shared signal's driver contributes
    'Z' on the elements it never assigns, so that element-wise drivers
    from different processes resolve independently — emulating the
    LRM's per-element drivers with whole-vector ones.  A single-driver
    signal keeps read-modify-write semantics instead (untouched elements
    retain their current value).
    """

    __slots__ = ("lp_id", "vtype", "shared")

    def __init__(self, lp_id: int, vtype: VType) -> None:
        self.lp_id = lp_id
        self.vtype = vtype
        self.shared = False


class Env:
    """Name environment of a process: signals, constants, types."""

    def __init__(self, signals: Dict[str, SignalRef],
                 constants: Dict[str, Any]) -> None:
        self.signals = signals
        self.constants = constants

    def signal(self, name: str) -> SignalRef:
        try:
            return self.signals[name]
        except KeyError:
            raise VhdlRuntimeError(f"unknown signal {name!r}")


# ---------------------------------------------------------------------------
# The interpreted body
# ---------------------------------------------------------------------------
class InterpretedBody(ProcessBody):
    """Executes a parsed VHDL process with checkpointable state."""

    checkpointable = True

    def __init__(self, process: ast.ProcessStmt, env: Env) -> None:
        self.process = process
        self.env = env
        self.var_types: Dict[str, VType] = {}
        self._init_vars: Dict[str, Any] = {}
        for decl in process.declarations:
            if isinstance(decl, ast.VariableDecl):
                vtype = resolve_type(decl.type_mark, self._const)
                for name in decl.names:
                    self.var_types[name] = vtype
                    self._init_vars[name] = None  # filled at start()
            elif isinstance(decl, ast.ConstantDecl):
                value = None  # evaluated lazily at start()
                for name in decl.names:
                    self._init_vars[name] = None
        # Mutable execution state (all plain data):
        self.vars: Dict[str, Any] = {}
        self.frames: List[list] = []
        #: Committed report/assert messages (part of the state so that
        #: rollbacks rewind them).
        self.reports: List[Tuple[str, str]] = []
        #: Per-signal driving-value cache for element-wise assignment.
        self.driving: Dict[str, Any] = {}

    def _const(self, expr: ast.Expr) -> Any:
        """Evaluate a constant expression (no signals, no variables)."""
        return _eval_const(expr, self.env.constants)

    # ------------------------------------------------------------------
    # Wiring introspection (used by the elaborator)
    # ------------------------------------------------------------------
    def reads(self) -> Sequence[int]:
        names = collect_signal_reads(self.process, self.env)
        return sorted({self.env.signal(n).lp_id for n in names})

    def drives(self) -> Sequence[int]:
        names = collect_signal_drives(self.process.body, self.env)
        return sorted({self.env.signal(n).lp_id for n in names})

    # ------------------------------------------------------------------
    # ProcessBody interface
    # ------------------------------------------------------------------
    def start(self, api: ProcessLP) -> Wait:
        self.vars = {}
        for decl in self.process.declarations:
            if isinstance(decl, ast.VariableDecl):
                vtype = resolve_type(decl.type_mark, self._const)
                for name in decl.names:
                    if decl.initial is not None:
                        self.vars[name] = self._coerce(
                            self._eval(decl.initial, api, vtype), vtype)
                    else:
                        self.vars[name] = vtype.default()
            elif isinstance(decl, ast.ConstantDecl):
                vtype = resolve_type(decl.type_mark, self._const)
                for name in decl.names:
                    self.vars[name] = self._coerce(
                        self._eval(decl.value, api, vtype), vtype)
        for name, ref in self.env.signals.items():
            self.driving.setdefault(name, None)
        self.frames = [["seq", self.process.body, 0]]
        return self._run(api)

    def resume(self, api: ProcessLP) -> Wait:
        if not self.frames:
            self.frames = [["seq", self.process.body, 0]]
        return self._run(api)

    def snapshot(self) -> Any:
        return (dict(self.vars), [list(f) for f in self.frames],
                list(self.reports), dict(self.driving))

    def restore(self, snap: Any) -> None:
        if snap is None:
            return
        vars_, frames, reports, driving = snap
        self.vars = dict(vars_)
        self.frames = [list(f) for f in frames]
        self.reports = list(reports)
        self.driving = dict(driving)

    # Content hashes digest this state, and the pinned ones include an
    # ``_api`` entry of None: it lives in the state, not on the body,
    # so no design's hash moves.
    def __getstate__(self) -> Dict[str, Any]:
        return dict(self.__dict__, _api=None)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state.pop("_api", None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # The statement machine
    # ------------------------------------------------------------------
    def _run(self, api: ProcessLP) -> Wait:
        frames = self.frames
        steps = 0
        while True:
            steps += 1
            if steps > 1_000_000:
                raise VhdlRuntimeError(
                    f"process {self.process.label or '?'}: more than 1e6 "
                    f"steps without a wait (infinite zero-time loop?)")
            if not frames:
                # End of the process body: loop, or implicit wait.
                if self.process.sensitivity:
                    frames.append(["seq", self.process.body, 0])
                    return self._sensitivity_wait()
                frames.append(["seq", self.process.body, 0])
                continue
            top = frames[-1]
            kind = top[0]
            if kind == "seq":
                _tag, stmts, idx = top
                if idx >= len(stmts):
                    frames.pop()
                    self._loop_epilogue(frames, api)
                    continue
                top[2] = idx + 1
                wait = self._exec(stmts[idx], api)
                if wait is not None:
                    return wait
                continue
            raise VhdlRuntimeError(f"corrupt frame {top!r}")

    def _loop_epilogue(self, frames: List[list], api: ProcessLP) -> None:
        """After a body sequence finishes, advance the enclosing loop."""
        if not frames:
            return
        top = frames[-1]
        if top[0] == "for":
            _tag, stmt, current, stop, step, shadow = top
            nxt = current + step
            if (step > 0 and nxt > stop) or (step < 0 and nxt < stop):
                frames.pop()
                self._unshadow(stmt.var, shadow)
            else:
                top[2] = nxt
                self.vars[stmt.var] = nxt
                frames.append(["seq", stmt.body, 0])
        elif top[0] == "while":
            stmt = top[1]
            if _truthy(self._eval(stmt.condition, api)):
                frames.append(["seq", stmt.body, 0])
            else:
                frames.pop()

    def _unshadow(self, var: str, shadow: Tuple[bool, Any]) -> None:
        had, old = shadow
        if had:
            self.vars[var] = old
        else:
            self.vars.pop(var, None)

    def _sensitivity_wait(self) -> Wait:
        # Desugared concurrent assignments may list constants among the
        # names they "read"; only actual signals can wake a process.
        ids = frozenset(self.env.signals[n].lp_id
                        for n in self.process.sensitivity
                        if n in self.env.signals)
        return Wait(on=ids)

    # ------------------------------------------------------------------
    def _exec(self, stmt: ast.Stmt, api: ProcessLP) -> Optional[Wait]:
        try:
            handler = _EXEC[type(stmt)]
        except KeyError:
            raise VhdlRuntimeError(
                f"unsupported statement {type(stmt)}") from None
        return handler(self, stmt, api)

    def _do_if(self, stmt: ast.IfStmt, api: ProcessLP) -> None:
        for condition, body in stmt.arms:
            if _truthy(self._eval(condition, api)):
                self.frames.append(["seq", body, 0])
                return
        if stmt.orelse:
            self.frames.append(["seq", stmt.orelse, 0])

    def _do_case(self, stmt: ast.CaseStmt, api: ProcessLP) -> None:
        selector = self._eval(stmt.selector, api)
        for choices, body in stmt.arms:
            if not choices:  # when others
                self.frames.append(["seq", body, 0])
                return
            for choice in choices:
                if _values_equal(selector, self._eval(choice, api)):
                    self.frames.append(["seq", body, 0])
                    return

    def _do_for(self, stmt: ast.ForStmt, api: ProcessLP) -> None:
        low = int(self._eval(stmt.low, api))
        high = int(self._eval(stmt.high, api))
        step = -1 if stmt.downto else 1
        if (step > 0 and low > high) or (step < 0 and low < high):
            return  # empty range
        shadow = (stmt.var in self.vars, self.vars.get(stmt.var))
        self.vars[stmt.var] = low
        self.frames.append(["for", stmt, low, high, step, shadow])
        self.frames.append(["seq", stmt.body, 0])

    def _do_while(self, stmt: ast.WhileStmt, api: ProcessLP) -> None:
        self.frames.append(["while", stmt])
        if _truthy(self._eval(stmt.condition, api)):
            self.frames.append(["seq", stmt.body, 0])
        else:
            self.frames.pop()

    def _do_null(self, stmt: ast.NullStmt, api: ProcessLP) -> None:
        return None

    def _do_report(self, stmt: ast.ReportStmt, api: ProcessLP) -> None:
        message = self._eval(stmt.message, api)
        self.reports.append((stmt.severity or "note", str(message)))

    def _do_assert(self, stmt: ast.AssertStmt, api: ProcessLP) -> None:
        if not _truthy(self._eval(stmt.condition, api)):
            message = ("assertion failed" if stmt.message is None
                       else str(self._eval(stmt.message, api)))
            severity = stmt.severity or "error"
            self.reports.append((severity, message))
            if severity in ("failure", "error"):
                raise VhdlRuntimeError(
                    f"assertion ({severity}): {message}")

    def _do_exit(self, stmt: ast.ExitStmt, api: ProcessLP) -> None:
        if stmt.condition is None or \
                _truthy(self._eval(stmt.condition, api)):
            self._unwind_loop(api, drop_loop=True)

    def _do_next(self, stmt: ast.NextStmt, api: ProcessLP) -> None:
        if stmt.condition is None or \
                _truthy(self._eval(stmt.condition, api)):
            self._unwind_loop(api, drop_loop=False)

    def _unwind_loop(self, api: ProcessLP, drop_loop: bool) -> None:
        frames = self.frames
        while frames and frames[-1][0] == "seq":
            frames.pop()
        if not frames or frames[-1][0] not in ("for", "while"):
            raise VhdlRuntimeError("exit/next outside of a loop")
        if drop_loop:
            top = frames.pop()
            if top[0] == "for":
                self._unshadow(top[1].var, top[5])
        else:
            self._loop_epilogue(frames, api)

    # ------------------------------------------------------------------
    def _do_wait(self, stmt: ast.WaitStmt, api: ProcessLP) -> Wait:
        on = set()
        for name in stmt.on:
            on.add(self.env.signal(name).lp_id)
        until = None
        if stmt.until is not None:
            expr = stmt.until
            if not stmt.on:
                # Implicit sensitivity: every signal in the condition.
                for name in _expr_signal_names(expr, self.env):
                    on.add(self.env.signal(name).lp_id)
            body = self

            def until(api_, _expr=expr, _body=body):
                return _truthy(_body._eval(_expr, api_))

        for_fs = None
        if stmt.for_time is not None:
            for_fs = int(self._eval(stmt.for_time, api))
        return Wait(on=frozenset(on), until=until, for_fs=for_fs)

    def _do_signal_assign(self, stmt: ast.SignalAssign,
                          api: ProcessLP) -> None:
        name, index, slice_ = _target_parts(stmt.target)
        ref = self.env.signal(name)
        reject = None if stmt.reject is None \
            else int(self._eval(stmt.reject, api))
        waveform = []
        for value_expr, delay_expr in stmt.waveform:
            delay = 0 if delay_expr is None \
                else int(self._eval(delay_expr, api))
            value = self._eval(value_expr, api, expected=ref.vtype
                               if index is None and slice_ is None
                               else None)
            waveform.append((value, delay))
        if index is None and slice_ is None:
            coerced = [(self._coerce(v, ref.vtype), d)
                       for v, d in waveform]
            self.driving[name] = coerced[0][0]
            api.assign_waveform(ref.lp_id, coerced, stmt.transport, reject)
            return
        # Element / slice assignment through the per-process driving
        # cache.  For shared (multi-driver) signals the cache starts
        # all-'Z': untouched elements contribute nothing and the IEEE
        # resolution combines the per-process element drivers.  For
        # single-driver signals it starts from the current effective
        # value (plain read-modify-write).
        base = self.driving.get(name)
        if base is None:
            if ref.shared:
                base = (SL_Z,) * ref.vtype.width
            else:
                base = api.read(ref.lp_id)
        base = list(base)
        out_waveform = []
        for value, delay in waveform:
            if index is not None:
                pos = ref.vtype.position(int(self._eval(index, api)))
                base[pos] = sl(value)
            else:
                left, right = slice_
                li = int(self._eval(left, api))
                ri = int(self._eval(right, api))
                positions = _slice_positions(ref.vtype, li, ri)
                value_vec = _as_vector(value, len(positions))
                for p, bit in zip(positions, value_vec):
                    base[p] = bit
            out_waveform.append((tuple(base), delay))
        self.driving[name] = out_waveform[-1][0]
        api.assign_waveform(ref.lp_id, out_waveform, stmt.transport,
                            reject)

    def _do_var_assign(self, stmt: ast.VarAssign, api: ProcessLP) -> None:
        name, index, slice_ = _target_parts(stmt.target)
        if name not in self.vars:
            raise VhdlRuntimeError(f"unknown variable {name!r}")
        vtype = self.var_types.get(name)
        if index is None and slice_ is None:
            value = self._eval(stmt.value, api, expected=vtype)
            self.vars[name] = self._coerce(value, vtype) if vtype \
                else value
            return
        base = list(self.vars[name])
        if index is not None:
            pos = vtype.position(int(self._eval(index, api)))
            base[pos] = sl(self._eval(stmt.value, api))
        else:
            left, right = slice_
            positions = _slice_positions(vtype,
                                         int(self._eval(left, api)),
                                         int(self._eval(right, api)))
            value_vec = _as_vector(self._eval(stmt.value, api),
                                   len(positions))
            for p, bit in zip(positions, value_vec):
                base[p] = bit
        self.vars[name] = tuple(base)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: ast.Expr, api: ProcessLP,
              expected: Optional[VType] = None) -> Any:
        return evaluate(expr, self, api, expected)

    def _coerce(self, value: Any, vtype: VType) -> Any:
        return coerce_value(value, vtype)


#: One executor per statement node type, keyed by the exact type: it
#: returns the ``Wait`` that suspends the body, or ``None``.
_EXEC: Dict[type, Callable[..., Optional[Wait]]] = {
    ast.SignalAssign: InterpretedBody._do_signal_assign,
    ast.VarAssign: InterpretedBody._do_var_assign,
    ast.IfStmt: InterpretedBody._do_if,
    ast.CaseStmt: InterpretedBody._do_case,
    ast.ForStmt: InterpretedBody._do_for,
    ast.WhileStmt: InterpretedBody._do_while,
    ast.WaitStmt: InterpretedBody._do_wait,
    ast.NullStmt: InterpretedBody._do_null,
    ast.ReportStmt: InterpretedBody._do_report,
    ast.AssertStmt: InterpretedBody._do_assert,
    ast.ExitStmt: InterpretedBody._do_exit,
    ast.NextStmt: InterpretedBody._do_next,
}


# ---------------------------------------------------------------------------
# Shared evaluation helpers (also used for constants at elaboration)
# ---------------------------------------------------------------------------
def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, StdLogic):
        return value.to_bool()
    if isinstance(value, int):
        return value != 0
    raise VhdlRuntimeError(f"value {value!r} is not a condition")


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, tuple) and isinstance(b, str):
        b = slv(b)
    if isinstance(b, tuple) and isinstance(a, str):
        a = slv(a)
    return a == b


def _as_vector(value: Any, width: int) -> Tuple[StdLogic, ...]:
    if isinstance(value, StdLogic):
        if width != 1:
            raise VhdlRuntimeError("scalar assigned to wider slice")
        return (value,)
    if isinstance(value, str):
        value = slv(value)
    if isinstance(value, tuple):
        if len(value) != width:
            raise VhdlRuntimeError(
                f"width mismatch: {len(value)} vs {width}")
        return value
    if isinstance(value, int):
        return slv(value, width=width)
    raise VhdlRuntimeError(f"cannot treat {value!r} as a vector")


def coerce_value(value: Any, vtype: VType) -> Any:
    if vtype.kind == "logic":
        if isinstance(value, str):
            return sl(value)
        if isinstance(value, StdLogic):
            return value
        if isinstance(value, tuple) and len(value) == 1:
            return value[0]
        raise VhdlRuntimeError(f"cannot coerce {value!r} to std_logic")
    if vtype.kind == "vector":
        if isinstance(value, str):
            value = slv(value)
        if isinstance(value, StdLogic):
            value = (value,)
        if isinstance(value, int):
            return slv(value % (1 << vtype.width), width=vtype.width)
        if isinstance(value, tuple):
            if len(value) != vtype.width:
                raise VhdlRuntimeError(
                    f"width mismatch: got {len(value)}, "
                    f"expected {vtype.width}")
            return value
        raise VhdlRuntimeError(f"cannot coerce {value!r} to vector")
    if vtype.kind == "integer":
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, tuple):
            return vector_to_int(value)
        raise VhdlRuntimeError(f"cannot coerce {value!r} to integer")
    if vtype.kind == "boolean":
        return _truthy(value)
    if vtype.kind == "time":
        return int(value)
    raise VhdlRuntimeError(f"unknown type kind {vtype.kind}")


def _target_parts(target: ast.Expr):
    """Split an assignment target into (name, index, slice)."""
    if isinstance(target, ast.Name):
        return target.ident, None, None
    if isinstance(target, ast.Indexed) and \
            isinstance(target.base, ast.Name):
        return target.base.ident, target.index, None
    if isinstance(target, ast.Sliced) and \
            isinstance(target.base, ast.Name):
        return target.base.ident, None, (target.left, target.right)
    raise VhdlRuntimeError(f"unsupported assignment target {target}")


def _slice_positions(vtype: VType, left: int, right: int) -> List[int]:
    positions = []
    step = -1 if vtype.downto else 1
    index = left
    while True:
        positions.append(vtype.position(index))
        if index == right:
            break
        index += step
    return positions


class _ConstContext:
    """A minimal evaluation context holding only constants."""

    def __init__(self, constants: Dict[str, Any]) -> None:
        self.vars = constants
        self.var_types: Dict[str, VType] = {}
        self.env = Env({}, constants)


def _eval_const(expr: ast.Expr, constants: Dict[str, Any],
                expected: Optional[VType] = None) -> Any:
    """Constant folding for generics/ranges at elaboration time."""
    return evaluate(expr, _ConstContext(constants), None, expected)


def _expr_signal_names(expr: ast.Expr, env: Env) -> List[str]:
    names: List[str] = []
    _walk_expr_names(expr, env, names)
    return names


# The walkers are module-level: a nested recursive function reaches
# itself through its own closure cell, a cycle that would hold the
# process's ``Env`` until the collector runs.
def _walk_expr_names(node, env: Env, names: List[str]) -> None:
    if isinstance(node, ast.Name):
        if node.ident in env.signals:
            names.append(node.ident)
    elif isinstance(node, ast.Indexed):
        _walk_expr_names(node.base, env, names)
        _walk_expr_names(node.index, env, names)
    elif isinstance(node, (ast.Sliced, ast.Attribute)):
        _walk_expr_names(node.base, env, names)
    elif isinstance(node, ast.Unary):
        _walk_expr_names(node.operand, env, names)
    elif isinstance(node, ast.Binary):
        _walk_expr_names(node.left, env, names)
        _walk_expr_names(node.right, env, names)
    elif isinstance(node, ast.Call):
        for arg in node.args:
            _walk_expr_names(arg, env, names)
    elif isinstance(node, ast.Aggregate):
        for item in node.positional:
            _walk_expr_names(item, env, names)
        if node.others is not None:
            _walk_expr_names(node.others, env, names)


def collect_signal_reads(process: ast.ProcessStmt, env: Env) -> List[str]:
    names = set(process.sensitivity)
    _walk_reads(process.body, env, names)
    return sorted(n for n in names if n in env.signals)


def _walk_reads(stmts, env: Env, names: set) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.SignalAssign):
            for value, delay in stmt.waveform:
                names.update(_expr_signal_names(value, env))
                if delay is not None:
                    names.update(_expr_signal_names(delay, env))
            # An element-assignment target is also read (rmw).
            if not isinstance(stmt.target, ast.Name):
                names.update(_expr_signal_names(stmt.target, env))
        elif isinstance(stmt, ast.VarAssign):
            names.update(_expr_signal_names(stmt.value, env))
            if not isinstance(stmt.target, ast.Name):
                names.update(_expr_signal_names(stmt.target, env))
        elif isinstance(stmt, ast.IfStmt):
            for condition, body in stmt.arms:
                names.update(_expr_signal_names(condition, env))
                _walk_reads(body, env, names)
            _walk_reads(stmt.orelse, env, names)
        elif isinstance(stmt, ast.CaseStmt):
            names.update(_expr_signal_names(stmt.selector, env))
            for choices, body in stmt.arms:
                _walk_reads(body, env, names)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
            if isinstance(stmt, ast.WhileStmt):
                names.update(_expr_signal_names(stmt.condition, env))
            _walk_reads(stmt.body, env, names)
        elif isinstance(stmt, ast.WaitStmt):
            names.update(stmt.on)
            if stmt.until is not None:
                names.update(_expr_signal_names(stmt.until, env))
        elif isinstance(stmt, (ast.ReportStmt,)):
            names.update(_expr_signal_names(stmt.message, env))
        elif isinstance(stmt, ast.AssertStmt):
            names.update(_expr_signal_names(stmt.condition, env))


def collect_signal_drives(stmts, env: Env) -> List[str]:
    names = set()
    _walk_drives(stmts, names)
    return sorted(n for n in names if n in env.signals)


def _walk_drives(body, names: set) -> None:
    for stmt in body:
        if isinstance(stmt, ast.SignalAssign):
            name, _i, _s = _target_parts(stmt.target)
            names.add(name)
        elif isinstance(stmt, ast.IfStmt):
            for _c, arm_body in stmt.arms:
                _walk_drives(arm_body, names)
            _walk_drives(stmt.orelse, names)
        elif isinstance(stmt, ast.CaseStmt):
            for _choices, arm_body in stmt.arms:
                _walk_drives(arm_body, names)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
            _walk_drives(stmt.body, names)


# ---------------------------------------------------------------------------
# The expression evaluator (shared by body and constant contexts)
# ---------------------------------------------------------------------------
def evaluate(expr: ast.Expr, ctx, api: Optional[ProcessLP],
             expected: Optional[VType]) -> Any:
    try:
        handler = _EVAL[type(expr)]
    except KeyError:
        raise VhdlRuntimeError(f"cannot evaluate {expr!r}") from None
    return handler(expr, ctx, api, expected)


def _eval_char(expr: ast.CharLiteral, ctx, api, expected) -> Any:
    return sl(expr.value)


def _eval_string(expr: ast.StringLiteral, ctx, api, expected) -> Any:
    # Bit-string literal when every character is a std_logic value;
    # otherwise a plain string (report messages etc.).
    if expr.value and all(c.upper() in "UX01ZWLH-" for c in expr.value):
        return slv(expr.value)
    return expr.value


def _eval_int(expr: ast.IntLiteral, ctx, api, expected) -> Any:
    return expr.value


def _eval_time(expr: ast.TimeLiteral, ctx, api, expected) -> Any:
    return expr.femtoseconds


def _eval_name_node(expr: ast.Name, ctx, api, expected) -> Any:
    return _eval_name(expr.ident, ctx, api)


def _eval_aggregate(expr: ast.Aggregate, ctx, api, expected) -> Any:
    if expected is None or expected.kind != "vector":
        if expr.others is not None and not expr.positional:
            raise VhdlRuntimeError(
                "(others => ...) needs a known target width")
        return tuple(sl(evaluate(e, ctx, api, None))
                     for e in expr.positional)
    width = expected.width
    bits = [sl(evaluate(e, ctx, api, None)) for e in expr.positional]
    if expr.others is not None:
        fill = sl(evaluate(expr.others, ctx, api, None))
        bits = bits + [fill] * (width - len(bits))
    if len(bits) != width:
        raise VhdlRuntimeError(
            f"aggregate width {len(bits)} vs target {width}")
    return tuple(bits)


def _eval_sliced(expr: ast.Sliced, ctx, api, expected) -> Any:
    base, vtype = _eval_vector_base(expr.base, ctx, api)
    positions = _slice_positions(
        vtype, int(evaluate(expr.left, ctx, api, None)),
        int(evaluate(expr.right, ctx, api, None)))
    return tuple(base[p] for p in positions)


def _eval_unary_node(expr: ast.Unary, ctx, api, expected) -> Any:
    return _eval_unary(expr.op, evaluate(expr.operand, ctx, api, expected))


#: Operators whose left operand receives the ``expected`` type hint.
_HINTED_OPS = frozenset(("and", "or", "xor", "nand", "nor", "xnor", "&"))


def _eval_binary_node(expr: ast.Binary, ctx, api, expected) -> Any:
    op = expr.op
    left = evaluate(expr.left, ctx, api,
                    expected if op in _HINTED_OPS else None)
    right = evaluate(expr.right, ctx, api, None)
    return _eval_binary(op, left, right)


def _eval_name(name: str, ctx, api) -> Any:
    if name in ctx.vars:
        return ctx.vars[name]
    env = ctx.env
    if name in env.constants:
        return env.constants[name]
    if name in env.signals:
        if api is None:
            raise VhdlRuntimeError(
                f"signal {name!r} in a constant context")
        return api.read(env.signals[name].lp_id)
    if name == "true":
        return True
    if name == "false":
        return False
    if len(name) == 1 and name.upper() in "UX01ZWLH-":
        return sl(name)
    raise VhdlRuntimeError(f"unknown name {name!r}")


def _eval_vector_base(expr: ast.Expr, ctx, api):
    if isinstance(expr, ast.Name):
        name = expr.ident
        if name in ctx.vars:
            vtype = ctx.var_types.get(name)
            if vtype is None:
                value = ctx.vars[name]
                vtype = VType("vector", len(value) - 1, 0, True)
            return ctx.vars[name], vtype
        if name in ctx.env.signals:
            ref = ctx.env.signals[name]
            return api.read(ref.lp_id), ref.vtype
    value = evaluate(expr, ctx, api, None)
    return value, VType("vector", len(value) - 1, 0, True)


def _eval_indexed(expr: ast.Indexed, ctx, api, expected) -> Any:
    if isinstance(expr.base, ast.Name):
        name = expr.base.ident
        if name in _BUILTINS:
            return _apply_builtin(name, [evaluate(expr.index, ctx, api,
                                                  None)], ctx, api,
                                  expr.index)
        if name in ctx.vars or name in ctx.env.signals:
            base, vtype = _eval_vector_base(expr.base, ctx, api)
            index = int(evaluate(expr.index, ctx, api, None))
            return base[vtype.position(index)]
    base, vtype = _eval_vector_base(expr.base, ctx, api)
    index = int(evaluate(expr.index, ctx, api, None))
    return base[vtype.position(index)]


def _eval_attribute(expr: ast.Attribute, ctx, api, expected) -> Any:
    if not isinstance(expr.base, ast.Name):
        raise VhdlRuntimeError("attributes only on simple names")
    name = expr.base.ident
    attr = expr.attr
    if attr == "event":
        ref = ctx.env.signal(name)
        return api.event_on(ref.lp_id)
    if attr == "length":
        base, vtype = _eval_vector_base(expr.base, ctx, api)
        return len(base)
    raise VhdlRuntimeError(f"unsupported attribute '{attr}")


def _eval_unary(op: str, value: Any) -> Any:
    if op == "not":
        if isinstance(value, bool):
            return not value
        if isinstance(value, StdLogic):
            return ~value
        if isinstance(value, tuple):
            return tuple(~b for b in value)
    if op == "-":
        return -int(value)
    if op == "abs":
        return abs(int(value))
    raise VhdlRuntimeError(f"bad unary {op} on {value!r}")


#: The nine std_logic values in code order.
_NINE = tuple(StdLogic(code) for code in range(9))

#: The six logic operators: (on two booleans, on two std_logic values).
_LOGIC = {"and": (lambda a, b: a and b, operator.and_),
          "or": (lambda a, b: a or b, operator.or_),
          "xor": (operator.ne, operator.xor),
          "nand": (lambda a, b: not (a and b), lambda a, b: ~(a & b)),
          "nor": (lambda a, b: not (a or b), lambda a, b: ~(a | b)),
          "xnor": (operator.eq, lambda a, b: ~(a ^ b))}


def _logic_operator(op: str, on_bools: Callable,
                    on_logic: Callable) -> Callable:
    """``left op right`` for a logic operator: booleans when either side
    is one, else std_logic or equal-width vectors, through a table of
    ``on_logic`` over every pair of values."""
    table = tuple(tuple(on_logic(a, b) for b in _NINE) for a in _NINE)

    def apply(left: Any, right: Any) -> Any:
        if isinstance(left, bool) or isinstance(right, bool):
            return on_bools(_truthy(left), _truthy(right))
        if isinstance(left, StdLogic) and isinstance(right, StdLogic):
            return table[left.code][right.code]
        if isinstance(left, tuple) and isinstance(right, tuple):
            if len(left) != len(right):
                raise VhdlRuntimeError("vector width mismatch")
            return tuple(table[a.code][b.code] for a, b in zip(left, right))
        raise VhdlRuntimeError(f"bad operands for {op}")
    return apply


def _concatenate(left: Any, right: Any) -> Any:
    lvec = left if isinstance(left, tuple) else (sl(left),)
    rvec = right if isinstance(right, tuple) else (sl(right),)
    return lvec + rvec


def _not_equal(left: Any, right: Any) -> bool:
    return not _values_equal(left, right)


def _ordering(compare: Callable) -> Callable:
    def apply(left: Any, right: Any) -> bool:
        li = left if isinstance(left, int) else vector_to_int(left)
        ri = right if isinstance(right, int) else vector_to_int(right)
        return compare(li, ri)
    return apply


def _rem_int(li: int, ri: int) -> int:
    """VHDL ``rem``: truncates toward zero (unlike ``mod``)."""
    value = abs(li) % abs(ri)
    return -value if li < 0 else value


#: The relational and arithmetic operators on two integers.
_INT_ORDERINGS = {"<": operator.lt, ">": operator.gt,
                  "<=": operator.le, ">=": operator.ge}
_INT_ARITHMETIC = {"+": operator.add, "-": operator.sub,
                   "*": operator.mul, "/": operator.floordiv,
                   "mod": operator.mod, "rem": _rem_int,
                   "**": operator.pow}


def _arithmetic(compute: Callable) -> Callable:
    """Integer arithmetic; an unsigned-vector operand wraps the result
    to its width (the common numeric_std counter idiom)."""
    def apply(left: Any, right: Any) -> Any:
        if type(left) is int and type(right) is int:
            return compute(left, right)
        width = None
        if isinstance(left, tuple):
            width = len(left)
        elif isinstance(right, tuple):
            width = len(right)
        li = left if isinstance(left, int) else vector_to_int(left)
        ri = right if isinstance(right, int) else vector_to_int(right)
        value = compute(li, ri)
        if width is not None:
            return slv(value % (1 << width), width=width)
        return value
    return apply


def _shift_left(left: Any, right: Any) -> Any:
    vec = left if isinstance(left, tuple) else (sl(left),)
    amount = int(right)
    return vec[amount:] + (SL_0,) * min(amount, len(vec))


def _shift_right(left: Any, right: Any) -> Any:
    vec = left if isinstance(left, tuple) else (sl(left),)
    amount = int(right)
    return (SL_0,) * min(amount, len(vec)) + vec[:len(vec) - amount]


#: ``left op right`` on evaluated operands, by operator.
_BINARY: Dict[str, Callable[[Any, Any], Any]] = {
    **{op: _logic_operator(op, *ways) for op, ways in _LOGIC.items()},
    "&": _concatenate,
    "=": _values_equal,
    "/=": _not_equal,
    **{op: _ordering(compare) for op, compare in _INT_ORDERINGS.items()},
    **{op: _arithmetic(compute) for op, compute in _INT_ARITHMETIC.items()},
    "sll": _shift_left,
    "srl": _shift_right,
}


def _eval_binary(op: str, left: Any, right: Any) -> Any:
    try:
        apply = _BINARY[op]
    except KeyError:
        raise VhdlRuntimeError(f"unsupported operator {op}") from None
    return apply(left, right)


_BUILTINS = {"rising_edge", "falling_edge", "to_integer", "to_unsigned",
             "to_signed", "std_logic_vector", "unsigned", "signed",
             "resize", "to_x01"}


def _eval_call(expr: ast.Call, ctx, api, expected) -> Any:
    args = [evaluate(a, ctx, api, None) for a in expr.args]
    return _apply_builtin(expr.func, args, ctx, api,
                          expr.args[0] if expr.args else None)


def _apply_builtin(func: str, args: List[Any], ctx, api,
                   first_arg_expr) -> Any:
    if func in ("rising_edge", "falling_edge"):
        if not isinstance(first_arg_expr, ast.Name):
            raise VhdlRuntimeError(f"{func} needs a signal name")
        ref = ctx.env.signal(first_arg_expr.ident)
        if not api.event_on(ref.lp_id):
            return False
        value = args[0]
        try:
            level = value.to_bool()
        except (AttributeError, ValueError):
            return False
        return level if func == "rising_edge" else not level
    if func == "to_integer":
        return vector_to_int(args[0])
    if func in ("to_unsigned", "to_signed"):
        value, width = int(args[0]), int(args[1])
        return slv(value % (1 << width), width=width)
    if func in ("std_logic_vector", "unsigned", "signed", "to_x01"):
        value = args[0]
        if func == "to_x01" and isinstance(value, StdLogic):
            return value.to_x01()
        return value
    if func == "resize":
        vec, width = args[0], int(args[1])
        if len(vec) >= width:
            return vec[len(vec) - width:]
        return (SL_0,) * (width - len(vec)) + tuple(vec)
    raise VhdlRuntimeError(f"unknown function {func!r}")


#: One evaluator per expression node type, keyed by the exact type.
_EVAL: Dict[type, Callable[..., Any]] = {
    ast.CharLiteral: _eval_char,
    ast.StringLiteral: _eval_string,
    ast.IntLiteral: _eval_int,
    ast.TimeLiteral: _eval_time,
    ast.Name: _eval_name_node,
    ast.Aggregate: _eval_aggregate,
    ast.Indexed: _eval_indexed,
    ast.Sliced: _eval_sliced,
    ast.Attribute: _eval_attribute,
    ast.Unary: _eval_unary_node,
    ast.Binary: _eval_binary_node,
    ast.Call: _eval_call,
}
