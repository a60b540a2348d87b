"""Compiled VHDL process bodies (ROADMAP item 3).

The tree-walking interpreter in :mod:`repro.vhdl.frontend.interp`
re-dispatches on AST node types for every statement and every
sub-expression of every event.  This module lowers each elaborated
process body ONCE into a flat program of specialized Python closures:

* every sequential statement becomes one (or a few) *ops* — closures
  ``op(api) -> next_pc | Wait`` stored in a flat list; control flow
  (if/case/loops/exit/next) is compiled to static jumps between op
  indices, patched via one-element cells at emission time;
* every signal read/write is resolved to its LP id at compile time, and
  every variable to a slot in a flat register file (``regs`` list), so
  the hot path does no dict lookups by name;
* wait statements become ops that record their resume point in an
  explicit, picklable :class:`Frame` (program counter + live loop
  records) before returning the kernel-level
  :class:`~repro.vhdl.process.Wait` — so Time-Warp rollback and
  procs-backend checkpointing keep working unchanged;
* constant sub-expressions are folded at compile time — but only by
  *running the compiled closure once with no API*: if that evaluation
  raises, the expression stays a runtime closure, so error semantics
  (which error, and when it fires) are bit-identical to the
  interpreter.

Semantic fidelity is the contract: the compiler mirrors the
interpreter's name-resolution order, evaluation order (including which
sub-expression raises first) and coercion rules exactly, and the
differential test matrix (``tests/test_compile_differential.py``)
holds it to bit-identical committed results across all circuits,
backends and protocols.

Compilation is *lazy*: a :class:`CompiledBody` pickles as its AST,
environment and plain-data state (the op closures are dropped) and
recompiles transparently on first use after unpickling.  Wait-until
predicates are :class:`_UntilThunk` objects — picklable references
``(body, index)`` into the body's compiled predicate table — instead
of the interpreter's nested (unpicklable) closures.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .process import ProcessBody, ProcessLP, Wait
from .values import SL_Z, sl, slv
from .frontend import ast
from .frontend.interp import (
    _BUILTINS, _HINTED_OPS, _INT_ARITHMETIC, _INT_ORDERINGS, Env,
    InterpretedBody, VhdlRuntimeError, VType,
    _apply_builtin, _as_vector, _eval_binary, _eval_const, _eval_unary,
    _expr_signal_names, _slice_positions, _target_parts, _truthy,
    _values_equal, coerce_value, collect_signal_drives,
    collect_signal_reads, resolve_type,
)

__all__ = ["CompiledBody", "Frame", "lower_design"]

#: Sentinel: "this sub-expression is not a compile-time constant".
_NOT_CONST = object()

#: Monomorphic fast paths for ``int op int``, taken only when both
#: operands are exactly ``int`` (``bool`` falls back — the interpreter
#: treats it as a logic operand first).  Each entry computes exactly
#: what ``_eval_binary`` computes for two plain integers, including the
#: same ``ZeroDivisionError`` on a zero divisor.
_INT_BINOPS = {**_INT_ARITHMETIC, "=": operator.eq, "/=": operator.ne,
               **_INT_ORDERINGS}


class Frame:
    """The picklable resume point of a compiled process body.

    ``pc`` is the index of the op to run next; ``loops`` the stack of
    live for-loop records ``[current, stop]`` (innermost last).  Plain
    integers all the way down, so snapshots are cheap tuples and the
    frame round-trips through pickle bit-identically — the property
    Time Warp and procs-backend checkpointing rely on.
    """

    __slots__ = ("pc", "loops")

    def __init__(self) -> None:
        self.pc = 0
        self.loops: List[list] = []

    def snapshot(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        return (self.pc, tuple(tuple(rec) for rec in self.loops))

    def restore(self, snap) -> None:
        pc, loops = snap
        self.pc = pc
        self.loops[:] = [list(rec) for rec in loops]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Frame) and self.pc == other.pc
                and self.loops == other.loops)

    def __repr__(self) -> str:
        return f"Frame(pc={self.pc}, loops={self.loops})"

    def __getstate__(self):
        return self.snapshot()

    def __setstate__(self, state) -> None:
        self.loops = []
        self.restore(state)


class _UntilThunk:
    """A picklable ``wait until`` predicate.

    The interpreter builds a fresh nested closure per wait execution,
    which cannot be pickled; the compiled body instead registers each
    until-expression in a table and hands the kernel this thunk.  After
    unpickling, the first call transparently recompiles the body's
    program and re-resolves the table entry (same AST, same order, so
    indices are stable).
    """

    __slots__ = ("body", "index")

    def __init__(self, body: "CompiledBody", index: int) -> None:
        self.body = body
        self.index = index

    def __call__(self, api: ProcessLP) -> bool:
        return self.body._until(self.index, api)

    def __getstate__(self):
        return (self.body, self.index)

    def __setstate__(self, state) -> None:
        self.body, self.index = state


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------
class _Compiler:
    """Lowers one process AST into a flat op list for ``body``.

    Ops capture the body's *identity-stable* containers (``regs``,
    ``frame.loops``, ``reports``, ``driving``) directly, so restores
    that mutate those containers in place are visible without
    recompiling.
    """

    def __init__(self, body: "CompiledBody") -> None:
        self.body = body
        self.process = body.process
        self.env = body.env
        self.regs = body.regs
        self.frame = body.frame
        self.loops = body.frame.loops
        self.reports = body.reports
        self.driving = body.driving
        self.ops: List[Callable] = []
        #: Static scope: variable name -> register slot.  Tracks the
        #: interpreter's runtime ``name in self.vars`` exactly, because
        #: loop variables enter/leave ``vars`` lexically.
        self.scope: Dict[str, int] = {}
        #: Declared-variable types by NAME (the interpreter's
        #: ``var_types`` is name-keyed and ignores loop shadowing).
        self.vtypes: Dict[str, VType] = {}
        self.nslots = 0
        self.untils: List[Callable] = []
        #: Compile-time loop nesting: (kind, end_cell, continue_cell).
        self.loop_stack: List[Tuple[str, list, list]] = []

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def compile(self):
        plan = tuple(self._declarations())
        regs = self.regs
        driving = self.driving
        sig_names = tuple(self.env.signals)

        def prologue(api, _plan=plan, _regs=regs, _driving=driving,
                     _names=sig_names):
            for slot, init in _plan:
                _regs[slot] = init(api)
            for name in _names:
                _driving.setdefault(name, None)
            return 1

        self._emit(prologue)
        self._stmts(self.process.body)
        frame = self.frame
        if self.process.sensitivity:
            # Implicit ``wait on <sensitivity>``; desugared concurrent
            # assignments may list constants, only signals can wake.
            ids = frozenset(self.env.signals[n].lp_id
                            for n in self.process.sensitivity
                            if n in self.env.signals)
            wait = Wait(on=ids)

            def end(api, _f=frame, _w=wait):
                _f.pc = 1
                return _w
        else:
            def end(api):
                return 1  # VHDL processes loop forever

        self._emit(end)
        return self.ops, self.nslots, self.untils

    def _declarations(self):
        """Compile the declarative part into (slot, init_fn) pairs.

        Each initializer is compiled against the scope-so-far, matching
        the interpreter's in-order evaluation where each name's initial
        expression sees only earlier names.
        """
        plan = []
        for decl in self.process.declarations:
            if isinstance(decl, ast.VariableDecl):
                vtype = resolve_type(decl.type_mark, self._const)
                for name in decl.names:
                    if decl.initial is not None:
                        vfn = self._expr(decl.initial, vtype)[0]

                        def init(api, _f=vfn, _vt=vtype):
                            return coerce_value(_f(api), _vt)
                    else:
                        default = vtype.default()

                        def init(api, _d=default):
                            return _d
                    slot = self._new_slot()
                    self.scope[name] = slot
                    self.vtypes[name] = vtype
                    plan.append((slot, init))
            elif isinstance(decl, ast.ConstantDecl):
                vtype = resolve_type(decl.type_mark, self._const)
                for name in decl.names:
                    vfn = self._expr(decl.value, vtype)[0]

                    def init(api, _f=vfn, _vt=vtype):
                        return coerce_value(_f(api), _vt)
                    slot = self._new_slot()
                    self.scope[name] = slot
                    plan.append((slot, init))
        return plan

    def _const(self, expr: ast.Expr) -> Any:
        return _eval_const(expr, self.env.constants)

    def _new_slot(self) -> int:
        slot = self.nslots
        self.nslots += 1
        return slot

    def _emit(self, op: Callable) -> None:
        self.ops.append(op)

    def _here(self) -> int:
        return len(self.ops)

    def _jump(self, cell: list) -> None:
        self._emit(lambda api, _c=cell: _c[0])

    def _raise_op(self, message: str) -> None:
        """An op that raises when *executed* — the compiler must not
        report errors the interpreter only hits at execution time."""

        def op(api, _m=message):
            raise VhdlRuntimeError(_m)

        self._emit(op)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _stmts(self, stmts: Sequence[ast.Stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.SignalAssign):
            self._signal_assign(stmt)
        elif isinstance(stmt, ast.VarAssign):
            self._var_assign(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._if(stmt)
        elif isinstance(stmt, ast.CaseStmt):
            self._case(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._for(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._while(stmt)
        elif isinstance(stmt, ast.WaitStmt):
            self._wait(stmt)
        elif isinstance(stmt, ast.NullStmt):
            pass
        elif isinstance(stmt, ast.ReportStmt):
            self._report(stmt)
        elif isinstance(stmt, ast.AssertStmt):
            self._assert(stmt)
        elif isinstance(stmt, ast.ExitStmt):
            self._exit_next(stmt, drop_loop=True)
        elif isinstance(stmt, ast.NextStmt):
            self._exit_next(stmt, drop_loop=False)
        else:
            self._raise_op(f"unsupported statement {type(stmt)}")

    def _signal_assign(self, stmt: ast.SignalAssign) -> None:
        try:
            name, index, slice_ = _target_parts(stmt.target)
        except VhdlRuntimeError as err:
            self._raise_op(str(err))
            return
        if name not in self.env.signals:
            self._raise_op(f"unknown signal {name!r}")
            return
        ref = self.env.signals[name]
        rjfn = (None if stmt.reject is None
                else self._expr(stmt.reject, None)[0])
        full = index is None and slice_ is None
        expected = ref.vtype if full else None
        wf = tuple((self._expr(value, expected)[0],
                    None if delay is None else self._expr(delay, None)[0])
                   for value, delay in stmt.waveform)
        driving = self.driving
        lp_id = ref.lp_id
        transport = stmt.transport
        nxt = self._here() + 1
        simple = rjfn is None and len(wf) == 1 and wf[0][1] is None
        if full:
            vt = ref.vtype
            if simple:
                # The hot shape — one value, no delay, no reject —
                # skips the per-execution waveform list entirely.
                vfn0 = wf[0][0]

                def op(api):
                    value = coerce_value(vfn0(api), vt)
                    driving[name] = value
                    api.assign_waveform(lp_id, [(value, 0)], transport,
                                        None)
                    return nxt

                self._emit(op)
                return

            def op(api):
                reject = None if rjfn is None else int(rjfn(api))
                waveform = []
                for vfn, dfn in wf:
                    delay = 0 if dfn is None else int(dfn(api))
                    waveform.append((vfn(api), delay))
                coerced = [(coerce_value(v, vt), d) for v, d in waveform]
                driving[name] = coerced[0][0]
                api.assign_waveform(lp_id, coerced, transport, reject)
                return nxt

            self._emit(op)
            return
        # Element/slice assignment goes through the per-process driving
        # cache; shared signals contribute 'Z' on untouched elements
        # (see SignalRef).  ``place(api, base, value)`` writes one
        # waveform value into the mutable base — with the target
        # positions resolved at compile time whenever the index/slice
        # bounds are constants (the overwhelmingly common shape).
        if index is not None:
            ifn, ic = self._expr(index, None)
            pos0 = None
            if ic is not _NOT_CONST:
                try:
                    pos0 = ref.vtype.position(int(ic))
                except Exception:
                    pos0 = None  # raise at execution time, like interp
            if pos0 is not None:
                def place(api, base, value, _p=pos0):
                    base[_p] = sl(value)
            else:
                def place(api, base, value):
                    pos = ref.vtype.position(int(ifn(api)))
                    base[pos] = sl(value)
        else:
            lfn, lc = self._expr(slice_[0], None)
            rfn, rc = self._expr(slice_[1], None)
            positions0 = None
            if lc is not _NOT_CONST and rc is not _NOT_CONST:
                try:
                    positions0 = _slice_positions(ref.vtype, int(lc),
                                                  int(rc))
                except Exception:
                    positions0 = None

            if positions0 is not None:
                def place(api, base, value, _ps=positions0):
                    value_vec = _as_vector(value, len(_ps))
                    for p, bit in zip(_ps, value_vec):
                        base[p] = bit
            else:
                def place(api, base, value):
                    positions = _slice_positions(ref.vtype,
                                                 int(lfn(api)),
                                                 int(rfn(api)))
                    value_vec = _as_vector(value, len(positions))
                    for p, bit in zip(positions, value_vec):
                        base[p] = bit

        def read_base(api):
            base = driving.get(name)
            if base is None:
                if ref.shared:
                    base = (SL_Z,) * ref.vtype.width
                else:
                    base = api.read(lp_id)
            return list(base)

        if simple:
            vfn0 = wf[0][0]

            def op(api):
                base = read_base(api)
                place(api, base, vfn0(api))
                out = tuple(base)
                driving[name] = out
                api.assign_waveform(lp_id, [(out, 0)], transport, None)
                return nxt

            self._emit(op)
            return

        def op(api):
            reject = None if rjfn is None else int(rjfn(api))
            waveform = []
            for vfn, dfn in wf:
                delay = 0 if dfn is None else int(dfn(api))
                waveform.append((vfn(api), delay))
            base = read_base(api)
            out_waveform = []
            for value, delay in waveform:
                place(api, base, value)
                out_waveform.append((tuple(base), delay))
            driving[name] = out_waveform[-1][0]
            api.assign_waveform(lp_id, out_waveform, transport, reject)
            return nxt

        self._emit(op)

    def _var_assign(self, stmt: ast.VarAssign) -> None:
        try:
            name, index, slice_ = _target_parts(stmt.target)
        except VhdlRuntimeError as err:
            self._raise_op(str(err))
            return
        if name not in self.scope:
            self._raise_op(f"unknown variable {name!r}")
            return
        slot = self.scope[name]
        vtype = self.vtypes.get(name)
        regs = self.regs
        nxt = self._here() + 1
        if index is None and slice_ is None:
            vfn = self._expr(stmt.value, vtype)[0]
            if vtype is not None:
                def op(api):
                    regs[slot] = coerce_value(vfn(api), vtype)
                    return nxt
            else:
                def op(api):
                    regs[slot] = vfn(api)
                    return nxt
            self._emit(op)
            return
        vfn = self._expr(stmt.value, None)[0]
        if index is not None:
            ifn, ic = self._expr(index, None)
            pos0 = None
            if ic is not _NOT_CONST and vtype is not None:
                try:
                    pos0 = vtype.position(int(ic))
                except Exception:
                    pos0 = None
            if pos0 is not None:
                def op(api, _p=pos0):
                    base = list(regs[slot])
                    base[_p] = sl(vfn(api))
                    regs[slot] = tuple(base)
                    return nxt
            else:
                def op(api):
                    base = list(regs[slot])
                    # vtype may be None (e.g. a loop variable): the
                    # attribute lookup raises before the index
                    # expression is evaluated, exactly like the
                    # interpreter.
                    pos = vtype.position(int(ifn(api)))
                    base[pos] = sl(vfn(api))
                    regs[slot] = tuple(base)
                    return nxt
        else:
            lfn, lc = self._expr(slice_[0], None)
            rfn, rc = self._expr(slice_[1], None)
            positions0 = None
            if lc is not _NOT_CONST and rc is not _NOT_CONST and \
                    vtype is not None:
                try:
                    positions0 = _slice_positions(vtype, int(lc),
                                                  int(rc))
                except Exception:
                    positions0 = None
            if positions0 is not None:
                def op(api, _ps=positions0):
                    base = list(regs[slot])
                    value_vec = _as_vector(vfn(api), len(_ps))
                    for p, bit in zip(_ps, value_vec):
                        base[p] = bit
                    regs[slot] = tuple(base)
                    return nxt
            else:
                def op(api):
                    base = list(regs[slot])
                    positions = _slice_positions(vtype, int(lfn(api)),
                                                 int(rfn(api)))
                    value_vec = _as_vector(vfn(api), len(positions))
                    for p, bit in zip(positions, value_vec):
                        base[p] = bit
                    regs[slot] = tuple(base)
                    return nxt

        self._emit(op)

    def _if(self, stmt: ast.IfStmt) -> None:
        end_cell = [None]
        for condition, body in stmt.arms:
            cfn = self._expr(condition, None)[0]
            false_cell = [None]
            tpc = self._here() + 1

            def test(api, _c=cfn, _t=tpc, _f=false_cell):
                if _truthy(_c(api)):
                    return _t
                return _f[0]

            self._emit(test)
            self._stmts(body)
            self._jump(end_cell)
            false_cell[0] = self._here()
        if stmt.orelse:
            self._stmts(stmt.orelse)
        end_cell[0] = self._here()

    def _case(self, stmt: ast.CaseStmt) -> None:
        selfn = self._expr(stmt.selector, None)[0]
        end_cell = [None]
        entries = []
        for choices, _body in stmt.arms:
            cell = [None]
            if not choices:  # when others
                entries.append((None, cell))
            else:
                entries.append((tuple(self._expr(c, None)[0]
                                      for c in choices), cell))
        entries = tuple(entries)

        def dispatch(api, _s=selfn, _e=entries, _end=end_cell):
            selector = _s(api)
            for cfns, cell in _e:
                if cfns is None:
                    return cell[0]
                for cfn in cfns:
                    if _values_equal(selector, cfn(api)):
                        return cell[0]
            return _end[0]

        self._emit(dispatch)
        for (_choices, body), (_cfns, cell) in zip(stmt.arms, entries):
            cell[0] = self._here()
            self._stmts(body)
            self._jump(end_cell)
        end_cell[0] = self._here()

    def _for(self, stmt: ast.ForStmt) -> None:
        lowfn = self._expr(stmt.low, None)[0]
        highfn = self._expr(stmt.high, None)[0]
        step = -1 if stmt.downto else 1
        end_cell = [None]
        epi_cell = [None]
        loops = self.loops
        regs = self.regs
        # The loop variable gets a fresh slot; the previous binding (if
        # any) keeps its own slot untouched, which is exactly the
        # interpreter's shadow-save/restore, resolved statically.
        var = stmt.var
        had = var in self.scope
        saved_slot = self.scope.get(var)
        slot = self._new_slot()
        bpc = self._here() + 1

        def init(api, _e=end_cell):
            low = int(lowfn(api))
            high = int(highfn(api))
            if (step > 0 and low > high) or (step < 0 and low < high):
                return _e[0]  # empty range
            loops.append([low, high])
            regs[slot] = low
            return bpc

        self._emit(init)
        self.scope[var] = slot
        self.loop_stack.append(("for", end_cell, epi_cell))
        self._stmts(stmt.body)
        self.loop_stack.pop()
        if had:
            self.scope[var] = saved_slot
        else:
            del self.scope[var]
        epi_cell[0] = self._here()

        def epilogue(api, _e=end_cell):
            rec = loops[-1]
            nxt = rec[0] + step
            if (step > 0 and nxt > rec[1]) or (step < 0 and nxt < rec[1]):
                loops.pop()
                return _e[0]
            rec[0] = nxt
            regs[slot] = nxt
            return bpc

        self._emit(epilogue)
        end_cell[0] = self._here()

    def _while(self, stmt: ast.WhileStmt) -> None:
        cfn = self._expr(stmt.condition, None)[0]
        end_cell = [None]
        tpc = self._here()
        bpc = tpc + 1

        def test(api, _e=end_cell):
            if _truthy(cfn(api)):
                return bpc
            return _e[0]

        self._emit(test)
        self.loop_stack.append(("while", end_cell, [tpc]))
        self._stmts(stmt.body)
        self.loop_stack.pop()
        self._emit(lambda api: tpc)
        end_cell[0] = self._here()

    def _exit_next(self, stmt, drop_loop: bool) -> None:
        cfn = (None if stmt.condition is None
               else self._expr(stmt.condition, None)[0])
        nxt = self._here() + 1
        if not self.loop_stack:
            # Outside any loop this raises — but only if the condition
            # holds, and only at execution time.
            def op(api):
                if cfn is None or _truthy(cfn(api)):
                    raise VhdlRuntimeError("exit/next outside of a loop")
                return nxt

            self._emit(op)
            return
        kind, end_cell, cont_cell = self.loop_stack[-1]
        loops = self.loops
        if not drop_loop:  # next: jump to the loop's advance point
            def op(api, _c=cont_cell):
                if cfn is None or _truthy(cfn(api)):
                    return _c[0]
                return nxt
        elif kind == "for":  # exit: drop the live loop record
            def op(api, _e=end_cell):
                if cfn is None or _truthy(cfn(api)):
                    loops.pop()
                    return _e[0]
                return nxt
        else:
            def op(api, _e=end_cell):
                if cfn is None or _truthy(cfn(api)):
                    return _e[0]
                return nxt

        self._emit(op)

    def _wait(self, stmt: ast.WaitStmt) -> None:
        on = set()
        for name in stmt.on:
            if name not in self.env.signals:
                self._raise_op(f"unknown signal {name!r}")
                return
            on.add(self.env.signals[name].lp_id)
        until = None
        if stmt.until is not None:
            if not stmt.on:
                # Implicit sensitivity: every signal in the condition.
                for name in _expr_signal_names(stmt.until, self.env):
                    on.add(self.env.signals[name].lp_id)
            index = len(self.untils)
            self.untils.append(self._expr(stmt.until, None)[0])
            until = _UntilThunk(self.body, index)
        onset = frozenset(on)
        frame = self.frame
        nxt = self._here() + 1
        if stmt.for_time is None:
            wait = Wait(on=onset, until=until, for_fs=None)

            def op(api, _f=frame, _w=wait):
                _f.pc = nxt
                return _w
        else:
            ffn = self._expr(stmt.for_time, None)[0]

            def op(api, _f=frame, _o=onset, _u=until):
                for_fs = int(ffn(api))
                _f.pc = nxt
                return Wait(on=_o, until=_u, for_fs=for_fs)

        self._emit(op)

    def _report(self, stmt: ast.ReportStmt) -> None:
        mfn = self._expr(stmt.message, None)[0]
        severity = stmt.severity or "note"
        reports = self.reports
        nxt = self._here() + 1

        def op(api):
            message = mfn(api)
            reports.append((severity, str(message)))
            return nxt

        self._emit(op)

    def _assert(self, stmt: ast.AssertStmt) -> None:
        cfn = self._expr(stmt.condition, None)[0]
        mfn = (None if stmt.message is None
               else self._expr(stmt.message, None)[0])
        severity = stmt.severity or "error"
        reports = self.reports
        nxt = self._here() + 1

        def op(api):
            if not _truthy(cfn(api)):
                message = ("assertion failed" if mfn is None
                           else str(mfn(api)))
                reports.append((severity, message))
                if severity in ("failure", "error"):
                    raise VhdlRuntimeError(
                        f"assertion ({severity}): {message}")
            return nxt

        self._emit(op)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _fold(self, fn: Callable, *consts) -> Tuple[Callable, Any]:
        """Fold ``fn`` iff every sub-expression is constant AND the
        one-shot evaluation succeeds; a raising constant expression
        stays a runtime closure so it raises when (and only when) the
        interpreter would."""
        if all(c is not _NOT_CONST for c in consts):
            try:
                value = fn(None)
            except Exception:
                return fn, _NOT_CONST
            return (lambda api, _v=value: _v), value
        return fn, _NOT_CONST

    def _expr(self, expr: ast.Expr,
              expected: Optional[VType]) -> Tuple[Callable, Any]:
        """Compile ``expr`` to ``fn(api) -> value`` plus its folded
        constant value (or ``_NOT_CONST``)."""
        if isinstance(expr, ast.CharLiteral):
            return self._fold(lambda api, _c=expr.value: sl(_c))
        if isinstance(expr, ast.StringLiteral):
            # Bit-string literal when every character is a std_logic
            # value; otherwise a plain string (report messages etc.).
            text = expr.value
            if text and all(c.upper() in "UX01ZWLH-" for c in text):
                value = slv(text)
            else:
                value = text
            return (lambda api, _v=value: _v), value
        if isinstance(expr, ast.IntLiteral):
            value = expr.value
            return (lambda api, _v=value: _v), value
        if isinstance(expr, ast.TimeLiteral):
            value = expr.femtoseconds
            return (lambda api, _v=value: _v), value
        if isinstance(expr, ast.Name):
            return self._name(expr.ident)
        if isinstance(expr, ast.Aggregate):
            return self._aggregate(expr, expected)
        if isinstance(expr, ast.Indexed):
            if isinstance(expr.base, ast.Name) and \
                    expr.base.ident in _BUILTINS:
                return self._builtin(expr.base.ident, (expr.index,))
            bfn = self._vector_base(expr.base)
            ifn, ic = self._expr(expr.index, None)
            if ic is not _NOT_CONST and isinstance(expr.base, ast.Name):
                # Constant index on a named base: resolve the element
                # position at compile time (signal reads keep paying
                # only the api.read).
                name = expr.base.ident
                ref = (None if name in self.scope
                       else self.env.signals.get(name))
                if ref is not None:
                    try:
                        pos = ref.vtype.position(int(ic))
                    except Exception:
                        pos = None  # out of range: raise at execution
                    if pos is not None:
                        lp_id = ref.lp_id

                        def fn(api, _lp=lp_id, _p=pos):
                            return api.read(_lp)[_p]

                        return fn, _NOT_CONST

            def fn(api):
                base, vtype = bfn(api)
                index = int(ifn(api))
                return base[vtype.position(index)]

            return fn, _NOT_CONST
        if isinstance(expr, ast.Sliced):
            bfn = self._vector_base(expr.base)
            lfn = self._expr(expr.left, None)[0]
            rfn = self._expr(expr.right, None)[0]

            def fn(api):
                base, vtype = bfn(api)
                positions = _slice_positions(vtype, int(lfn(api)),
                                             int(rfn(api)))
                return tuple(base[p] for p in positions)

            return fn, _NOT_CONST
        if isinstance(expr, ast.Attribute):
            return self._attribute(expr)
        if isinstance(expr, ast.Unary):
            ofn, oc = self._expr(expr.operand, expected)
            op = expr.op
            return self._fold(lambda api: _eval_unary(op, ofn(api)), oc)
        if isinstance(expr, ast.Binary):
            op = expr.op
            lfn, lc = self._expr(expr.left,
                                 expected if op in _HINTED_OPS else None)
            rfn, rc = self._expr(expr.right, None)
            fast = _INT_BINOPS.get(op)
            if fast is not None:
                def fn(api):
                    left = lfn(api)
                    right = rfn(api)
                    if type(left) is int and type(right) is int:
                        return fast(left, right)
                    return _eval_binary(op, left, right)
            else:
                def fn(api):
                    left = lfn(api)
                    right = rfn(api)
                    return _eval_binary(op, left, right)

            return self._fold(fn, lc, rc)
        if isinstance(expr, ast.Call):
            return self._builtin(expr.func, expr.args)
        message = f"cannot evaluate {expr!r}"

        def fn(api, _m=message):
            raise VhdlRuntimeError(_m)

        return fn, _NOT_CONST

    def _name(self, name: str) -> Tuple[Callable, Any]:
        # Resolution order mirrors the interpreter's ``_eval_name``:
        # variables, process/design constants, signals, booleans,
        # single-character std_logic literals, then error.
        if name in self.scope:
            regs = self.regs
            slot = self.scope[name]
            return (lambda api, _r=regs, _s=slot: _r[_s]), _NOT_CONST
        if name in self.env.constants:
            value = self.env.constants[name]
            return (lambda api, _v=value: _v), value
        if name in self.env.signals:
            lp_id = self.env.signals[name].lp_id
            return (lambda api, _lp=lp_id: api.read(_lp)), _NOT_CONST
        if name == "true":
            return (lambda api: True), True
        if name == "false":
            return (lambda api: False), False
        if len(name) == 1 and name.upper() in "UX01ZWLH-":
            value = sl(name)
            return (lambda api, _v=value: _v), value
        message = f"unknown name {name!r}"

        def fn(api, _m=message):
            raise VhdlRuntimeError(_m)

        return fn, _NOT_CONST

    def _aggregate(self, expr: ast.Aggregate,
                   expected: Optional[VType]) -> Tuple[Callable, Any]:
        if expected is None or expected.kind != "vector":
            if expr.others is not None and not expr.positional:
                self_msg = "(others => ...) needs a known target width"

                def fn(api, _m=self_msg):
                    raise VhdlRuntimeError(_m)

                return fn, _NOT_CONST
            pairs = [self._expr(e, None) for e in expr.positional]
            fns = tuple(f for f, _c in pairs)

            def fn(api, _fns=fns):
                return tuple(sl(f(api)) for f in _fns)

            return self._fold(fn, *(c for _f, c in pairs))
        width = expected.width
        pairs = [self._expr(e, None) for e in expr.positional]
        fns = tuple(f for f, _c in pairs)
        consts = [c for _f, c in pairs]
        ofn = None
        if expr.others is not None:
            ofn, oc = self._expr(expr.others, None)
            consts.append(oc)

        def fn(api, _fns=fns, _o=ofn, _w=width):
            bits = [sl(f(api)) for f in _fns]
            if _o is not None:
                fill = sl(_o(api))
                bits = bits + [fill] * (_w - len(bits))
            if len(bits) != _w:
                raise VhdlRuntimeError(
                    f"aggregate width {len(bits)} vs target {_w}")
            return tuple(bits)

        return self._fold(fn, *consts)

    def _attribute(self, expr: ast.Attribute) -> Tuple[Callable, Any]:
        if not isinstance(expr.base, ast.Name):
            message = "attributes only on simple names"

            def fn(api, _m=message):
                raise VhdlRuntimeError(_m)

            return fn, _NOT_CONST
        name = expr.base.ident
        attr = expr.attr
        if attr == "event":
            if name not in self.env.signals:
                message = f"unknown signal {name!r}"

                def fn(api, _m=message):
                    raise VhdlRuntimeError(_m)

                return fn, _NOT_CONST
            lp_id = self.env.signals[name].lp_id
            return (lambda api, _lp=lp_id: api.event_on(_lp)), _NOT_CONST
        if attr == "length":
            bfn = self._vector_base(expr.base)

            def fn(api):
                base, _vtype = bfn(api)
                return len(base)

            return fn, _NOT_CONST
        message = f"unsupported attribute '{attr}"

        def fn(api, _m=message):
            raise VhdlRuntimeError(_m)

        return fn, _NOT_CONST

    def _vector_base(self, expr: ast.Expr) -> Callable:
        """Compile to ``fn(api) -> (value, vtype)``, mirroring the
        interpreter's ``_eval_vector_base`` resolution order."""
        if isinstance(expr, ast.Name):
            name = expr.ident
            if name in self.scope:
                regs = self.regs
                slot = self.scope[name]
                vtype = self.vtypes.get(name)
                if vtype is not None:
                    def fn(api, _r=regs, _s=slot, _vt=vtype):
                        return _r[_s], _vt
                else:
                    def fn(api, _r=regs, _s=slot):
                        value = _r[_s]
                        return value, VType("vector", len(value) - 1, 0,
                                            True)
                return fn
            if name in self.env.signals:
                ref = self.env.signals[name]

                def fn(api, _lp=ref.lp_id, _vt=ref.vtype):
                    return api.read(_lp), _vt

                return fn
        vfn = self._expr(expr, None)[0]

        def fn(api):
            value = vfn(api)
            return value, VType("vector", len(value) - 1, 0, True)

        return fn

    def _builtin(self, func: str,
                 arg_exprs: Sequence[ast.Expr]) -> Tuple[Callable, Any]:
        pairs = [self._expr(a, None) for a in arg_exprs]
        fns = tuple(f for f, _c in pairs)
        first = arg_exprs[0] if arg_exprs else None
        if func in ("rising_edge", "falling_edge"):
            # The interpreter evaluates arguments BEFORE checking the
            # name/event, so even "dead" edge calls must evaluate.
            if not isinstance(first, ast.Name):
                message = f"{func} needs a signal name"
            elif first.ident not in self.env.signals:
                message = f"unknown signal {first.ident!r}"
            else:
                lp_id = self.env.signals[first.ident].lp_id
                rising = func == "rising_edge"

                def fn(api, _fns=fns, _lp=lp_id, _r=rising):
                    args = [f(api) for f in _fns]
                    if not api.event_on(_lp):
                        return False
                    try:
                        level = args[0].to_bool()
                    except (AttributeError, ValueError):
                        return False
                    return level if _r else not level

                return fn, _NOT_CONST

            def fn(api, _fns=fns, _m=message):
                for f in _fns:
                    f(api)
                raise VhdlRuntimeError(_m)

            return fn, _NOT_CONST

        # Every other builtin (and the unknown-function error) shares
        # the interpreter's _apply_builtin verbatim.
        def fn(api, _func=func, _fns=fns):
            return _apply_builtin(_func, [f(api) for f in _fns],
                                  None, None, None)

        return self._fold(fn, *(c for _f, c in pairs))


# ---------------------------------------------------------------------------
# The compiled body
# ---------------------------------------------------------------------------
class CompiledBody(ProcessBody):
    """Executes a VHDL process as a flat program of compiled closures.

    Drop-in replacement for
    :class:`~repro.vhdl.frontend.interp.InterpretedBody`: same wiring,
    same committed results (held bit-identical by the differential test
    matrix), same checkpointability — but the state is a flat register
    file plus a tiny :class:`Frame` instead of a name dict and a stack
    of statement frames.
    """

    checkpointable = True

    def __init__(self, process: ast.ProcessStmt, env: Env) -> None:
        self.process = process
        self.env = env
        # Validate declared variable types eagerly, like the
        # interpreter's constructor does.
        for decl in process.declarations:
            if isinstance(decl, ast.VariableDecl):
                resolve_type(decl.type_mark, self._const)
        # Identity-stable containers: the compiled ops capture these
        # directly, and restore() mutates them in place.
        self.regs: List[Any] = []
        self.frame = Frame()
        self.reports: List[Tuple[str, str]] = []
        self.driving: Dict[str, Any] = {}
        self._ops: Optional[List[Callable]] = None
        self._nslots = 0
        self._untils: List[Callable] = []

    def _const(self, expr: ast.Expr) -> Any:
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
    # Program management
    # ------------------------------------------------------------------
    def _ensure_program(self) -> None:
        if self._ops is None:
            compiler = _Compiler(self)
            self._ops, self._nslots, self._untils = compiler.compile()
            if len(self.regs) < self._nslots:
                self.regs.extend(
                    [None] * (self._nslots - len(self.regs)))

    def _until(self, index: int, api: ProcessLP) -> bool:
        self._ensure_program()
        return _truthy(self._untils[index](api))

    # ------------------------------------------------------------------
    # ProcessBody interface
    # ------------------------------------------------------------------
    def start(self, api: ProcessLP) -> Wait:
        self._ensure_program()
        self.regs[:] = [None] * self._nslots
        self.frame.pc = 0
        del self.frame.loops[:]
        return self._execute(api)

    def resume(self, api: ProcessLP) -> Wait:
        self._ensure_program()
        return self._execute(api)

    def _execute(self, api: ProcessLP) -> Wait:
        ops = self._ops
        pc = self.frame.pc
        steps = 0
        while True:
            steps += 1
            if steps > 1_000_000:
                raise VhdlRuntimeError(
                    f"process {self.process.label or '?'}: more than 1e6 "
                    f"steps without a wait (infinite zero-time loop?)")
            target = ops[pc](api)
            if target.__class__ is int:
                pc = target
            else:
                return target  # a Wait; the op recorded frame.pc

    def snapshot(self) -> Any:
        return (tuple(self.regs), self.frame.snapshot(),
                tuple(self.reports), dict(self.driving))

    def restore(self, snap: Any) -> None:
        if snap is None:
            return
        regs, frame, reports, driving = snap
        self.regs[:] = regs
        self.frame.restore(frame)
        self.reports[:] = reports
        self.driving.clear()
        self.driving.update(driving)

    # ------------------------------------------------------------------
    # Pickling: ship AST + environment + plain state; the compiled ops
    # are rebuilt lazily on the other side.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"process": self.process, "env": self.env,
                "regs": list(self.regs), "frame": self.frame.snapshot(),
                "reports": list(self.reports),
                "driving": dict(self.driving)}

    def __setstate__(self, state) -> None:
        self.process = state["process"]
        self.env = state["env"]
        self.regs = list(state["regs"])
        self.frame = Frame()
        self.frame.restore(state["frame"])
        self.reports = list(state["reports"])
        self.driving = dict(state["driving"])
        self._ops = None
        self._nslots = 0
        self._untils = []


# ---------------------------------------------------------------------------
# The lowering pass
# ---------------------------------------------------------------------------
def lower_design(design) -> int:
    """Swap every interpreted process body in ``design`` for a compiled
    one.  Wiring is untouched (reads/drives are AST-derived and
    identical); must run before the design is elaborated/simulated.
    Returns the number of processes lowered."""
    count = 0
    for lp in design.processes:
        body = lp.body
        if isinstance(body, InterpretedBody):
            lp.body = CompiledBody(body.process, body.env)
            count += 1
    return count
