"""The interpreter dispatches by node type: every concrete expression
and statement node of the VHDL subset has exactly one handler, and
nothing else has one."""

import pytest

from repro.vhdl.frontend import ast
from repro.vhdl.frontend.interp import (_BINARY, _EVAL, _EXEC,
                                        VhdlRuntimeError, _eval_binary,
                                        _eval_const)


def concrete(base):
    found, stack = set(), list(base.__subclasses__())
    while stack:
        node = stack.pop()
        found.add(node)
        stack += node.__subclasses__()
    return found


@pytest.mark.parametrize("base, table", [(ast.Expr, _EVAL),
                                         (ast.Stmt, _EXEC)],
                         ids=["expressions", "statements"])
def test_every_node_type_has_exactly_one_handler(base, table):
    assert set(table) == concrete(base)
    assert len(table) == len(concrete(base))


def test_every_parsed_operator_has_a_handler():
    from repro.vhdl.frontend import parser

    parsed = (parser._LOGICAL | parser._RELATIONAL | parser._ADDING
              | parser._MULTIPLYING | {"**", "sll", "srl"})
    assert parsed - {"sla", "sra", "rol", "ror"} <= set(_BINARY)


def test_an_unknown_node_or_operator_is_a_vhdl_error():
    with pytest.raises(VhdlRuntimeError, match="cannot evaluate"):
        _eval_const(ast.Expr(), {})
    with pytest.raises(VhdlRuntimeError, match="unsupported operator"):
        _eval_binary("rol", 1, 2)
