"""Lexer for the VHDL subset.

The paper's toolchain compiled VHDL source into C classes over the kernel
library; ours compiles VHDL source into kernel objects (signal LPs plus
interpreted process bodies).  This module tokenizes VHDL text: identifiers
(case-insensitive), reserved words, character/string/numeric literals,
physical literals with time units, compound delimiters, and ``--``
comments.
"""

from __future__ import annotations

from typing import List

from ...core.record import Record
from ...core.vtime import parse_time

KEYWORDS = frozenset("""
    abs access after alias all and architecture array assert attribute
    begin block body buffer bus case component configuration constant
    disconnect downto else elsif end entity exit file for function
    generate generic group guarded if impure in inertial inout is label
    library linkage literal loop map mod nand new next nor not null of
    on open or others out package port postponed procedure process pure
    range record register reject rem report return rol ror select
    severity signal shared sla sll sra srl subtype then to transport
    type unaffected units until use variable wait when while with xnor
    xor
""".split())

#: Multi-character delimiters, longest first.
COMPOUND = ("=>", "<=", ":=", ">=", "/=", "**", "<>")

SINGLE = "&'()*+,-./:;<=>|[]"

TIME_UNITS = frozenset({"fs", "ps", "ns", "us", "ms", "sec"})


class LexError(SyntaxError):
    """Bad character or malformed literal, with line information."""


class Token(Record):
    """One lexeme of VHDL source.

    ``kind`` is 'id', 'kw', 'int', 'real', 'time', 'char', 'string',
    'bitstring', 'delim' or 'eof'; ``value`` is the normalized value
    (lower-cased for id/kw).
    """

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: str, value: object, line: int,
                 column: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line})"


def tokenize(text: str) -> List[Token]:
    """Tokenize VHDL source, raising LexError with position on failure."""
    tokens: List[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(text)

    def error(message: str) -> LexError:
        return LexError(f"line {line}: {message}")

    while i < n:
        ch = text[i]
        # Whitespace ------------------------------------------------------
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        # Comments ---------------------------------------------------------
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = column
        # Identifiers / keywords / physical literals are handled below.
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j].lower()
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line, start_col))
            column += j - i
            i = j
            continue
        # Numbers (integer, real, physical with time unit) -----------------
        if ch.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "_"):
                j += 1
            is_real = False
            if j < n and text[j] == "." and j + 1 < n and \
                    text[j + 1].isdigit():
                is_real = True
                j += 1
                while j < n and (text[j].isdigit() or text[j] == "_"):
                    j += 1
            number = text[i:j].replace("_", "")
            column += j - i
            i = j
            # Optional physical unit (time) after whitespace.
            k = i
            while k < n and text[k] in " \t":
                k += 1
            m = k
            while m < n and text[m].isalpha():
                m += 1
            unit = text[k:m].lower()
            if unit in TIME_UNITS:
                value = parse_time(float(number) if is_real
                                   else int(number), unit)
                tokens.append(Token("time", value, line, start_col))
                column += m - i
                i = m
                continue
            if is_real:
                tokens.append(Token("real", float(number), line, start_col))
            else:
                tokens.append(Token("int", int(number), line, start_col))
            continue
        # Character literal ('0') vs attribute tick (sig'event) ------------
        if ch == "'":
            # A tick directly after an identifier or ')' is an attribute
            # selector; anywhere else, 'x' is a character literal.
            prev_is_name = bool(tokens) and (
                tokens[-1].kind == "id"
                or (tokens[-1].kind == "delim" and tokens[-1].value == ")"))
            if i + 2 < n and text[i + 2] == "'" and not prev_is_name:
                tokens.append(Token("char", text[i + 1], line, start_col))
                i += 3
                column += 3
                continue
            tokens.append(Token("delim", "'", line, start_col))
            i += 1
            column += 1
            continue
        # String / bit-string literals -------------------------------------
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                buf.append(text[j])
                j += 1
            if j >= n:
                raise error("unterminated string literal")
            tokens.append(Token("string", "".join(buf), line, start_col))
            column += j + 1 - i
            i = j + 1
            continue
        # Compound delimiters ----------------------------------------------
        matched = False
        for comp in COMPOUND:
            if text.startswith(comp, i):
                tokens.append(Token("delim", comp, line, start_col))
                i += len(comp)
                column += len(comp)
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE:
            tokens.append(Token("delim", ch, line, start_col))
            i += 1
            column += 1
            continue
        raise error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", None, line, column))
    return tokens
