"""The recursive binary-operator cascade, kept as a test oracle.

:class:`ReferenceParser` is :class:`repro.lang.parser.Parser` with its
binary expressions parsed the way they were before the
precedence-climbing loop: one method per precedence level, each calling
the next tighter one. Its ASTs and its errors (type, message, line,
column) are what ``test_parser_equivalence.py`` holds the loop to. The
cascade spends about ten Python frames per nesting level, so it fails
with ``RecursionError`` far sooner on deep input.
"""

from __future__ import annotations

from repro.lang.cpp_ast import BinaryOp, IoWrite, Node, Ternary
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser

__all__ = ["ReferenceParser", "reference_parse"]


def reference_parse(source: str):
    return ReferenceParser(tokenize(source)).parse_translation_unit()


class ReferenceParser(Parser):
    def _parse_cout(self) -> IoWrite:
        self._ts.next()  # cout
        node = IoWrite()
        while self._accept_op("<<"):
            node.values.append(self._parse_additive())
        self._expect_punct(";")
        return node

    def _parse_ternary(self) -> Node:
        cond = self._parse_logical_or()
        if self._accept_punct("?"):
            then = self._parse_assignment()
            self._expect_punct(":")
            orelse = self._parse_assignment()
            return Ternary(cond=cond, then=then, orelse=orelse)
        return cond

    def _binary_level(self, operators: tuple[str, ...], next_level):
        left = next_level()
        while self._ts.peek().is_op(*operators):
            op = self._ts.next().text
            right = next_level()
            left = BinaryOp(op=op, left=left, right=right)
        return left

    def _parse_logical_or(self) -> Node:
        return self._binary_level(("||",), self._parse_logical_and)

    def _parse_logical_and(self) -> Node:
        return self._binary_level(("&&",), self._parse_bit_or)

    def _parse_bit_or(self) -> Node:
        return self._binary_level(("|",), self._parse_bit_xor)

    def _parse_bit_xor(self) -> Node:
        return self._binary_level(("^",), self._parse_bit_and)

    def _parse_bit_and(self) -> Node:
        return self._binary_level(("&",), self._parse_equality)

    def _parse_equality(self) -> Node:
        return self._binary_level(("==", "!="), self._parse_relational)

    def _parse_relational(self) -> Node:
        return self._binary_level(("<", ">", "<=", ">="), self._parse_shift)

    def _parse_shift(self) -> Node:
        return self._binary_level(("<<", ">>"), self._parse_additive)

    def _parse_additive(self) -> Node:
        return self._binary_level(("+", "-"), self._parse_multiplicative)

    def _parse_multiplicative(self) -> Node:
        return self._binary_level(("*", "/", "%"), self._parse_unary)
