"""The lexer before its first-character operator table, kept as a test
oracle.

:func:`reference_tokenize` tries every entry of ``OPERATORS`` at each
operator position and both comment openers at every token start. Its
tokens and its ``LexError``s (message, line, column) are what
``test_lexer_equivalence.py`` holds :func:`repro.lang.lexer.tokenize`
to.
"""

from __future__ import annotations

from repro.lang.errors import LexError
from repro.lang.tokens import (
    KEYWORDS, OPERATORS, TYPE_KEYWORDS, Token, TokenKind,
)

__all__ = ["reference_tokenize"]

_PUNCT = set("(){}[];,?:.")


def reference_tokenize(source: str) -> list[Token]:
    """Convert ``source`` into a token list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> LexError:
        return LexError(msg, line, col)

    while i < n:
        ch = source[i]

        # -- whitespace ------------------------------------------------
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue

        # -- comments --------------------------------------------------
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise error("unterminated block comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue

        # -- preprocessor ----------------------------------------------
        if ch == "#" and col == 1 or (ch == "#" and (i == 0 or source[i - 1] == "\n")):
            start = i
            while i < n and source[i] != "\n":
                i += 1
            tokens.append(Token(TokenKind.PREPROCESSOR, source[start:i], line, 1))
            continue
        if ch == "#":
            raise error("'#' is only allowed at the start of a line")

        # -- string / char literals -------------------------------------
        if ch == '"' or ch == "'":
            quote = ch
            start_col = col
            j = i + 1
            buf = [quote]
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise error("unterminated literal")
                if source[j] == "\\":
                    if j + 1 >= n:
                        raise error("dangling escape")
                    buf.append(source[j:j + 2])
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated literal")
            buf.append(quote)
            text = "".join(buf)
            kind = TokenKind.STRING_LIT if quote == '"' else TokenKind.CHAR_LIT
            tokens.append(Token(kind, text, line, start_col))
            col += j + 1 - i
            i = j + 1
            continue

        # -- numbers -----------------------------------------------------
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            start_col = col
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                i += 2
                while i < n and (source[i].isdigit() or source[i] in "abcdefABCDEF"):
                    i += 1
            else:
                while i < n and source[i].isdigit():
                    i += 1
                if i < n and source[i] == "." and not source.startswith("..", i):
                    is_float = True
                    i += 1
                    while i < n and source[i].isdigit():
                        i += 1
                if i < n and source[i] in "eE":
                    peek = i + 1
                    if peek < n and source[peek] in "+-":
                        peek += 1
                    if peek < n and source[peek].isdigit():
                        is_float = True
                        i = peek
                        while i < n and source[i].isdigit():
                            i += 1
            # integer suffixes: LL, L, U, UL, ULL ...
            while i < n and source[i] in "uUlL" and not is_float:
                i += 1
            if i < n and source[i] in "fF" and is_float:
                i += 1
            text = source[start:i]
            kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
            tokens.append(Token(kind, text, line, start_col))
            col += i - start
            continue

        # -- identifiers / keywords --------------------------------------
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            if text in KEYWORDS or text in TYPE_KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.IDENT
            tokens.append(Token(kind, text, line, start_col))
            col += i - start
            continue

        # -- operators (maximal munch) ------------------------------------
        matched = None
        for op in OPERATORS:
            if source.startswith(op, i):
                matched = op
                break
        if matched:
            tokens.append(Token(TokenKind.OPERATOR, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue

        # -- punctuation ---------------------------------------------------
        if ch in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch, line, col))
            i += 1
            col += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
