"""The first-character operator table against the lexer it replaced.

``repro.lang.lexer.tokenize`` tries only the operators that start with
the current character, longest first; the lexer that tried every entry
of ``OPERATORS`` at each operator position lives on as the oracle in
``reference_lexer.py``. Both must return equal token lists (kind, text,
line, column) or raise ``LexError`` with the same message, line and
column on every input the parser equivalence suite parses, on the
lexer's error cases, on every operator pair and on random character
soup.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import OPERATORS

from .reference_lexer import reference_tokenize
from .test_parser_equivalence import (
    BAD_SOURCES, EXPRESSIONS, FAMILIES, SOUP, _family_id, expression_program,
    family_sources,
)


def _outcome(lexer, source: str):
    try:
        return lexer(source)
    except LexError as error:         # compared by text and position
        return (str(error), error.line, error.column)


def assert_same_tokens(source: str):
    expected = _outcome(reference_tokenize, source)
    assert _outcome(tokenize, source) == expected
    return expected


@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
def test_family_programs_variants_and_mutants(family):
    for source in family_sources(family):
        assert not isinstance(assert_same_tokens(source), tuple)


@pytest.mark.parametrize("source", [expression_program(e)
                                    for e in EXPRESSIONS] + BAD_SOURCES)
def test_parser_suite_sources(source):
    assert not isinstance(assert_same_tokens(source), tuple)


def test_every_operator_pair():
    # Maximal munch across the boundary of two adjacent operators
    # ("<" "<=" lexes as "<<" "="), with and without a space between.
    for first, second in itertools.product(OPERATORS + (":", "."),
                                           repeat=2):
        for gap in ("", " "):
            assert_same_tokens(f"a{first}{gap}{second}b")


@pytest.mark.parametrize("source", [
    "/* forever",
    '"oops',
    "'a",
    '"a\nb"',
    '"tail\\',
    "int x; #define Y 1",
    "int x = `1`;",
    "int x = 1 @ 2;",
    "a $ b",
    "x = 1;\n  y = 2; /* open\n\n",
])
def test_error_cases(source):
    assert isinstance(assert_same_tokens(source), tuple)


#: characters that start every token kind, every operator and both
#: comment forms, plus three the lexer rejects
CHARS = sorted(set("".join(OPERATORS))
               | set("(){}[];,?:.\"'\\#_aZ09xeE\n \t`@$"))


@settings(max_examples=500, deadline=None)
@given(source=st.text(alphabet=CHARS, max_size=40))
def test_random_character_soup(source):
    assert_same_tokens(source)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(SOUP), min_size=1, max_size=14),
       gap=st.sampled_from(["", " "]))
def test_random_token_soup(tokens, gap):
    assert_same_tokens("int main() { int a, b; vector<int> v; a = "
                       + gap.join(tokens) + "; }")
