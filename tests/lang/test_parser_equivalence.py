"""The precedence-climbing parser against the recursive cascade.

Binary expressions are parsed by one loop over a precedence table
(``repro.lang.parser``); the one-method-per-level cascade it replaced
lives on as the oracle in ``reference_parser.py``. Both must build
equal ASTs (dataclass ``==``) or raise the same error (type, message,
line, column) on every corpus family program, style variant, dead-code
mutant and random token soup, and the loop must parse nesting the
cascade ran out of stack on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.registry import TABLE1_TAGS, family_for_tag, mp_families
from repro.corpus.styles import Style
from repro.lang import parse
from repro.lang.analysis import generate_dead_mutants
from repro.lang.cpp_ast import BinaryOp, IntLit, Return

from .reference_parser import reference_parse

FAMILIES = ([family_for_tag(tag, scale=0.1) for tag in TABLE1_TAGS]
            + mp_families(count=6, scale=0.1))


def _outcome(parser, source: str):
    try:
        return parser(source)
    except RecursionError:
        raise
    except Exception as error:        # compared by type, text, position
        return (type(error).__name__, str(error),
                getattr(error, "line", None), getattr(error, "column", None))


def assert_same_parse(source: str):
    expected = _outcome(reference_parse, source)
    assert _outcome(parse, source) == expected
    return expected


def _family_id(family) -> str:
    return f"{family.tag}-{type(family).__name__}"


def family_sources(family) -> list[str]:
    """Two generated programs, three style variants of the reference
    solution and three dead-code mutants of the first program."""
    sources = [family.generate(np.random.default_rng(seed)).source
               for seed in (0, 1)]
    sources += [family.emit_solution(np.random.default_rng(5),
                                     Style(np.random.default_rng(seed))).source
                for seed in (11, 12, 13)]
    sources += [m.source for m in generate_dead_mutants(sources[0], seed=7,
                                                        count=3)]
    return sources


@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
def test_family_programs_variants_and_mutants(family):
    for source in family_sources(family):
        assert not isinstance(assert_same_parse(source), tuple)


EXPRESSIONS = [
    "a || b && c | d ^ e & f == g != h < i >= j << k >> l + m - n * o / p % q",
    "a * b + c * d - e / f % g",
    "a - b - c - d",
    "a < b == c > d",
    "!a && -b || ~c",
    "a ? b : c ? d : e",
    "x = y += a & b | c",
]


def expression_program(expression: str) -> str:
    return (f"int main() {{ int a, b, c, d, e, f, g, h, i, j, k, l, "
            f"m, n, o, p, q, x, y; x = {expression}; "
            f"cout << {expression.split(' ? ')[0]} << endl; }}")


@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_precedence_table_matches_cascade(expression):
    assert_same_parse(expression_program(expression))


BAD_SOURCES = [
    "int main() { return 1 + ; }",
    "int main() { return (1 + 2; }",
    "int main() { cout << 1 << ; }",
    "int main() { x = a ? b ; }",
    "int main() { return 1 2; }",
    "int main() { return * 3; }",
]


@pytest.mark.parametrize("source", BAD_SOURCES)
def test_errors_match_cascade(source):
    assert isinstance(assert_same_parse(source), tuple)


#: the tokens of a random expression soup: operands, every binary
#: operator, unary and postfix operators, parentheses, the ternary and
#: assignment forms
SOUP = ("a", "b", "7", "(", ")", "||", "&&", "|", "^", "&", "==", "!=",
        "<", ">", "<=", ">=", "<<", ">>", "+", "-", "*", "/", "%", "!",
        "~", "++", "?", ":", "=", "+=", "[", "]", "v", ".size()")


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(SOUP), min_size=1, max_size=14),
       cout=st.lists(st.sampled_from(SOUP), max_size=8))
def test_random_token_soup_matches_cascade(tokens, cout):
    # Well-formed or not, both parsers agree: equal ASTs or the same
    # error at the same position.
    assert_same_parse("int main() { int a, b; vector<int> v; a = "
                      + " ".join(tokens) + "; cout << "
                      + " ".join(cout or ["a"]) + "; }")


def test_hundred_nested_parentheses_parse():
    # The cascade ran out of stack at 38 levels under the default
    # recursion limit; the untrusted text the serve front door parses
    # can nest far deeper than any corpus program.
    depth = 100
    unit = parse("int main() { return " + "(" * depth + "1 + 2"
                 + ")" * depth + "; }")
    returned = unit.functions[0].body.statements[0]
    assert isinstance(returned, Return)
    assert returned.value == BinaryOp(op="+", left=IntLit(value=1),
                                      right=IntLit(value=2))
