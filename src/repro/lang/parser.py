"""Recursive-descent parser for the C++ subset.

Produces a :class:`~repro.lang.cpp_ast.TranslationUnit`. The accepted
language covers everything the corpus generators emit: includes,
``using namespace std``, typedefs, global and local variable
declarations (with arrays and initializers), function definitions with
value/reference parameters, the full statement repertoire
(if/else, for, while, do-while, return, break, continue, blocks,
``cin >>`` / ``cout <<``), and C++ expressions with standard precedence,
STL method calls (``v.push_back(x)``, ``m.count(k)``...), indexing,
``pair.first/second`` member access and ternaries.
"""

from __future__ import annotations

from .cpp_ast import (
    ASSIGN_OP_NAMES, Assign, BinaryOp, Block, BoolLit, Break, Call, CharLit,
    Construct, Continue, Declarator, DoWhile, ExprStmt, FloatLit, For,
    FunctionDef, Ident, If, Include, Index, IntLit, IoRead, IoWrite, Member,
    MethodCall, Node, Param, PostfixOp, Return, StringLit, Ternary,
    TranslationUnit, TypeSpec, UnaryOp, UsingNamespace, VarDecl, While,
)
from .errors import ParseError
from .lexer import tokenize
from .tokens import TYPE_KEYWORDS, Token, TokenKind

__all__ = ["parse", "Parser"]

#: Library identifiers that start a type when used in declarations.
LIBRARY_TYPES = frozenset({
    "vector", "string", "pair", "map", "set", "multiset", "queue",
    "deque", "stack", "priority_queue", "unordered_map", "unordered_set",
})


#: Binary operator -> precedence (higher binds tighter), C++'s order;
#: every level is left-associative.
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "<<": 8, ">>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}
_ADDITIVE = _BINARY_PRECEDENCE["+"]


def parse(source: str) -> TranslationUnit:
    """Parse C++ source text into a translation unit AST."""
    return Parser(tokenize(source)).parse_translation_unit()


class _Stream:
    """Token cursor with single-token pushback (needed to split ``>>``)."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._pushed: list[Token] = []

    def peek(self, ahead: int = 0) -> Token:
        if self._pushed and ahead < len(self._pushed):
            return self._pushed[-1 - ahead]
        ahead -= len(self._pushed)
        idx = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def next(self) -> Token:
        if self._pushed:
            return self._pushed.pop()
        tok = self._tokens[self._pos]
        if self._pos < len(self._tokens) - 1:
            self._pos += 1
        return tok

    def push(self, token: Token) -> None:
        self._pushed.append(token)


class Parser:
    def __init__(self, tokens: list[Token]):
        self._ts = _Stream([t for t in tokens if t.kind is not TokenKind.PREPROCESSOR])
        self._includes = [
            t for t in tokens if t.kind is TokenKind.PREPROCESSOR
        ]
        self._typedefs: dict[str, TypeSpec] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _error(self, msg: str) -> ParseError:
        tok = self._ts.peek()
        return ParseError(f"{msg} (found {tok.text!r})", tok.line, tok.column)

    def _expect_punct(self, text: str) -> Token:
        tok = self._ts.peek()
        if not tok.is_punct(text):
            raise self._error(f"expected {text!r}")
        return self._ts.next()

    def _expect_op(self, text: str) -> Token:
        tok = self._ts.peek()
        if not tok.is_op(text):
            raise self._error(f"expected {text!r}")
        return self._ts.next()

    def _accept_punct(self, text: str) -> bool:
        if self._ts.peek().is_punct(text):
            self._ts.next()
            return True
        return False

    def _accept_op(self, text: str) -> bool:
        if self._ts.peek().is_op(text):
            self._ts.next()
            return True
        return False

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        unit = TranslationUnit()
        for pre in self._includes:
            text = pre.text.strip()
            if text.startswith("#include"):
                header = text[len("#include"):].strip().strip("<>\"")
                unit.includes.append(Include(header=header))
        while not self._ts.peek().kind is TokenKind.EOF:
            tok = self._ts.peek()
            if tok.is_keyword("using"):
                self._parse_using(unit)
            elif tok.is_keyword("typedef"):
                self._parse_typedef()
            elif self._starts_type():
                self._parse_global_or_function(unit)
            else:
                raise self._error("expected declaration or function definition")
        return unit

    def _parse_using(self, unit: TranslationUnit) -> None:
        self._ts.next()  # using
        tok = self._ts.peek()
        if not tok.is_keyword("namespace"):
            raise self._error("only 'using namespace <name>;' is supported")
        self._ts.next()
        name = self._ts.next()
        if name.kind is not TokenKind.IDENT:
            raise self._error("expected namespace name")
        self._expect_punct(";")
        unit.usings.append(UsingNamespace(name=name.text))

    def _parse_typedef(self) -> None:
        self._ts.next()  # typedef
        alias_type = self._parse_type()
        name = self._ts.next()
        if name.kind is not TokenKind.IDENT:
            raise self._error("expected typedef alias name")
        self._expect_punct(";")
        self._typedefs[name.text] = alias_type

    def _parse_global_or_function(self, unit: TranslationUnit) -> None:
        decl_type = self._parse_type()
        name = self._ts.next()
        if name.kind is not TokenKind.IDENT and not name.is_keyword():
            raise self._error("expected declarator name")
        if self._ts.peek().is_punct("(") and self._paren_opens_params():
            unit.functions.append(self._parse_function_rest(decl_type, name.text))
        else:
            unit.globals.append(self._parse_var_decl_rest(decl_type, name.text))

    def _paren_opens_params(self) -> bool:
        """Disambiguate ``int f(int x)`` from ``vector<int> v(1, 0)``:
        a parameter list is empty or starts with a type."""
        after = self._ts.peek(1)
        if after.is_punct(")"):
            return True
        if after.kind is TokenKind.KEYWORD and (
                after.text in TYPE_KEYWORDS or after.text == "const"):
            return True
        if after.kind is TokenKind.IDENT and (
                after.text in LIBRARY_TYPES or after.text in self._typedefs):
            return True
        return False

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------
    def _starts_type(self) -> bool:
        tok = self._ts.peek()
        if tok.kind is TokenKind.KEYWORD and tok.text in TYPE_KEYWORDS:
            return True
        if tok.kind is TokenKind.KEYWORD and tok.text == "const":
            return True
        if tok.kind is TokenKind.IDENT and (
            tok.text in LIBRARY_TYPES or tok.text in self._typedefs
        ):
            # Disambiguate "vector<int> v;" from expression "x * y": a type
            # name must be followed by '<' (template) or an identifier.
            nxt = self._ts.peek(1)
            return nxt.is_op("<") or nxt.kind is TokenKind.IDENT or tok.text in self._typedefs
        return False

    def _parse_type(self) -> TypeSpec:
        const = False
        if self._ts.peek().is_keyword("const"):
            const = True
            self._ts.next()
        tok = self._ts.peek()
        if tok.kind is TokenKind.IDENT and tok.text in self._typedefs:
            self._ts.next()
            base = self._typedefs[tok.text]
            return TypeSpec(base=base.base, args=list(base.args), const=const or base.const)
        if tok.kind is TokenKind.KEYWORD and tok.text in TYPE_KEYWORDS:
            words = [self._ts.next().text]
            # Combinations: long long, unsigned long long, long double, ...
            while self._ts.peek().kind is TokenKind.KEYWORD and \
                    self._ts.peek().text in TYPE_KEYWORDS:
                words.append(self._ts.next().text)
            base = " ".join(words)
            canonical = {
                "long long int": "long long",
                "long int": "long",
                "unsigned long long int": "unsigned long long",
            }.get(base, base)
            return TypeSpec(base=canonical, const=const)
        if tok.kind is TokenKind.IDENT and tok.text in LIBRARY_TYPES:
            self._ts.next()
            spec = TypeSpec(base=tok.text, const=const)
            if self._accept_op("<"):
                spec.args.append(self._parse_type())
                while self._accept_punct(","):
                    spec.args.append(self._parse_type())
                self._close_template()
            return spec
        raise self._error("expected a type")

    def _close_template(self) -> None:
        """Consume '>' — splitting a '>>' token if templates are nested."""
        tok = self._ts.peek()
        if tok.is_op(">"):
            self._ts.next()
            return
        if tok.is_op(">>"):
            self._ts.next()
            self._ts.push(Token(TokenKind.OPERATOR, ">", tok.line, tok.column + 1))
            return
        raise self._error("expected '>' closing template arguments")

    # ------------------------------------------------------------------
    # declarations & functions
    # ------------------------------------------------------------------
    def _parse_var_decl_rest(self, decl_type: TypeSpec, first_name: str) -> VarDecl:
        decl = VarDecl(type=decl_type)
        decl.declarators.append(self._parse_declarator(first_name))
        while self._accept_punct(","):
            name = self._ts.next()
            if name.kind is not TokenKind.IDENT:
                raise self._error("expected declarator name")
            decl.declarators.append(self._parse_declarator(name.text))
        self._expect_punct(";")
        return decl

    def _parse_declarator(self, name: str) -> Declarator:
        declarator = Declarator(name=name)
        while self._accept_punct("["):
            declarator.array_sizes.append(self._parse_expression())
            self._expect_punct("]")
        if self._accept_op("="):
            declarator.init = self._parse_assignment()
        elif self._ts.peek().is_punct("("):
            # Constructor-style init: vector<int> v(n, 0);
            self._ts.next()
            args = []
            if not self._ts.peek().is_punct(")"):
                args.append(self._parse_assignment())
                while self._accept_punct(","):
                    args.append(self._parse_assignment())
            self._expect_punct(")")
            declarator.init = Call(name="__ctor__", args=args)
        return declarator

    def _parse_function_rest(self, return_type: TypeSpec, name: str) -> FunctionDef:
        self._expect_punct("(")
        params: list[Param] = []
        if not self._ts.peek().is_punct(")"):
            params.append(self._parse_param())
            while self._accept_punct(","):
                params.append(self._parse_param())
        self._expect_punct(")")
        body = self._parse_block()
        return FunctionDef(return_type=return_type, name=name,
                           params=params, body=body)

    def _parse_param(self) -> Param:
        ptype = self._parse_type()
        by_ref = self._accept_op("&")
        name = self._ts.next()
        if name.kind is not TokenKind.IDENT:
            raise self._error("expected parameter name")
        return Param(type=ptype, name=name.text, by_ref=by_ref)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> Block:
        self._expect_punct("{")
        block = Block()
        while not self._ts.peek().is_punct("}"):
            if self._ts.peek().kind is TokenKind.EOF:
                raise self._error("unterminated block")
            block.statements.append(self._parse_statement())
        self._ts.next()  # }
        return block

    def _parse_statement(self) -> Node:
        tok = self._ts.peek()
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("do"):
            return self._parse_do_while()
        if tok.is_keyword("return"):
            self._ts.next()
            value = None
            if not self._ts.peek().is_punct(";"):
                value = self._parse_expression()
            self._expect_punct(";")
            return Return(value=value)
        if tok.is_keyword("break"):
            self._ts.next()
            self._expect_punct(";")
            return Break()
        if tok.is_keyword("continue"):
            self._ts.next()
            self._expect_punct(";")
            return Continue()
        if tok.is_keyword("typedef"):
            self._parse_typedef()
            return Block()  # empty placeholder; typedefs carry no structure
        if tok.kind is TokenKind.IDENT and tok.text == "cin" \
                and self._ts.peek(1).is_op(">>"):
            return self._parse_cin()
        if tok.kind is TokenKind.IDENT and tok.text == "cout" \
                and self._ts.peek(1).is_op("<<"):
            return self._parse_cout()
        if self._starts_type():
            decl_type = self._parse_type()
            name = self._ts.next()
            if name.kind is not TokenKind.IDENT:
                raise self._error("expected variable name")
            return self._parse_var_decl_rest(decl_type, name.text)
        expr = self._parse_expression()
        self._expect_punct(";")
        return ExprStmt(expr=expr)

    def _parse_if(self) -> If:
        self._ts.next()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        orelse = None
        if self._ts.peek().is_keyword("else"):
            self._ts.next()
            orelse = self._parse_statement()
        return If(cond=cond, then=then, orelse=orelse)

    def _parse_for(self) -> For:
        self._ts.next()
        self._expect_punct("(")
        init: Node | None = None
        if not self._ts.peek().is_punct(";"):
            if self._starts_type():
                decl_type = self._parse_type()
                name = self._ts.next()
                decl = VarDecl(type=decl_type)
                decl.declarators.append(self._parse_declarator(name.text))
                while self._accept_punct(","):
                    nxt = self._ts.next()
                    decl.declarators.append(self._parse_declarator(nxt.text))
                self._expect_punct(";")
                init = decl
            else:
                init = ExprStmt(expr=self._parse_expression())
                self._expect_punct(";")
        else:
            self._ts.next()
        cond: Node | None = None
        if not self._ts.peek().is_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step: Node | None = None
        if not self._ts.peek().is_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return For(init=init, cond=cond, step=step, body=body)

    def _parse_while(self) -> While:
        self._ts.next()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        return While(cond=cond, body=self._parse_statement())

    def _parse_do_while(self) -> DoWhile:
        self._ts.next()
        body = self._parse_statement()
        if not self._ts.peek().is_keyword("while"):
            raise self._error("expected 'while' after do-body")
        self._ts.next()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        return DoWhile(body=body, cond=cond)

    def _parse_cin(self) -> IoRead:
        self._ts.next()  # cin
        node = IoRead()
        while self._accept_op(">>"):
            node.targets.append(self._parse_unary())
        self._expect_punct(";")
        return node

    def _parse_cout(self) -> IoWrite:
        self._ts.next()  # cout
        node = IoWrite()
        while self._accept_op("<<"):
            # Shift expressions never appear inside cout chains in the
            # corpus, so parse at additive precedence to stop at '<<'.
            node.values.append(self._parse_binary(_ADDITIVE))
        self._expect_punct(";")
        return node

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expression(self) -> Node:
        return self._parse_assignment()

    def _parse_assignment(self) -> Node:
        left = self._parse_ternary()
        tok = self._ts.peek()
        if tok.kind is TokenKind.OPERATOR and tok.text in ASSIGN_OP_NAMES:
            op = self._ts.next().text
            value = self._parse_assignment()
            return Assign(op=op, target=left, value=value)
        return left

    def _parse_ternary(self) -> Node:
        cond = self._parse_binary()
        if self._accept_punct("?"):
            then = self._parse_assignment()
            self._expect_punct(":")
            orelse = self._parse_assignment()
            return Ternary(cond=cond, then=then, orelse=orelse)
        return cond

    def _parse_binary(self, min_precedence: int = 1) -> Node:
        """Left-associative binary operators by precedence climbing.

        One loop over ``_BINARY_PRECEDENCE`` replaces a cascade of
        one method per level, so each nested parenthesis costs a fixed
        handful of Python frames, not one per precedence level.
        """
        left = self._parse_unary()
        while True:
            tok = self._ts.peek()
            precedence = (_BINARY_PRECEDENCE.get(tok.text, 0)
                          if tok.kind is TokenKind.OPERATOR else 0)
            if precedence < min_precedence:
                return left
            self._ts.next()
            right = self._parse_binary(precedence + 1)
            left = BinaryOp(op=tok.text, left=left, right=right)

    def _parse_unary(self) -> Node:
        tok = self._ts.peek()
        if tok.is_op("-", "!", "~", "+"):
            op = self._ts.next().text
            return UnaryOp(op=op, operand=self._parse_unary())
        if tok.is_op("++", "--"):
            op = self._ts.next().text
            return UnaryOp(op=op, operand=self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Node:
        node = self._parse_primary()
        while True:
            tok = self._ts.peek()
            if tok.is_punct("["):
                self._ts.next()
                index = self._parse_expression()
                self._expect_punct("]")
                node = Index(obj=node, index=index)
            elif tok.is_punct("."):
                self._ts.next()
                name = self._ts.next()
                if name.kind is not TokenKind.IDENT:
                    raise self._error("expected member name after '.'")
                if self._ts.peek().is_punct("("):
                    args = self._parse_call_args()
                    node = MethodCall(obj=node, method=name.text, args=args)
                else:
                    node = Member(obj=node, field_name=name.text)
            elif tok.is_op("++", "--"):
                op = self._ts.next().text
                node = PostfixOp(op=op, operand=node)
            else:
                return node

    def _parse_call_args(self) -> list[Node]:
        self._expect_punct("(")
        args: list[Node] = []
        if not self._ts.peek().is_punct(")"):
            args.append(self._parse_assignment())
            while self._accept_punct(","):
                args.append(self._parse_assignment())
        self._expect_punct(")")
        return args

    def _parse_primary(self) -> Node:
        tok = self._ts.peek()
        if tok.is_punct("("):
            self._ts.next()
            # C-style cast: (int)(x), (long long)x ...
            if self._starts_type():
                cast_type = self._parse_type()
                self._expect_punct(")")
                operand = self._parse_unary()
                return Call(name=f"__cast_{cast_type.base.replace(' ', '_')}__",
                            args=[operand])
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if tok.kind is TokenKind.INT_LIT:
            self._ts.next()
            text = tok.text.rstrip("uUlL")
            value = int(text, 16) if text.lower().startswith("0x") else int(text)
            return IntLit(value=value)
        if tok.kind is TokenKind.FLOAT_LIT:
            self._ts.next()
            return FloatLit(value=float(tok.text.rstrip("fF")))
        if tok.kind is TokenKind.CHAR_LIT:
            self._ts.next()
            return CharLit(value=_unescape(tok.text[1:-1]))
        if tok.kind is TokenKind.STRING_LIT:
            self._ts.next()
            return StringLit(value=_unescape(tok.text[1:-1]))
        if tok.is_keyword("true"):
            self._ts.next()
            return BoolLit(value=True)
        if tok.is_keyword("false"):
            self._ts.next()
            return BoolLit(value=False)
        if tok.kind is TokenKind.IDENT and tok.text in LIBRARY_TYPES \
                and self._ts.peek(1).is_op("<"):
            # Temporary construction: vector<long long>(n, 0)
            ctor_type = self._parse_type()
            args = self._parse_call_args()
            return Construct(type=ctor_type, args=args)
        if tok.kind is TokenKind.IDENT:
            self._ts.next()
            if self._ts.peek().is_punct("("):
                args = self._parse_call_args()
                return Call(name=tok.text, args=args)
            return Ident(name=tok.text)
        raise self._error("expected an expression")


def _unescape(text: str) -> str:
    out = []
    i = 0
    escapes = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
               "\\": "\\", "'": "'", '"': '"'}
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            out.append(escapes.get(text[i + 1], text[i + 1]))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)
