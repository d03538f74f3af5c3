"""Tree-walking interpreter for the C++ subset: the test-only reference.

This is the judge's original execution path, kept verbatim (imports
aside) so the equivalence suite can hold the compiled interpreter in
``repro.judge.interp`` to identical results. Do not optimize it.


Executes a parsed :class:`~repro.lang.cpp_ast.TranslationUnit` against a
test-case input, producing the program's stdout, the accumulated cycle
cost (see :mod:`repro.judge.cost`) and a peak-memory estimate. This is
the reproduction's substitute for actually compiling and running
submissions on the Codeforces judge: the *relative* costs of different
algorithms are preserved, which is all the comparative labels need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.lang.cpp_ast import (
    Assign, BinaryOp, Block, BoolLit, Break, Call, CharLit, Construct,
    Continue, Declarator, DoWhile, ExprStmt, FloatLit, For, FunctionDef,
    Ident, If, Index, IntLit, IoRead, IoWrite, Member, MethodCall, Node,
    PostfixOp, Return, StringLit, Ternary, TranslationUnit, TypeSpec,
    UnaryOp, VarDecl, While,
)
from repro.judge.cost import CostModel
from repro.judge.errors import InputExhausted, RuntimeFault, TimeLimitExceeded
from repro.judge.values import (
    Cell, IterRef, MapVal, NUMERIC_BASES, PairVal, PriorityQueueVal,
    QueueVal, SetVal, StackVal, VectorVal, container_size, copy_value,
    deep_element_count, default_value, truthy,
)

__all__ = ["Interpreter", "ExecutionResult"]

_INT_BASES = NUMERIC_BASES - {"double", "float", "long double"}
_CONTAINERS = (VectorVal, MapVal, SetVal, QueueVal, StackVal,
               PriorityQueueVal)
_COMPOSITES = _CONTAINERS + (PairVal,)


@dataclass
class ExecutionResult:
    stdout: str
    cycles: int
    peak_elements: int

    @property
    def peak_memory_kb(self) -> int:
        """Rough KB estimate: 8 bytes per tracked element + 64 KB base."""
        return 64 + (self.peak_elements * 8) // 1024


def _check_shift(op: str, count: int) -> None:
    if op in ("<<", ">>") and not 0 <= count < 64:
        raise RuntimeFault(f"shift count {count} outside [0, 64)")


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class _Scope:
    cells: dict[str, Cell] = field(default_factory=dict)


class Interpreter:
    """Executes one program. Create a fresh instance per run."""

    def __init__(self, unit: TranslationUnit, cost_model: CostModel | None = None,
                 max_cycles: int = 50_000_000, memory_probe_interval: int = 2048):
        self.unit = unit
        self.cost = cost_model or CostModel()
        self.max_cycles = max_cycles
        self.cycles = 0
        self.peak_elements = 0
        self._probe_interval = memory_probe_interval
        self._ops_since_probe = 0
        self.functions: dict[str, FunctionDef] = {
            f.name: f for f in unit.functions
        }
        self._globals = _Scope()
        self._scopes: list[list[_Scope]] = []  # one stack of scopes per frame
        self._input_tokens: list[str] = []
        self._input_pos = 0
        self._raw_input = ""
        self._out: list[str] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, stdin_text: str = "") -> ExecutionResult:
        import sys

        if sys.getrecursionlimit() < 60_000:
            # Interpreted recursion multiplies Python frames; submissions
            # recurse to a few thousand levels (DFS on trees/DAGs).
            sys.setrecursionlimit(60_000)
        if "main" not in self.functions:
            raise RuntimeFault("program has no main() function")
        self._raw_input = stdin_text
        self._input_tokens = stdin_text.split()
        self._input_pos = 0
        self._out = []
        for decl in self.unit.globals:
            self._exec_var_decl(decl, self._globals)
        try:
            self._call_function(self.functions["main"], [])
        except _ReturnSignal:
            pass
        except _BreakSignal:
            raise RuntimeFault("break outside a loop") from None
        except _ContinueSignal:
            raise RuntimeFault("continue outside a loop") from None
        return ExecutionResult(stdout="".join(self._out), cycles=self.cycles,
                               peak_elements=self.peak_elements)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _charge(self, cycles: int) -> None:
        self.cycles += cycles
        if self.cycles > self.max_cycles:
            raise TimeLimitExceeded(self.cycles)

    def _track_memory(self) -> None:
        """Periodically estimate live elements (full scans are costly)."""
        self._ops_since_probe += 1
        if self._ops_since_probe < self._probe_interval:
            return
        self._ops_since_probe = 0
        total = 0
        for cell in self._globals.cells.values():
            total += deep_element_count(cell.value)
        for frame in self._scopes:
            for scope in frame:
                for cell in scope.cells.values():
                    total += deep_element_count(cell.value)
        if total > self.peak_elements:
            self.peak_elements = total

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> Cell:
        if self._scopes:
            for scope in reversed(self._scopes[-1]):
                cell = scope.cells.get(name)
                if cell is not None:
                    return cell
        cell = self._globals.cells.get(name)
        if cell is not None:
            return cell
        raise RuntimeFault(f"undefined variable {name!r}")

    def _declare(self, name: str, cell: Cell) -> None:
        scope = self._scopes[-1][-1] if self._scopes else self._globals
        scope.cells[name] = cell

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------
    def _call_function(self, fn: FunctionDef, args: list):
        self._charge(self.cost.call_overhead)
        if len(self._scopes) > 4000:
            raise RuntimeFault("stack overflow: recursion too deep")
        if len(args) != len(fn.params):
            raise RuntimeFault(
                f"{fn.name}() expects {len(fn.params)} args, got {len(args)}")
        frame = [_Scope()]
        for param, arg in zip(fn.params, args):
            if param.by_ref:
                if not isinstance(arg, Cell):
                    raise RuntimeFault(
                        f"reference parameter {param.name!r} needs an lvalue")
                frame[0].cells[param.name] = arg
            else:
                value = arg.value if isinstance(arg, Cell) else arg
                elements = container_size(value)
                if elements:
                    self._charge(self.cost.copy_cost(elements))
                frame[0].cells[param.name] = Cell(copy_value(value), param.type)
        self._scopes.append(frame)
        try:
            self._exec_stmt(fn.body)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self._scopes.pop()
        return default_value(fn.return_type) if fn.return_type.base != "void" else None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec_stmt(self, node: Node) -> None:
        self._charge(self.cost.statement)
        self._track_memory()
        if isinstance(node, Block):
            self._scopes[-1].append(_Scope())
            try:
                for stmt in node.statements:
                    self._exec_stmt(stmt)
            finally:
                self._scopes[-1].pop()
        elif isinstance(node, VarDecl):
            self._exec_var_decl(node, None)
        elif isinstance(node, ExprStmt):
            self._eval(node.expr)
        elif isinstance(node, If):
            self._charge(self.cost.branch)
            if truthy(self._eval(node.cond)):
                self._exec_stmt(node.then)
            elif node.orelse is not None:
                self._exec_stmt(node.orelse)
        elif isinstance(node, For):
            self._scopes[-1].append(_Scope())
            try:
                if node.init is not None:
                    self._exec_stmt(node.init)
                while node.cond is None or truthy(self._eval(node.cond)):
                    self._charge(self.cost.loop_iteration)
                    try:
                        self._exec_stmt(node.body)
                    except _ContinueSignal:
                        pass
                    except _BreakSignal:
                        break
                    if node.step is not None:
                        self._eval(node.step)
            finally:
                self._scopes[-1].pop()
        elif isinstance(node, While):
            while truthy(self._eval(node.cond)):
                self._charge(self.cost.loop_iteration)
                try:
                    self._exec_stmt(node.body)
                except _ContinueSignal:
                    continue
                except _BreakSignal:
                    break
        elif isinstance(node, DoWhile):
            while True:
                self._charge(self.cost.loop_iteration)
                try:
                    self._exec_stmt(node.body)
                except _ContinueSignal:
                    pass
                except _BreakSignal:
                    break
                if not truthy(self._eval(node.cond)):
                    break
        elif isinstance(node, Return):
            value = self._eval(node.value) if node.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(node, Break):
            raise _BreakSignal()
        elif isinstance(node, Continue):
            raise _ContinueSignal()
        elif isinstance(node, IoRead):
            for target in node.targets:
                self._charge(self.cost.io_token)
                self._read_into(target)
        elif isinstance(node, IoWrite):
            for value_node in node.values:
                self._charge(self.cost.io_token)
                self._write(self._eval(value_node))
        else:
            raise RuntimeFault(f"cannot execute node {type(node).__name__}")

    def _exec_var_decl(self, decl: VarDecl, scope: _Scope | None) -> None:
        for declarator in decl.declarators:
            value = self._initial_value(decl.type, declarator)
            cell = Cell(value, decl.type)
            if scope is not None:
                scope.cells[declarator.name] = cell
            else:
                self._declare(declarator.name, cell)

    def _initial_value(self, type_spec: TypeSpec, declarator: Declarator):
        if declarator.array_sizes:
            # int a[N][M] -> nested vectors, zero-initialized (globals in
            # C++ are zeroed; contest code relies on that).
            sizes = [self._as_int(self._eval(s)) for s in declarator.array_sizes]

            def build(dims: list[int]):
                if not dims:
                    return default_value(type_spec)
                self._charge(self.cost.copy_cost(dims[0]))
                return VectorVal([build(dims[1:]) for _ in range(dims[0])],
                                 elem_type=type_spec)

            return build(sizes)
        init = declarator.init
        if init is None:
            return default_value(type_spec)
        if isinstance(init, Call) and init.name == "__ctor__":
            args = [self._eval(a) for a in init.args]
            return self._construct(type_spec, args)
        value = self._eval(init)
        elements = container_size(value)
        if elements:
            self._charge(self.cost.copy_cost(elements))
        return self._coerce(copy_value(value), type_spec)

    def _construct(self, type_spec: TypeSpec, args: list):
        base = type_spec.base
        if base == "vector":
            elem = type_spec.args[0] if type_spec.args else TypeSpec(base="int")
            if not args:
                return VectorVal(elem_type=elem)
            count = self._as_int(args[0])
            fill = args[1] if len(args) > 1 else default_value(elem)
            self._charge(self.cost.copy_cost(count))
            return VectorVal([copy_value(fill) for _ in range(count)],
                             elem_type=elem)
        if base == "string":
            if len(args) == 2:
                count = self._as_int(args[0])
                self._charge(self.cost.copy_cost(count))
                return str(args[1]) * count
            if len(args) == 1:
                return str(args[0])
            return ""
        if not args:
            return default_value(type_spec)
        raise RuntimeFault(f"unsupported constructor for {type_spec}")

    @staticmethod
    def _coerce(value, type_spec: TypeSpec):
        base = type_spec.base
        if base in _INT_BASES and isinstance(value, float):
            return int(value)
        if base in ("double", "float", "long double") and isinstance(value, int):
            return float(value)
        return value

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------
    def _next_token(self) -> str:
        if self._input_pos >= len(self._input_tokens):
            raise InputExhausted("cin read past end of input")
        token = self._input_tokens[self._input_pos]
        self._input_pos += 1
        return token

    def _read_into(self, target: Node) -> None:
        cell_like = self._resolve_lvalue(target)
        declared = self._lvalue_type(target)
        token_kind = declared.base if declared is not None else None
        if token_kind in ("double", "float", "long double"):
            value: object = self._parse_token(float)
        elif token_kind == "char":
            token = self._next_token()
            value = token[0]
        elif token_kind == "string":
            value = self._next_token()
        else:
            value = self._parse_token(int)
        self._store_lvalue(cell_like, value)

    def _parse_token(self, kind: type):
        token = self._next_token()
        try:
            return kind(token)
        except ValueError:
            raise RuntimeFault(
                f"cin expected {kind.__name__}, got {token!r}") from None

    def _write(self, value) -> None:
        if isinstance(value, float):
            if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
                self._out.append(f"{value:.6f}")
            else:
                self._out.append(f"{value:.6f}")
        elif isinstance(value, bool):
            self._out.append("1" if value else "0")
        else:
            self._out.append(str(value))

    # ------------------------------------------------------------------
    # lvalues
    # ------------------------------------------------------------------
    def _resolve_lvalue(self, node: Node):
        """Return a writable location: Cell, (vector, index), or
        (pair, field) / (map, key)."""
        if isinstance(node, Ident):
            return self._lookup(node.name)
        if isinstance(node, Index):
            obj = self._eval_lvalue_container(node.obj)
            key = self._eval(node.index)
            self._charge(self.cost.index)
            if isinstance(obj, VectorVal):
                return (obj, self._as_int(key))
            if isinstance(obj, MapVal):
                self._charge(self.cost.tree_op(len(obj)) if obj.ordered
                             else self.cost.hash_op)
                return (obj, self._hashable(key))
            raise RuntimeFault(f"cannot index into {type(obj).__name__}")
        if isinstance(node, Member):
            obj = self._eval_lvalue_container(node.obj)
            if isinstance(obj, PairVal) and node.field_name in ("first", "second"):
                self._charge(self.cost.member)
                return (obj, node.field_name)
            raise RuntimeFault(f"no assignable member {node.field_name!r}")
        raise RuntimeFault(f"{type(node).__name__} is not an lvalue")

    def _eval_lvalue_container(self, node: Node):
        """Evaluate the container part of an lvalue *without* copying."""
        if isinstance(node, Ident):
            return self._lookup(node.name).value
        if isinstance(node, Index):
            loc = self._resolve_lvalue(node)
            return self._load_location(loc)
        if isinstance(node, Member):
            loc = self._resolve_lvalue(node)
            return self._load_location(loc)
        return self._eval(node)

    def _load_location(self, loc):
        if isinstance(loc, Cell):
            return loc.value
        obj, key = loc
        if isinstance(obj, VectorVal):
            return obj.at(key)
        if isinstance(obj, MapVal):
            if key not in obj.entries:
                obj.entries[key] = default_value(obj.value_type)
            return obj.entries[key]
        if isinstance(obj, PairVal):
            return getattr(obj, key)
        raise RuntimeFault("bad location")

    def _store_lvalue(self, loc, value) -> None:
        self._charge(self.cost.assign)
        elements = container_size(value)
        if elements:
            self._charge(self.cost.copy_cost(elements))
            value = copy_value(value)
        if isinstance(loc, Cell):
            loc.value = self._coerce(value, loc.type)
            return
        obj, key = loc
        if isinstance(obj, VectorVal):
            obj.set(key, value)
        elif isinstance(obj, MapVal):
            obj.entries[key] = value
        elif isinstance(obj, PairVal):
            setattr(obj, key, value)
        else:
            raise RuntimeFault("bad store location")

    def _lvalue_type(self, node: Node) -> TypeSpec | None:
        if isinstance(node, Ident):
            return self._lookup(node.name).type
        if isinstance(node, Index):
            inner = self._lvalue_type(node.obj)
            if inner is not None and inner.base == "vector" and inner.args:
                return inner.args[0]
            if inner is not None and inner.base in ("map", "unordered_map") \
                    and len(inner.args) > 1:
                return inner.args[1]
            if inner is not None and inner.base == "string":
                return TypeSpec(base="char")
            return None
        if isinstance(node, Member):
            inner = self._lvalue_type(node.obj)
            if inner is not None and inner.base == "pair" and len(inner.args) == 2:
                return inner.args[0] if node.field_name == "first" else inner.args[1]
            return None
        return None

    @classmethod
    def _hashable(cls, key):
        """Keys by value: pairs and vectors as tuples, recursively."""
        if isinstance(key, PairVal):
            return (cls._hashable(key.first), cls._hashable(key.second))
        if isinstance(key, VectorVal):
            return tuple(cls._hashable(item) for item in key.items)
        return key

    @staticmethod
    def _as_int(value) -> int:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value)
        if isinstance(value, str) and len(value) == 1:
            return ord(value)
        raise RuntimeFault(f"expected integer, got {type(value).__name__}")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval(self, node: Node):
        if isinstance(node, IntLit):
            return node.value
        if isinstance(node, FloatLit):
            return node.value
        if isinstance(node, BoolLit):
            return 1 if node.value else 0
        if isinstance(node, CharLit):
            return node.value
        if isinstance(node, StringLit):
            return node.value
        if isinstance(node, Ident):
            if node.name == "endl":
                return "\n"
            return self._lookup(node.name).value
        if isinstance(node, BinaryOp):
            return self._eval_binop(node)
        if isinstance(node, UnaryOp):
            return self._eval_unary(node)
        if isinstance(node, PostfixOp):
            return self._eval_postfix(node)
        if isinstance(node, Assign):
            return self._eval_assign(node)
        if isinstance(node, Ternary):
            self._charge(self.cost.branch)
            if truthy(self._eval(node.cond)):
                return self._eval(node.then)
            return self._eval(node.orelse)
        if isinstance(node, Index):
            loc = self._resolve_lvalue(node)
            obj, key = loc
            if isinstance(obj, VectorVal):
                return obj.at(key)
            return self._load_location(loc)
        if isinstance(node, Member):
            obj = self._eval_lvalue_container(node.obj)
            self._charge(self.cost.member)
            if isinstance(obj, PairVal):
                return getattr(obj, node.field_name)
            raise RuntimeFault(f"no member {node.field_name!r}")
        if isinstance(node, MethodCall):
            return self._eval_method(node)
        if isinstance(node, Call):
            return self._eval_call(node)
        if isinstance(node, Construct):
            args = [self._eval(a) for a in node.args]
            return self._construct(node.type, args)
        raise RuntimeFault(f"cannot evaluate node {type(node).__name__}")

    # -- operators ------------------------------------------------------
    def _eval_binop(self, node: BinaryOp):
        op = node.op
        if op == "&&":
            self._charge(self.cost.logical)
            return 1 if truthy(self._eval(node.left)) and \
                truthy(self._eval(node.right)) else 0
        if op == "||":
            self._charge(self.cost.logical)
            return 1 if truthy(self._eval(node.left)) or \
                truthy(self._eval(node.right)) else 0
        left = self._eval(node.left)
        right = self._eval(node.right)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            self._charge(self.cost.compare)
            if isinstance(left, _COMPOSITES) or isinstance(right, _COMPOSITES):
                if op in ("==", "!="):
                    equal = self._values_equal(left, right)
                    return 1 if equal == (op == "==") else 0
                order = self._value_order(left, right)
                return 1 if {"<": order < 0, ">": order > 0,
                             "<=": order <= 0, ">=": order >= 0}[op] else 0
            result = {
                "==": left == right, "!=": left != right,
                "<": left < right, ">": left > right,
                "<=": left <= right, ">=": left >= right,
            }[op]
            return 1 if result else 0
        if op == "+" and isinstance(left, str) and isinstance(right, str) \
                and (len(left) != 1 or len(right) != 1):
            # String concatenation; two single-char operands fall through
            # to numeric addition ('a' + 'b' is an int in C++).
            self._charge(self.cost.string_per_char * (len(left) + len(right) + 1))
            return left + right
        left_num = self._numeric(left)
        right_num = self._numeric(right)
        is_float = isinstance(left_num, float) or isinstance(right_num, float)
        if op in ("+", "-", "*"):
            self._charge(self.cost.float_arith if is_float else self.cost.int_arith)
            return {"+": left_num + right_num, "-": left_num - right_num,
                    "*": left_num * right_num}[op]
        if op == "/":
            self._charge(self.cost.int_divmod)
            if is_float:
                if right_num == 0:
                    raise RuntimeFault("division by zero")
                return left_num / right_num
            if right_num == 0:
                raise RuntimeFault("division by zero")
            quotient = abs(left_num) // abs(right_num)
            return quotient if (left_num >= 0) == (right_num >= 0) else -quotient
        if op == "%":
            self._charge(self.cost.int_divmod)
            if right_num == 0:
                raise RuntimeFault("modulo by zero")
            remainder = abs(left_num) % abs(right_num)
            return remainder if left_num >= 0 else -remainder
        if op in ("&", "|", "^", "<<", ">>"):
            self._charge(self.cost.int_arith)
            li, ri = int(left_num), int(right_num)
            _check_shift(op, ri)
            return {"&": li & ri, "|": li | ri, "^": li ^ ri,
                    "<<": li << ri, ">>": li >> ri}[op]
        raise RuntimeFault(f"unsupported binary operator {op!r}")

    @staticmethod
    def _mismatch(left, right):
        return RuntimeFault(f"cannot compare {type(left).__name__} "
                            f"with {type(right).__name__}")

    @classmethod
    def _vector_items(cls, left, right):
        if not isinstance(left, VectorVal) or not isinstance(right, VectorVal):
            raise cls._mismatch(left, right)
        return left.items, right.items

    @classmethod
    def _pair_members(cls, left, right):
        if not isinstance(left, PairVal) or not isinstance(right, PairVal):
            raise cls._mismatch(left, right)
        return [(left.first, right.first), (left.second, right.second)]

    def _values_equal(self, left, right) -> bool:
        """C++ ==: pairs member by member; vectors by size, then each
        element pair in order; anything else directly."""
        if isinstance(left, PairVal) or isinstance(right, PairVal):
            return all(self._values_equal(a, b)
                       for a, b in self._pair_members(left, right))
        if isinstance(left, _CONTAINERS) or isinstance(right, _CONTAINERS):
            a_items, b_items = self._vector_items(left, right)
            if len(a_items) != len(b_items):
                return False
            for a, b in zip(a_items, b_items):
                self._charge(self.cost.compare)
                if not self._values_equal(a, b):
                    return False
            return True
        return left == right

    def _value_order(self, left, right) -> int:
        """Three-way comparison: pairs member by member, vectors
        lexicographically, anything else directly."""
        if isinstance(left, PairVal) or isinstance(right, PairVal):
            for a, b in self._pair_members(left, right):
                order = self._value_order(a, b)
                if order:
                    return order
            return 0
        if isinstance(left, _CONTAINERS) or isinstance(right, _CONTAINERS):
            a_items, b_items = self._vector_items(left, right)
            for a, b in zip(a_items, b_items):
                self._charge(self.cost.compare)
                order = self._value_order(a, b)
                if order:
                    return order
            a_len, b_len = len(a_items), len(b_items)
            return (a_len > b_len) - (a_len < b_len)
        return (left > right) - (left < right)

    def _numeric(self, value):
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, str) and len(value) == 1:
            return ord(value)
        raise RuntimeFault(f"expected a number, got {type(value).__name__}")

    def _eval_unary(self, node: UnaryOp):
        if node.op in ("++", "--"):
            loc = self._resolve_lvalue(node.operand)
            current = self._numeric(self._load_location(loc))
            self._charge(self.cost.int_arith)
            updated = current + (1 if node.op == "++" else -1)
            self._store_lvalue(loc, updated)
            return updated
        value = self._eval(node.operand)
        self._charge(self.cost.int_arith)
        if node.op == "-":
            return -self._numeric(value)
        if node.op == "+":
            return self._numeric(value)
        if node.op == "!":
            return 0 if truthy(value) else 1
        if node.op == "~":
            return ~self._as_int(value)
        raise RuntimeFault(f"unsupported unary operator {node.op!r}")

    def _eval_postfix(self, node: PostfixOp):
        loc = self._resolve_lvalue(node.operand)
        current = self._numeric(self._load_location(loc))
        self._charge(self.cost.int_arith)
        updated = current + (1 if node.op == "++" else -1)
        self._store_lvalue(loc, updated)
        return current

    def _eval_assign(self, node: Assign):
        if node.op == "=":
            value = self._eval(node.value)
            loc = self._resolve_lvalue(node.target)
            self._store_lvalue(loc, value)
            return value
        loc = self._resolve_lvalue(node.target)
        current = self._load_location(loc)
        operand = self._eval(node.value)
        value = self._apply_compound(node.op[:-1], current, operand)
        self._store_lvalue(loc, value)
        return value

    def _apply_compound(self, op: str, current, operand):
        if op == "+" and isinstance(current, str) and isinstance(operand, str):
            self._charge(self.cost.string_per_char * (len(operand) + 1))
            return current + operand
        left = self._numeric(current)
        right = self._numeric(operand)
        is_float = isinstance(left, float) or isinstance(right, float)
        self._charge(self.cost.float_arith if is_float else self.cost.int_arith)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            self._charge(self.cost.int_divmod)
            if right == 0:
                raise RuntimeFault("division by zero")
            if is_float:
                return left / right
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        if op == "%":
            self._charge(self.cost.int_divmod)
            if right == 0:
                raise RuntimeFault("modulo by zero")
            remainder = abs(left) % abs(right)
            return remainder if left >= 0 else -remainder
        if op in ("&", "|", "^", "<<", ">>"):
            li, ri = int(left), int(right)
            _check_shift(op, ri)
            return {"&": li & ri, "|": li | ri, "^": li ^ ri,
                    "<<": li << ri, ">>": li >> ri}[op]
        raise RuntimeFault(f"unsupported compound operator {op}=")

    # -- method calls -----------------------------------------------------
    def _eval_method(self, node: MethodCall):
        self._charge(self.cost.method_overhead)
        obj = self._eval_lvalue_container(node.obj)
        args = [self._eval(a) for a in node.args]
        method = node.method
        if isinstance(obj, VectorVal):
            return self._vector_method(obj, method, args)
        if isinstance(obj, str):
            return self._string_method(node, obj, method, args)
        if isinstance(obj, MapVal):
            return self._map_method(obj, method, args)
        if isinstance(obj, SetVal):
            return self._set_method(obj, method, args)
        if isinstance(obj, (QueueVal, StackVal, PriorityQueueVal)):
            return self._adapter_method(obj, method, args)
        if isinstance(obj, PairVal) and method in ("first", "second"):
            return getattr(obj, method)
        raise RuntimeFault(
            f"no method {method!r} on {type(obj).__name__}")

    @staticmethod
    def _by_value(value):
        """A pushed pair or container is stored as a copy (empty ones
        too); only ``push_back`` charges for it."""
        return copy_value(value) if isinstance(value, _COMPOSITES) else value

    def _vector_method(self, vec: VectorVal, method: str, args: list):
        if method in ("push_back", "emplace_back"):
            self._charge(self.cost.push_amortized)
            value = args[0]
            if container_size(value):
                self._charge(self.cost.copy_cost(container_size(value)))
            vec.items.append(self._by_value(value))
            return None
        if method == "pop_back":
            self._charge(self.cost.pop)
            if not vec.items:
                raise RuntimeFault("pop_back on empty vector")
            vec.items.pop()
            return None
        if method == "size":
            return len(vec)
        if method == "empty":
            return 1 if not vec.items else 0
        if method == "clear":
            vec.items.clear()
            return None
        if method == "back":
            if not vec.items:
                raise RuntimeFault("back() on empty vector")
            return vec.items[-1]
        if method == "front":
            if not vec.items:
                raise RuntimeFault("front() on empty vector")
            return vec.items[0]
        if method == "begin":
            return IterRef(vec, 0)
        if method == "end":
            return IterRef(vec, len(vec))
        if method == "rbegin":
            return IterRef(vec, 0, reversed=True)
        if method == "rend":
            return IterRef(vec, len(vec), reversed=True)
        if method == "resize":
            new_size = self._as_int(args[0])
            fill = args[1] if len(args) > 1 else default_value(vec.elem_type)
            self._charge(self.cost.copy_cost(abs(new_size - len(vec))))
            while len(vec.items) < new_size:
                vec.items.append(copy_value(fill))
            del vec.items[new_size:]
            return None
        if method == "at":
            self._charge(self.cost.index)
            return vec.at(self._as_int(args[0]))
        raise RuntimeFault(f"unsupported vector method {method!r}")

    def _string_method(self, node: MethodCall, text: str, method: str, args: list):
        if method in ("size", "length"):
            return len(text)
        if method == "empty":
            return 1 if not text else 0
        if method == "substr":
            start = self._as_int(args[0])
            count = self._as_int(args[1]) if len(args) > 1 else len(text) - start
            self._charge(self.cost.string_per_char * max(1, count))
            return text[start:start + count]
        if method == "back":
            if not text:
                raise RuntimeFault("back() on empty string")
            return text[-1]
        if method == "front":
            if not text:
                raise RuntimeFault("front() on empty string")
            return text[0]
        if method == "push_back":
            loc = self._resolve_lvalue(node.obj)
            self._charge(self.cost.push_amortized)
            self._store_lvalue(loc, text + args[0])
            return None
        if method == "pop_back":
            loc = self._resolve_lvalue(node.obj)
            self._store_lvalue(loc, text[:-1])
            return None
        if method == "find":
            self._charge(self.cost.string_per_char * max(1, len(text)))
            needle = args[0]
            pos = text.find(needle)
            return pos if pos >= 0 else 10 ** 18  # string::npos stand-in
        if method == "begin":
            return IterRef(text, 0)
        if method == "end":
            return IterRef(text, len(text))
        raise RuntimeFault(f"unsupported string method {method!r}")

    def _map_method(self, mp: MapVal, method: str, args: list):
        cost = self.cost.tree_op(len(mp)) if mp.ordered else self.cost.hash_op
        if method == "count":
            self._charge(cost)
            return 1 if self._hashable(args[0]) in mp.entries else 0
        if method == "size":
            return len(mp)
        if method == "empty":
            return 1 if not mp.entries else 0
        if method == "clear":
            mp.entries.clear()
            return None
        if method == "erase":
            self._charge(cost)
            mp.entries.pop(self._hashable(args[0]), None)
            return None
        raise RuntimeFault(f"unsupported map method {method!r}")

    def _set_method(self, st: SetVal, method: str, args: list):
        cost = self.cost.tree_op(len(st)) if st.ordered else self.cost.hash_op
        if method == "insert":
            self._charge(cost)
            key = self._hashable(args[0])
            if st.multi:
                st.items[key] = st.items.get(key, 0) + 1
            else:
                st.items[key] = 1
            return None
        if method == "count":
            self._charge(cost)
            return st.items.get(self._hashable(args[0]), 0)
        if method == "erase":
            self._charge(cost)
            key = self._hashable(args[0])
            if key in st.items:
                if st.multi and st.items[key] > 1:
                    st.items[key] -= 1
                else:
                    del st.items[key]
            return None
        if method == "size":
            return len(st)
        if method == "empty":
            return 1 if len(st) == 0 else 0
        if method == "clear":
            st.items.clear()
            return None
        raise RuntimeFault(f"unsupported set method {method!r}")

    def _adapter_method(self, obj, method: str, args: list):
        if isinstance(obj, QueueVal):
            if method == "push":
                self._charge(self.cost.push_amortized)
                obj.items.append(self._by_value(args[0]))
                return None
            if method == "pop":
                self._charge(self.cost.pop)
                if not obj.items:
                    raise RuntimeFault("pop on empty queue")
                obj.items.popleft()
                return None
            if method == "front":
                if not obj.items:
                    raise RuntimeFault("front on empty queue")
                return obj.items[0]
            if method == "back":
                return obj.items[-1]
        if isinstance(obj, StackVal):
            if method == "push":
                self._charge(self.cost.push_amortized)
                obj.items.append(self._by_value(args[0]))
                return None
            if method == "pop":
                self._charge(self.cost.pop)
                if not obj.items:
                    raise RuntimeFault("pop on empty stack")
                obj.items.pop()
                return None
            if method == "top":
                if not obj.items:
                    raise RuntimeFault("top on empty stack")
                return obj.items[-1]
        if isinstance(obj, PriorityQueueVal):
            self._charge(self.cost.tree_op(len(obj)))
            if method == "push":
                obj.push(self._by_value(args[0]))
                return None
            if method == "pop":
                obj.pop()
                return None
            if method == "top":
                return obj.top()
        if method == "size":
            return len(obj)
        if method == "empty":
            return 1 if len(obj) == 0 else 0
        raise RuntimeFault(f"unsupported method {method!r} on "
                           f"{type(obj).__name__}")

    # -- free function calls -----------------------------------------------
    def _eval_call(self, node: Call):
        name = node.name
        if name in self.functions:
            args = []
            fn = self.functions[name]
            for param, arg_node in zip(fn.params, node.args):
                if param.by_ref:
                    args.append(self._ref_arg(arg_node))
                else:
                    args.append(self._eval(arg_node))
            if len(node.args) != len(fn.params):
                raise RuntimeFault(
                    f"{name}() expects {len(fn.params)} args, got {len(node.args)}")
            return self._call_function(fn, args)
        return self._eval_builtin(node)

    def _ref_arg(self, node: Node) -> Cell:
        if isinstance(node, Ident):
            return self._lookup(node.name)
        # References to elements (v[i]) are modelled with a temporary cell
        # view; mutation through them is not needed by the corpus.
        raise RuntimeFault("only plain variables may bind to references")

    def _eval_builtin(self, node: Call):
        name = node.name
        if name.startswith("__cast_"):
            value = self._eval(node.args[0])
            target = name[len("__cast_"):-2].replace("_", " ")
            self._charge(self.cost.int_arith)
            if target in ("double", "float", "long double"):
                return float(self._numeric(value))
            if target == "char":
                return chr(self._as_int(value))
            return int(self._numeric(value))
        args = [self._eval(a) for a in node.args]
        if name in ("max", "min"):
            self._charge(self.cost.compare)
            if len(args) == 2 and (isinstance(args[0], _COMPOSITES)
                                   or isinstance(args[1], _COMPOSITES)):
                # C++: max is (a < b) ? b : a, min is (b < a) ? b : a.
                a, b = args
                if name == "max":
                    return b if self._value_order(a, b) < 0 else a
                return b if self._value_order(b, a) < 0 else a
            return max(args) if name == "max" else min(args)
        if name == "abs" or name == "fabs" or name == "llabs":
            self._charge(self.cost.int_arith)
            return abs(args[0])
        if name == "sqrt" or name == "sqrtl":
            self._charge(self.cost.math_builtin)
            if args[0] < 0:
                raise RuntimeFault("sqrt of negative value")
            return math.sqrt(args[0])
        if name == "pow":
            self._charge(self.cost.math_builtin)
            return float(args[0]) ** float(args[1])
        if name == "floor":
            self._charge(self.cost.math_builtin)
            return float(math.floor(args[0]))
        if name == "ceil":
            self._charge(self.cost.math_builtin)
            return float(math.ceil(args[0]))
        if name == "round":
            self._charge(self.cost.math_builtin)
            return float(round(args[0]))
        if name == "log" or name == "log2" or name == "log10":
            self._charge(self.cost.math_builtin)
            fn = {"log": math.log, "log2": math.log2, "log10": math.log10}[name]
            return fn(args[0])
        if name in ("gcd", "__gcd"):
            self._charge(self.cost.math_builtin)
            return math.gcd(int(args[0]), int(args[1]))
        if name == "swap":
            if len(node.args) != 2:
                raise RuntimeFault("swap needs two arguments")
            loc_a = self._resolve_lvalue(node.args[0])
            loc_b = self._resolve_lvalue(node.args[1])
            a = self._load_location(loc_a)
            b = self._load_location(loc_b)
            self._store_lvalue(loc_a, b)
            self._store_lvalue(loc_b, a)
            return None
        if name == "sort":
            return self._builtin_sort(args)
        if name == "reverse":
            return self._builtin_reverse(args)
        if name == "to_string":
            self._charge(self.cost.string_per_char * 8)
            value = args[0]
            if isinstance(value, float):
                return f"{value:.6f}"
            return str(value)
        if name == "stoi" or name == "stoll":
            self._charge(self.cost.string_per_char * max(1, len(str(args[0]))))
            return int(args[0])
        if name == "isdigit":
            self._charge(self.cost.compare)
            ch = args[0]
            return 1 if isinstance(ch, str) and ch.isdigit() else 0
        if name == "isalpha":
            self._charge(self.cost.compare)
            ch = args[0]
            return 1 if isinstance(ch, str) and ch.isalpha() else 0
        if name == "tolower":
            self._charge(self.cost.int_arith)
            return args[0].lower() if isinstance(args[0], str) else args[0]
        if name == "toupper":
            self._charge(self.cost.int_arith)
            return args[0].upper() if isinstance(args[0], str) else args[0]
        raise RuntimeFault(f"unknown function {name!r}")

    def _sort_key(self, value):
        """Rows sort lexicographically, as std::vector orders them; the
        flat sort cost covers every comparison."""
        if isinstance(value, PairVal):
            return (self._sort_key(value.first), self._sort_key(value.second))
        if isinstance(value, VectorVal):
            return [self._sort_key(item) for item in value.items]
        if isinstance(value, _CONTAINERS):
            raise self._mismatch(value, value)
        return value

    def _builtin_sort(self, args: list):
        if len(args) != 2 or not isinstance(args[0], IterRef) \
                or not isinstance(args[1], IterRef):
            raise RuntimeFault("sort expects begin/end iterators")
        first, last = args
        if first.container is not last.container:
            raise RuntimeFault("sort iterators must reference one container")
        container = first.container
        if not isinstance(container, VectorVal):
            raise RuntimeFault("sort only supports vectors")
        lo, hi = first.position, last.position
        if first.reversed != last.reversed:
            raise RuntimeFault("mismatched iterator directions")
        segment_len = hi - lo
        self._charge(self.cost.sort_cost(max(0, segment_len)))
        if first.reversed:
            # sort(v.rbegin(), v.rend()) -> descending order
            items = sorted(container.items, key=self._sort_key, reverse=True)
            container.items[:] = items
        else:
            container.items[lo:hi] = sorted(container.items[lo:hi],
                                            key=self._sort_key)
        return None

    def _builtin_reverse(self, args: list):
        if len(args) != 2 or not isinstance(args[0], IterRef):
            raise RuntimeFault("reverse expects begin/end iterators")
        container = args[0].container
        if isinstance(container, VectorVal):
            self._charge(self.cost.copy_cost(len(container)))
            container.items.reverse()
            return None
        raise RuntimeFault("reverse only supports vectors")
