"""Compiler and runner for the C++ subset.

Executes a parsed :class:`~repro.lang.cpp_ast.TranslationUnit` against a
test-case input, producing the program's stdout, the accumulated cycle
cost (see :mod:`repro.judge.cost`) and a peak-memory estimate. This is
the reproduction's substitute for actually compiling and running
submissions on the Codeforces judge: the *relative* costs of different
algorithms are preserved, which is all the comparative labels need.

:func:`compile_program` turns every statement and expression of a
submission into a Python closure, once. Every local variable is resolved
to a slot of a per-call frame list at compile time, and the cost model's
charges are bound into the closures as constants. The compiled program
holds no run state, so one compilation serves every test case:
:class:`Interpreter` runs it on one input. ``docs/judge.md`` lists the
invariants that keep its results identical to the tree-walking
reference kept under ``tests/judge``.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from dataclasses import dataclass

from ..lang.cpp_ast import (
    Assign, BinaryOp, Block, BoolLit, Break, Call, CharLit, Construct,
    Continue, DoWhile, ExprStmt, FloatLit, For, FunctionDef, Ident, If,
    Index, IntLit, IoRead, IoWrite, Member, MethodCall, PostfixOp, Return,
    StringLit, Ternary, TranslationUnit, TypeSpec, UnaryOp, VarDecl, While,
)
from .cost import CostModel
from .errors import InputExhausted, RuntimeFault, TimeLimitExceeded
from .values import (
    CONTAINERS, Cell, IterRef, MapVal, NUMERIC_BASES, PairVal,
    PriorityQueueVal, QueueVal, SetVal, StackVal, VectorVal,
    container_size, copy_value, deep_element_count, default_value,
    sort_key, truthy,
)

__all__ = ["CompiledProgram", "ExecutionResult", "Interpreter",
           "compile_program"]

_FLOAT_BASES = frozenset({"double", "float", "long double"})
_INT_BASES = NUMERIC_BASES - _FLOAT_BASES
_CHAR_TYPE = TypeSpec(base="char")
_RELATIONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
              ">": operator.gt, "<=": operator.le, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_BITWISE = ("&", "|", "^", "<<", ">>")

#: Active frames beyond which a call faults with a stack overflow.
MAX_CALL_DEPTH = 4000
#: Python recursion limit while a program compiles or runs: interpreted
#: recursion multiplies Python frames, and submissions recurse to a few
#: thousand levels (DFS on trees/DAGs).
RECURSION_LIMIT = 60_000


@dataclass
class ExecutionResult:
    stdout: str
    cycles: int
    peak_elements: int

    @property
    def peak_memory_kb(self) -> int:
        """Rough KB estimate: 8 bytes per tracked element + 64 KB base."""
        return 64 + (self.peak_elements * 8) // 1024


class _RecursionLimit:
    """Raises the process's recursion limit while any program compiles
    or runs, and restores the caller's value when the last one ends."""

    def __init__(self, limit: int):
        self._limit = limit
        self._lock = threading.Lock()
        self._active = 0
        self._saved: int | None = None

    def __enter__(self) -> None:
        with self._lock:
            if self._active == 0:
                current = sys.getrecursionlimit()
                self._saved = current if current < self._limit else None
                if self._saved is not None:
                    sys.setrecursionlimit(self._limit)
            self._active += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._saved is not None:
                sys.setrecursionlimit(self._saved)
                self._saved = None


_deep_recursion = _RecursionLimit(RECURSION_LIMIT)


# ----------------------------------------------------------------------
# control flow
# ----------------------------------------------------------------------
#: Statuses a statement closure returns to leave its enclosing statements
#: early (``None`` means "fall through"); a return's value travels in
#: ``Interpreter.ret``.
_BREAK, _CONTINUE, _RETURN = object(), object(), object()


class _BreakSignal(Exception):
    """A ``break`` that reached the end of the function it ran in; the
    nearest loop of a caller catches it."""


class _ContinueSignal(Exception):
    """A ``continue`` that reached the end of the function it ran in."""


# ----------------------------------------------------------------------
# run state
# ----------------------------------------------------------------------
class Interpreter:
    """Runs one compiled program on one input.

    ``unit`` is a :class:`~repro.lang.cpp_ast.TranslationUnit` (compiled
    here with ``cost_model``) or a :class:`CompiledProgram`, which is
    how a caller runs several inputs from one compilation. Create a
    fresh instance per run: cycles, peak memory and globals carry over
    between runs of one instance.
    """

    __slots__ = ("program", "max_cycles", "cycles", "peak_elements",
                 "interval", "tick", "globals", "frames", "tokens", "pos",
                 "out", "ret")

    def __init__(self, unit, cost_model: CostModel | None = None,
                 max_cycles: int = 50_000_000,
                 memory_probe_interval: int = 2048):
        if isinstance(unit, CompiledProgram):
            if cost_model is not None and cost_model != unit.cost:
                raise ValueError("program was compiled for another cost "
                                 "model")
            self.program = unit
        else:
            self.program = compile_program(unit, cost_model)
        self.max_cycles = max_cycles
        self.cycles = 0
        self.peak_elements = 0
        self.interval = memory_probe_interval
        self.tick = memory_probe_interval     # statements to the next probe
        self.globals: dict[str, Cell] = {}
        self.frames: list[list] = []          # one slot list per active call
        self.tokens: list[str] = []
        self.pos = 0
        self.out: list[str] = []
        self.ret = None

    def run(self, stdin_text: str = "") -> ExecutionResult:
        program = self.program
        with _deep_recursion:
            main = program.functions.get("main")
            if main is None:
                raise RuntimeFault("program has no main() function")
            self.tokens = stdin_text.split()
            self.pos = 0
            self.out = []
            for declare in program.globals:
                declare(self)
            if main.params:
                _charge(self, program.cost.call_overhead)
                raise RuntimeFault(
                    f"main() expects {len(main.params)} args, got 0")
            try:
                main.enter(self, ())
            except _BreakSignal:
                raise RuntimeFault("break outside a loop") from None
            except _ContinueSignal:
                raise RuntimeFault("continue outside a loop") from None
        return ExecutionResult(stdout="".join(self.out), cycles=self.cycles,
                               peak_elements=self.peak_elements)


def _charge(st: Interpreter, cycles: int) -> None:
    st.cycles += cycles
    if st.cycles > st.max_cycles:
        raise TimeLimitExceeded(st.cycles)


def _probe(st: Interpreter) -> None:
    """Estimate live elements: globals plus every active frame's bound
    slots (a by-ref cell counts once per frame that binds it)."""
    st.tick = st.interval
    total = 0
    for cell in st.globals.values():
        total += deep_element_count(cell.value)
    for frame in st.frames:
        for cell in frame:
            if cell is not None:
                total += deep_element_count(cell.value)
    if total > st.peak_elements:
        st.peak_elements = total


def _next_token(st: Interpreter) -> str:
    if st.pos >= len(st.tokens):
        raise InputExhausted("cin read past end of input")
    token = st.tokens[st.pos]
    st.pos += 1
    return token


def _parse_token(st: Interpreter, kind: type):
    """The next token as an ``int`` or ``float``; a token that is not
    one is a fault (C++ would set the stream's failbit)."""
    token = _next_token(st)
    try:
        return kind(token)
    except ValueError:
        raise RuntimeFault(
            f"cin expected {kind.__name__}, got {token!r}") from None


def _write(st: Interpreter, value) -> None:
    if isinstance(value, float):
        st.out.append(f"{value:.6f}")
    elif isinstance(value, bool):
        st.out.append("1" if value else "0")
    else:
        st.out.append(str(value))


# ----------------------------------------------------------------------
# value helpers
# ----------------------------------------------------------------------
def _coerce(value, type_spec: TypeSpec):
    base = type_spec.base
    if base in _INT_BASES and isinstance(value, float):
        return int(value)
    if base in _FLOAT_BASES and isinstance(value, int):
        return float(value)
    return value


def _hashable(value):
    """A map or set key by value: a pair as a tuple and a vector as a
    tuple of its items, recursively, so equal keys are one key and keys
    order member-wise; else as is."""
    kind = type(value)
    if kind is PairVal:
        return (_hashable(value.first), _hashable(value.second))
    if kind is VectorVal:
        return tuple(_hashable(item) for item in value.items)
    return value


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


def _numeric(value):
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str) and len(value) == 1:
        return ord(value)
    raise RuntimeFault(f"expected a number, got {type(value).__name__}")


def _comparable(left, right):
    """Scalar operands as C++ compares them: a char against a number by
    its character code (integral promotion)."""
    if isinstance(left, str) and len(left) == 1 \
            and isinstance(right, (int, float)):
        return ord(left), right
    if isinstance(right, str) and len(right) == 1 \
            and isinstance(left, (int, float)):
        return left, ord(right)
    return left, right


#: Operand types a comparison takes apart: pairs and containers.
_COMPOSITES = CONTAINERS | {PairVal}


def _composite_relation(st, op: str, left, right, cost: int) -> bool:
    """``left op right`` with a pair or container operand. Two pairs
    compare member-wise, two vectors as ``std::vector`` does:
    ``==``/``!=`` element-wise after a size check, the orderings
    lexicographically. Each vector element pair examined, at any depth,
    is charged ``cost``; any other comparison of a pair or container
    faults."""
    if op in ("==", "!="):
        return _values_equal(st, left, right, cost) == (op == "==")
    return _RELATIONS[op](_value_order(st, left, right, cost), 0)


def _mismatch(left, right) -> RuntimeFault:
    return RuntimeFault(f"cannot compare {type(left).__name__} "
                        f"with {type(right).__name__}")


def _vector_items(left, right) -> tuple[list, list]:
    if type(left) is not VectorVal or type(right) is not VectorVal:
        raise _mismatch(left, right)
    return left.items, right.items


def _values_equal(st, left, right, cost: int) -> bool:
    if type(left) is PairVal or type(right) is PairVal:
        if type(left) is not type(right):
            raise _mismatch(left, right)
        return (_values_equal(st, left.first, right.first, cost)
                and _values_equal(st, left.second, right.second, cost))
    if type(left) in CONTAINERS or type(right) in CONTAINERS:
        a_items, b_items = _vector_items(left, right)
        if len(a_items) != len(b_items):
            return False
        for a, b in zip(a_items, b_items):
            _charge(st, cost)
            if not _values_equal(st, a, b, cost):
                return False
        return True
    left, right = _comparable(left, right)
    return left == right


def _value_order(st, left, right, cost: int) -> int:
    """-1, 0 or 1 as ``left`` sorts before, with or after ``right``."""
    if type(left) is PairVal or type(right) is PairVal:
        if type(left) is not type(right):
            raise _mismatch(left, right)
        return (_value_order(st, left.first, right.first, cost)
                or _value_order(st, left.second, right.second, cost))
    if type(left) in CONTAINERS or type(right) in CONTAINERS:
        a_items, b_items = _vector_items(left, right)
        for a, b in zip(a_items, b_items):
            _charge(st, cost)
            order = _value_order(st, a, b, cost)
            if order:
                return order
        return (len(a_items) > len(b_items)) - (len(a_items) < len(b_items))
    left, right = _comparable(left, right)
    return (left > right) - (left < right)


def _bitwise(op: str, left: int, right: int) -> int:
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if not 0 <= right < 64:
        # undefined in C++; Python raises ValueError below 0 and runs
        # out of memory on a huge count
        raise RuntimeFault(f"shift count {right} outside [0, 64)")
    if op == "<<":
        return left << right
    return left >> right


def _divide(left, right, is_float: bool):
    if right == 0:
        raise RuntimeFault("division by zero")
    if is_float:
        return left / right
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def _modulo(left, right):
    if right == 0:
        raise RuntimeFault("modulo by zero")
    remainder = abs(left) % abs(right)
    return remainder if left >= 0 else -remainder


def _vector_at(vec: VectorVal, key):
    """``vec[key]`` after the index charge (``key`` not yet an int)."""
    if type(key) is not int:
        key = _as_int(key)
    items = vec.items
    if 0 <= key < len(items):
        return items[key]
    return vec.at(key)                      # raises the range fault


# ----------------------------------------------------------------------
# the library: cost-bound helpers shared by every run of one program
# ----------------------------------------------------------------------
class _Runtime:
    """Loads, stores, construction, STL methods and free functions,
    charging one cost model. Holds no run state."""

    def __init__(self, cost: CostModel):
        self.cost = cost

    # -- construction ---------------------------------------------------
    def construct(self, st, type_spec: TypeSpec, args: list):
        base = type_spec.base
        if base == "vector":
            elem = type_spec.args[0] if type_spec.args else TypeSpec(base="int")
            if not args:
                return VectorVal(elem_type=elem)
            count = _as_int(args[0])
            fill = args[1] if len(args) > 1 else default_value(elem)
            _charge(st, self.cost.copy_cost(count))
            return VectorVal([copy_value(fill) for _ in range(count)],
                             elem_type=elem)
        if base == "string":
            if len(args) == 2:
                count = _as_int(args[0])
                _charge(st, self.cost.copy_cost(count))
                return str(args[1]) * count
            if len(args) == 1:
                return str(args[0])
            return ""
        if not args:
            return default_value(type_spec)
        raise RuntimeFault(f"unsupported constructor for {type_spec}")

    def array(self, st, type_spec: TypeSpec, sizes: list[int]):
        """``T a[N][M]``: nested vectors, zero-initialized (globals in
        C++ are zeroed; contest code relies on that)."""
        def build(dims: list[int]):
            if not dims:
                return default_value(type_spec)
            _charge(st, self.cost.copy_cost(dims[0]))
            return VectorVal([build(dims[1:]) for _ in range(dims[0])],
                             elem_type=type_spec)

        return build(sizes)

    def initial(self, st, value, type_spec: TypeSpec):
        """Copy-initialize a declared variable from ``value``."""
        elements = container_size(value)
        if elements:
            _charge(st, self.cost.copy_cost(elements))
        return _coerce(copy_value(value), type_spec)

    # -- locations --------------------------------------------------------
    def index(self, st, obj, key):
        """Location ``obj[key]`` after the index charge."""
        if isinstance(obj, VectorVal):
            return (obj, _as_int(key))
        if isinstance(obj, MapVal):
            _charge(st, self.cost.tree_op(len(obj)) if obj.ordered
                    else self.cost.hash_op)
            return (obj, _hashable(key))
        raise RuntimeFault(f"cannot index into {type(obj).__name__}")

    @staticmethod
    def load(loc):
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

    def store(self, st, loc, value) -> None:
        _charge(st, self.cost.assign)
        elements = container_size(value)
        if elements:
            _charge(st, self.cost.copy_cost(elements))
            value = copy_value(value)
        if isinstance(loc, Cell):
            loc.value = _coerce(value, loc.type)
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

    # -- operators --------------------------------------------------------
    def binary(self, st, op: str, left, right):
        """A non-logical binary operator on evaluated operands."""
        cost = self.cost
        if op == "+" and isinstance(left, str) and isinstance(right, str) \
                and (len(left) != 1 or len(right) != 1):
            # String concatenation; two single-char operands fall through
            # to numeric addition ('a' + 'b' is an int in C++).
            _charge(st, cost.string_per_char * (len(left) + len(right) + 1))
            return left + right
        left_num = _numeric(left)
        right_num = _numeric(right)
        is_float = isinstance(left_num, float) or isinstance(right_num, float)
        if op in _ARITHMETIC:
            _charge(st, cost.float_arith if is_float else cost.int_arith)
            return _ARITHMETIC[op](left_num, right_num)
        if op == "/":
            _charge(st, cost.int_divmod)
            return _divide(left_num, right_num, is_float)
        if op == "%":
            _charge(st, cost.int_divmod)
            return _modulo(left_num, right_num)
        if op in _BITWISE:
            _charge(st, cost.int_arith)
            return _bitwise(op, int(left_num), int(right_num))
        raise RuntimeFault(f"unsupported binary operator {op!r}")

    def compound(self, st, op: str, current, operand):
        """``current op= operand``'s new value (``op`` without ``=``)."""
        cost = self.cost
        if op == "+" and isinstance(current, str) and isinstance(operand, str):
            _charge(st, cost.string_per_char * (len(operand) + 1))
            return current + operand
        left = _numeric(current)
        right = _numeric(operand)
        is_float = isinstance(left, float) or isinstance(right, float)
        _charge(st, cost.float_arith if is_float else cost.int_arith)
        if op in _ARITHMETIC:
            return _ARITHMETIC[op](left, right)
        if op == "/":
            _charge(st, cost.int_divmod)
            return _divide(left, right, is_float)
        if op == "%":
            _charge(st, cost.int_divmod)
            return _modulo(left, right)
        if op in _BITWISE:
            return _bitwise(op, int(left), int(right))
        raise RuntimeFault(f"unsupported compound operator {op}=")

    # -- method calls -----------------------------------------------------
    def method(self, st, fr, obj, method: str, args: list, relocate):
        """``obj.method(args)``; ``relocate`` re-resolves the object as an
        lvalue for the string methods that assign to it."""
        if isinstance(obj, VectorVal):
            return self._vector_method(st, obj, method, args)
        if isinstance(obj, str):
            return self._string_method(st, fr, relocate, obj, method, args)
        if isinstance(obj, MapVal):
            return self._map_method(st, obj, method, args)
        if isinstance(obj, SetVal):
            return self._set_method(st, obj, method, args)
        if isinstance(obj, (QueueVal, StackVal, PriorityQueueVal)):
            return self._adapter_method(st, obj, method, args)
        if isinstance(obj, PairVal) and method in ("first", "second"):
            return getattr(obj, method)
        raise RuntimeFault(
            f"no method {method!r} on {type(obj).__name__}")

    def _vector_method(self, st, vec: VectorVal, method: str, args: list):
        cost = self.cost
        if method in ("push_back", "emplace_back"):
            _charge(st, cost.push_amortized)
            value = args[0]
            if container_size(value):
                _charge(st, cost.copy_cost(container_size(value)))
                value = copy_value(value)
            vec.items.append(value)
            return None
        if method == "pop_back":
            _charge(st, cost.pop)
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
            new_size = _as_int(args[0])
            fill = args[1] if len(args) > 1 else default_value(vec.elem_type)
            _charge(st, cost.copy_cost(abs(new_size - len(vec))))
            while len(vec.items) < new_size:
                vec.items.append(copy_value(fill))
            del vec.items[new_size:]
            return None
        if method == "at":
            _charge(st, cost.index)
            return vec.at(_as_int(args[0]))
        raise RuntimeFault(f"unsupported vector method {method!r}")

    def _string_method(self, st, fr, relocate, text: str, method: str,
                       args: list):
        cost = self.cost
        if method in ("size", "length"):
            return len(text)
        if method == "empty":
            return 1 if not text else 0
        if method == "substr":
            start = _as_int(args[0])
            count = _as_int(args[1]) if len(args) > 1 else len(text) - start
            _charge(st, cost.string_per_char * max(1, count))
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
            loc = relocate(st, fr)
            _charge(st, cost.push_amortized)
            self.store(st, loc, text + args[0])
            return None
        if method == "pop_back":
            loc = relocate(st, fr)
            self.store(st, loc, text[:-1])
            return None
        if method == "find":
            _charge(st, cost.string_per_char * max(1, len(text)))
            needle = args[0]
            pos = text.find(needle)
            return pos if pos >= 0 else 10 ** 18  # string::npos stand-in
        if method == "begin":
            return IterRef(text, 0)
        if method == "end":
            return IterRef(text, len(text))
        raise RuntimeFault(f"unsupported string method {method!r}")

    def _map_method(self, st, mp: MapVal, method: str, args: list):
        cost = self.cost.tree_op(len(mp)) if mp.ordered else self.cost.hash_op
        if method == "count":
            _charge(st, cost)
            return 1 if _hashable(args[0]) in mp.entries else 0
        if method == "size":
            return len(mp)
        if method == "empty":
            return 1 if not mp.entries else 0
        if method == "clear":
            mp.entries.clear()
            return None
        if method == "erase":
            _charge(st, cost)
            mp.entries.pop(_hashable(args[0]), None)
            return None
        raise RuntimeFault(f"unsupported map method {method!r}")

    def _set_method(self, st, s: SetVal, method: str, args: list):
        cost = self.cost.tree_op(len(s)) if s.ordered else self.cost.hash_op
        if method == "insert":
            _charge(st, cost)
            key = _hashable(args[0])
            if s.multi:
                s.items[key] = s.items.get(key, 0) + 1
            else:
                s.items[key] = 1
            return None
        if method == "count":
            _charge(st, cost)
            return s.items.get(_hashable(args[0]), 0)
        if method == "erase":
            _charge(st, cost)
            key = _hashable(args[0])
            if key in s.items:
                if s.multi and s.items[key] > 1:
                    s.items[key] -= 1
                else:
                    del s.items[key]
            return None
        if method == "size":
            return len(s)
        if method == "empty":
            return 1 if len(s) == 0 else 0
        if method == "clear":
            s.items.clear()
            return None
        raise RuntimeFault(f"unsupported set method {method!r}")

    def _adapter_method(self, st, obj, method: str, args: list):
        cost = self.cost
        if isinstance(obj, QueueVal):
            if method == "push":
                _charge(st, cost.push_amortized)
                obj.items.append(args[0])
                return None
            if method == "pop":
                _charge(st, cost.pop)
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
                _charge(st, cost.push_amortized)
                obj.items.append(args[0])
                return None
            if method == "pop":
                _charge(st, cost.pop)
                if not obj.items:
                    raise RuntimeFault("pop on empty stack")
                obj.items.pop()
                return None
            if method == "top":
                if not obj.items:
                    raise RuntimeFault("top on empty stack")
                return obj.items[-1]
        if isinstance(obj, PriorityQueueVal):
            _charge(st, cost.tree_op(len(obj)))
            if method == "push":
                obj.push(args[0])
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

    # -- free functions ---------------------------------------------------
    def builtin(self, st, name: str, args: list):
        """Library function ``name`` on evaluated arguments (every name but
        casts and ``swap``, which the compiler handles)."""
        cost = self.cost
        if name == "max" or name == "min":
            _charge(st, cost.compare)
            if len(args) == 2 and (type(args[0]) in _COMPOSITES
                                   or type(args[1]) in _COMPOSITES):
                # C++: max is (a < b) ? b : a, min is (b < a) ? b : a,
                # each charged as that < is.
                a, b = args
                if name == "max":
                    return b if _value_order(st, a, b, cost.compare) < 0 else a
                return b if _value_order(st, b, a, cost.compare) < 0 else a
            return max(args) if name == "max" else min(args)
        if name == "abs" or name == "fabs" or name == "llabs":
            _charge(st, cost.int_arith)
            return abs(args[0])
        if name == "sqrt" or name == "sqrtl":
            _charge(st, cost.math_builtin)
            if args[0] < 0:
                raise RuntimeFault("sqrt of negative value")
            return math.sqrt(args[0])
        if name == "pow":
            _charge(st, cost.math_builtin)
            return float(args[0]) ** float(args[1])
        if name == "floor":
            _charge(st, cost.math_builtin)
            return float(math.floor(args[0]))
        if name == "ceil":
            _charge(st, cost.math_builtin)
            return float(math.ceil(args[0]))
        if name == "round":
            _charge(st, cost.math_builtin)
            return float(round(args[0]))
        if name == "log" or name == "log2" or name == "log10":
            _charge(st, cost.math_builtin)
            fn = {"log": math.log, "log2": math.log2, "log10": math.log10}[name]
            return fn(args[0])
        if name in ("gcd", "__gcd"):
            _charge(st, cost.math_builtin)
            return math.gcd(int(args[0]), int(args[1]))
        if name == "sort":
            return self._sort(st, args)
        if name == "reverse":
            return self._reverse(st, args)
        if name == "to_string":
            _charge(st, cost.string_per_char * 8)
            value = args[0]
            if isinstance(value, float):
                return f"{value:.6f}"
            return str(value)
        if name == "stoi" or name == "stoll":
            _charge(st, cost.string_per_char * max(1, len(str(args[0]))))
            return int(args[0])
        if name == "isdigit":
            _charge(st, cost.compare)
            ch = args[0]
            return 1 if isinstance(ch, str) and ch.isdigit() else 0
        if name == "isalpha":
            _charge(st, cost.compare)
            ch = args[0]
            return 1 if isinstance(ch, str) and ch.isalpha() else 0
        if name == "tolower":
            _charge(st, cost.int_arith)
            return args[0].lower() if isinstance(args[0], str) else args[0]
        if name == "toupper":
            _charge(st, cost.int_arith)
            return args[0].upper() if isinstance(args[0], str) else args[0]
        raise RuntimeFault(f"unknown function {name!r}")

    def cast(self, st, target: str, value):
        _charge(st, self.cost.int_arith)
        if target in _FLOAT_BASES:
            return float(_numeric(value))
        if target == "char":
            return chr(_as_int(value))
        return int(_numeric(value))

    def _sort(self, st, args: list):
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
        _charge(st, self.cost.sort_cost(max(0, segment_len)))
        if first.reversed:
            # sort(v.rbegin(), v.rend()) -> descending order
            items = sorted(container.items, key=sort_key, reverse=True)
            container.items[:] = items
        else:
            container.items[lo:hi] = sorted(container.items[lo:hi],
                                            key=sort_key)
        return None

    def _reverse(self, st, args: list):
        if len(args) != 2 or not isinstance(args[0], IterRef):
            raise RuntimeFault("reverse expects begin/end iterators")
        container = args[0].container
        if isinstance(container, VectorVal):
            _charge(st, self.cost.copy_cost(len(container)))
            container.items.reverse()
            return None
        raise RuntimeFault("reverse only supports vectors")


# ----------------------------------------------------------------------
# compiled program
# ----------------------------------------------------------------------
class _Function:
    """One user function: its frame layout, parameters and body."""

    __slots__ = ("params", "nslots", "body", "enter")

    def __init__(self):
        #: (slot, by_ref, type) per parameter, in declaration order
        self.params: list[tuple] = []
        self.nslots = 0
        self.body = None
        self.enter = None


class CompiledProgram:
    """A translation unit compiled against one cost model.

    Immutable after :func:`compile_program` returns and free of run
    state: any number of :class:`Interpreter` runs may share it.
    """

    __slots__ = ("cost", "functions", "globals")

    def __init__(self, cost: CostModel, functions: dict, globals_: list):
        self.cost = cost
        #: name -> :class:`_Function` (the last definition of a name wins)
        self.functions = functions
        #: one closure per global declarator, in declaration order
        self.globals = globals_


def compile_program(unit: TranslationUnit,
                    cost_model: CostModel | None = None) -> CompiledProgram:
    """Compile ``unit`` into closures charging ``cost_model``.

    Compilation never fails on a parsed program: every fault the program
    can raise is raised when, and only when, the faulting code runs.
    """
    with _deep_recursion:
        return _Compiler(unit, cost_model or CostModel()).compile()


def _declared_names(node, names: list[str]) -> None:
    """Names a statement declares into the scope that encloses it: its
    own declarators, and those of unbraced ``if``, ``while`` and ``do``
    bodies (blocks and ``for`` statements open scopes of their own)."""
    kind = type(node)
    if kind is VarDecl:
        names.extend(d.name for d in node.declarators)
    elif kind is If:
        _declared_names(node.then, names)
        if node.orelse is not None:
            _declared_names(node.orelse, names)
    elif kind is While or kind is DoWhile:
        _declared_names(node.body, names)


class _Compiler:
    """Turns one translation unit into closures.

    Statement closures are ``(st, fr) -> None | jump status``; expression
    closures are ``(st, fr) -> value``. ``st`` is the running
    :class:`Interpreter` and ``fr`` the current call's slot list.
    """

    def __init__(self, unit: TranslationUnit, cost: CostModel):
        self.unit = unit
        self.cost = cost
        self.rt = _Runtime(cost)
        self.defs: dict[str, FunctionDef] = {f.name: f for f in unit.functions}
        self.functions: dict[str, _Function] = {}
        #: static scopes of the function being compiled, innermost last:
        #: name -> slot, mirroring the scopes a run pushes and pops
        self.scopes: list[dict[str, int]] = []
        self.nslots = 0

    def compile(self) -> CompiledProgram:
        for name, fn in self.defs.items():
            function = _Function()
            function.enter = self._enter(function, fn)
            self.functions[name] = function
        for name, fn in self.defs.items():
            self._compile_function(self.functions[name], fn)
        self.scopes = []
        declares = [self._global_declarator(decl.type, declarator)
                    for decl in self.unit.globals
                    for declarator in decl.declarators]
        return CompiledProgram(self.cost, self.functions, declares)

    # ------------------------------------------------------------------
    # scopes
    # ------------------------------------------------------------------
    def _open_scope(self, names: list[str]) -> list[int]:
        scope: dict[str, int] = {}
        for name in names:
            if name not in scope:
                scope[name] = self.nslots
                self.nslots += 1
        self.scopes.append(scope)
        return list(scope.values())

    def _slots(self, name: str) -> tuple[int, ...]:
        """Slots of the scopes that declare ``name``, innermost first."""
        return tuple(scope[name] for scope in reversed(self.scopes)
                     if name in scope)

    def _cell(self, name: str):
        """Closure returning the cell ``name`` resolves to: the innermost
        bound slot of a scope declaring ``name``, else the global."""
        slots = self._slots(name)
        missing = f"undefined variable {name!r}"

        def cell(st, fr):
            for slot in slots:
                found = fr[slot]
                if found is not None:
                    return found
            found = st.globals.get(name)
            if found is None:
                raise RuntimeFault(missing)
            return found
        return cell

    def _value(self, name: str):
        """Closure returning the value of variable ``name``; the common
        single-candidate case is inlined."""
        slots = self._slots(name)
        if len(slots) != 1:
            cell = self._cell(name)
            return lambda st, fr: cell(st, fr).value
        slot = slots[0]
        missing = f"undefined variable {name!r}"

        def value(st, fr):
            found = fr[slot]
            if found is None:
                found = st.globals.get(name)
                if found is None:
                    raise RuntimeFault(missing)
            return found.value
        return value

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------
    def _compile_function(self, function: _Function, fn: FunctionDef) -> None:
        self.scopes = []
        self.nslots = 0
        names = [p.name for p in fn.params]
        _declared_names(fn.body, names)
        self._open_scope(names)
        function.params = [(self.scopes[0][p.name], p.by_ref, p.type)
                           for p in fn.params]
        function.body = self.stmt(fn.body)
        function.nslots = self.nslots
        self.scopes = []

    def _enter(self, function: _Function, fn: FunctionDef):
        """Closure running ``function`` on evaluated arguments, after the
        call site has checked their count."""
        call_cost = self.cost.call_overhead
        copy_cost = self.cost.copy_cost
        void = fn.return_type.base == "void"
        return_type = fn.return_type

        def enter(st, args):
            st.cycles += call_cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            frames = st.frames
            if len(frames) > MAX_CALL_DEPTH:
                raise RuntimeFault("stack overflow: recursion too deep")
            fr = [None] * function.nslots
            for (slot, by_ref, type_spec), arg in zip(function.params, args):
                if by_ref or type(arg) is int:
                    fr[slot] = arg if by_ref else Cell(arg, type_spec)
                    continue
                elements = container_size(arg)
                if elements:
                    _charge(st, copy_cost(elements))
                fr[slot] = Cell(copy_value(arg), type_spec)
            frames.append(fr)
            try:
                jump = function.body(st, fr)
            finally:
                frames.pop()
            if jump is _RETURN:
                return st.ret
            if jump is None:
                return None if void else default_value(return_type)
            raise _BreakSignal() if jump is _BREAK else _ContinueSignal()
        return enter

    def _call(self, node: Call):
        fn = self.defs.get(node.name)
        if fn is None:
            return self._builtin(node)
        args = [self._ref_arg(arg) if param.by_ref else self.expr(arg)
                for param, arg in zip(fn.params, node.args)]
        if len(node.args) != len(fn.params):
            message = (f"{node.name}() expects {len(fn.params)} args, "
                       f"got {len(node.args)}")

            def mismatch(st, fr):
                for arg in args:
                    arg(st, fr)
                raise RuntimeFault(message)
            return mismatch
        enter = self.functions[node.name].enter
        if not args:
            return lambda st, fr: enter(st, ())
        if len(args) == 1:
            first, = args
            return lambda st, fr: enter(st, (first(st, fr),))
        if len(args) == 2:
            first, second = args
            return lambda st, fr: enter(st, (first(st, fr), second(st, fr)))
        return lambda st, fr: enter(st, [arg(st, fr) for arg in args])

    def _ref_arg(self, node):
        if type(node) is Ident:
            return self._cell(node.name)
        # References to elements (v[i]) are modelled with a temporary cell
        # view; mutation through them is not needed by the corpus.
        return _fault("only plain variables may bind to references")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def stmt(self, node):
        kind = type(node)
        if kind is Block:
            return self._block(node)
        if kind is VarDecl:
            return self._var_decl(node)
        if kind is ExprStmt:
            return self._expr_stmt(node)
        if kind is If:
            return self._if(node)
        if kind is For:
            return self._for(node)
        if kind is While:
            return self._while(node)
        if kind is DoWhile:
            return self._do_while(node)
        if kind is Return:
            return self._return(node)
        if kind is Break:
            return self._jump(_BREAK)
        if kind is Continue:
            return self._jump(_CONTINUE)
        if kind is IoRead:
            return self._io_read(node)
        if kind is IoWrite:
            return self._io_write(node)
        return self._stmt_fault(f"cannot execute node {kind.__name__}")

    # Every statement closure starts with the same inlined prologue:
    # charge the statement, check the time limit, count down to the next
    # memory probe.

    def _jump(self, jump):
        cost = self.cost.statement

        def leave(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            return jump
        return leave

    def _stmt_fault(self, message: str):
        cost = self.cost.statement

        def fault(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            raise RuntimeFault(message)
        return fault

    def _block(self, node: Block):
        names: list[str] = []
        for child in node.statements:
            _declared_names(child, names)
        slots = self._open_scope(names)
        body = tuple(self.stmt(child) for child in node.statements)
        self.scopes.pop()
        cost = self.cost.statement

        if not slots:
            def block(st, fr):
                st.cycles += cost
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                st.tick -= 1
                if st.tick <= 0:
                    _probe(st)
                for child in body:
                    jump = child(st, fr)
                    if jump is not None:
                        return jump
                return None
            return block

        def scoped_block(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            try:
                for child in body:
                    jump = child(st, fr)
                    if jump is not None:
                        return jump
                return None
            finally:
                for slot in slots:
                    fr[slot] = None
        return scoped_block

    def _var_decl(self, node: VarDecl):
        scope = self.scopes[-1]
        inits = tuple((self._initializer(node.type, d), scope[d.name])
                      for d in node.declarators)
        type_spec = node.type
        cost = self.cost.statement

        def declare(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            for init, slot in inits:
                fr[slot] = Cell(init(st, fr), type_spec)
            return None
        return declare

    def _global_declarator(self, type_spec: TypeSpec, declarator):
        init = self._initializer(type_spec, declarator)
        name = declarator.name

        def declare(st):
            st.globals[name] = Cell(init(st, None), type_spec)
        return declare

    def _initializer(self, type_spec: TypeSpec, declarator):
        """Closure computing a declarator's initial value."""
        rt = self.rt
        if declarator.array_sizes:
            sizes = tuple(self.expr(s) for s in declarator.array_sizes)
            return lambda st, fr: rt.array(
                st, type_spec, [_as_int(size(st, fr)) for size in sizes])
        init = declarator.init
        if init is None:
            return lambda st, fr: default_value(type_spec)
        if isinstance(init, Call) and init.name == "__ctor__":
            args = tuple(self.expr(a) for a in init.args)
            return lambda st, fr: rt.construct(
                st, type_spec, [arg(st, fr) for arg in args])
        value = self.expr(init)
        to_float = type_spec.base in _FLOAT_BASES

        def initial(st, fr):
            result = value(st, fr)
            if type(result) is int:
                return float(result) if to_float else result
            return rt.initial(st, result, type_spec)
        return initial

    def _expr_stmt(self, node: ExprStmt):
        expr = self.expr(node.expr)
        cost = self.cost.statement

        def run(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            expr(st, fr)
        return run

    def _if(self, node: If):
        cond = self.test(node.cond)
        then = self.stmt(node.then)
        orelse = self.stmt(node.orelse) if node.orelse is not None else None
        cost = self.cost.statement
        branch = self.cost.branch

        def if_(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            st.cycles += branch
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            if cond(st, fr):
                return then(st, fr)
            if orelse is not None:
                return orelse(st, fr)
            return None
        return if_

    def _for(self, node: For):
        names: list[str] = []
        _declared_names(node.init, names)
        _declared_names(node.body, names)
        slots = self._open_scope(names)
        init = self.stmt(node.init) if node.init is not None else None
        cond = self.test(node.cond) if node.cond is not None else None
        step = self.expr(node.step) if node.step is not None else None
        body = self.stmt(node.body)
        self.scopes.pop()
        cost = self.cost.statement
        iteration = self.cost.loop_iteration

        def for_(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            try:
                if init is not None:
                    jump = init(st, fr)
                    if jump is not None:
                        return jump
                while cond is None or cond(st, fr):
                    st.cycles += iteration
                    if st.cycles > st.max_cycles:
                        raise TimeLimitExceeded(st.cycles)
                    try:
                        jump = body(st, fr)
                    except _ContinueSignal:
                        jump = None
                    except _BreakSignal:
                        break
                    if jump is not None:
                        if jump is _BREAK:
                            break
                        if jump is _RETURN:
                            return jump
                    if step is not None:
                        step(st, fr)
                return None
            finally:
                for slot in slots:
                    fr[slot] = None
        return for_

    def _while(self, node: While):
        cond = self.test(node.cond)
        body = self.stmt(node.body)
        cost = self.cost.statement
        iteration = self.cost.loop_iteration

        def while_(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            while cond(st, fr):
                st.cycles += iteration
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                try:
                    jump = body(st, fr)
                except _ContinueSignal:
                    continue
                except _BreakSignal:
                    break
                if jump is not None:
                    if jump is _BREAK:
                        break
                    if jump is _RETURN:
                        return jump
            return None
        return while_

    def _do_while(self, node: DoWhile):
        body = self.stmt(node.body)
        cond = self.test(node.cond)
        cost = self.cost.statement
        iteration = self.cost.loop_iteration

        def do_while(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            while True:
                st.cycles += iteration
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                try:
                    jump = body(st, fr)
                except _ContinueSignal:
                    jump = None
                except _BreakSignal:
                    break
                if jump is not None:
                    if jump is _BREAK:
                        break
                    if jump is _RETURN:
                        return jump
                if not cond(st, fr):
                    break
            return None
        return do_while

    def _return(self, node: Return):
        value = self.expr(node.value) if node.value is not None else None
        cost = self.cost.statement

        def return_(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            st.ret = value(st, fr) if value is not None else None
            return _RETURN
        return return_

    def _io_read(self, node: IoRead):
        targets = tuple(self._read_target(t) for t in node.targets)
        cost = self.cost.statement

        def read(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            for target in targets:
                target(st, fr)
        return read

    def _read_target(self, target):
        locate = self.lvalue(target)
        declared = self.lvalue_type(target)
        io_cost = self.cost.io_token
        rt = self.rt

        def read_into(st, fr):
            _charge(st, io_cost)
            loc = locate(st, fr)
            type_spec = declared(st, fr)
            kind = type_spec.base if type_spec is not None else None
            if kind in _FLOAT_BASES:
                value: object = _parse_token(st, float)
            elif kind == "char":
                value = _next_token(st)[0]
            elif kind == "string":
                value = _next_token(st)
            else:
                value = _parse_token(st, int)
            rt.store(st, loc, value)
        return read_into

    def _io_write(self, node: IoWrite):
        values = tuple(self.expr(v) for v in node.values)
        cost = self.cost.statement
        io_cost = self.cost.io_token

        def write(st, fr):
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            st.tick -= 1
            if st.tick <= 0:
                _probe(st)
            for value in values:
                st.cycles += io_cost
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                _write(st, value(st, fr))
        return write

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def expr(self, node):
        kind = type(node)
        if kind is IntLit or kind is FloatLit or kind is CharLit \
                or kind is StringLit:
            constant = node.value
            return lambda st, fr: constant
        if kind is BoolLit:
            flag = 1 if node.value else 0
            return lambda st, fr: flag
        if kind is Ident:
            if node.name == "endl":
                return lambda st, fr: "\n"
            return self._value(node.name)
        if kind is BinaryOp:
            return self._binary(node)
        if kind is UnaryOp:
            return self._unary(node)
        if kind is PostfixOp:
            return self._step(node.operand, 1 if node.op == "++" else -1,
                              postfix=True)
        if kind is Assign:
            return self._assign(node)
        if kind is Ternary:
            return self._ternary(node)
        if kind is Index:
            return self._index(node)
        if kind is Member:
            return self._member(node)
        if kind is MethodCall:
            return self._method(node)
        if kind is Call:
            return self._call(node)
        if kind is Construct:
            rt = self.rt
            type_spec = node.type
            args = tuple(self.expr(a) for a in node.args)
            return lambda st, fr: rt.construct(
                st, type_spec, [arg(st, fr) for arg in args])
        return _fault(f"cannot evaluate node {kind.__name__}")

    def test(self, node):
        """Closure returning ``truthy(value of node)``."""
        kind = type(node)
        if kind is BinaryOp and node.op in _RELATIONS:
            return self._comparison(node)
        if kind is BinaryOp and node.op in ("&&", "||"):
            left = self.test(node.left)
            right = self.test(node.right)
            cost = self.cost.logical
            if node.op == "&&":
                def both(st, fr):
                    _charge(st, cost)
                    return left(st, fr) and right(st, fr)
                return both

            def either(st, fr):
                _charge(st, cost)
                return left(st, fr) or right(st, fr)
            return either
        if kind is UnaryOp and node.op == "!":
            operand = self.expr(node.operand)
            cost = self.cost.int_arith

            def negated(st, fr):
                value = operand(st, fr)
                _charge(st, cost)
                return not truthy(value)
            return negated
        value = self.expr(node)

        def test(st, fr):
            result = value(st, fr)
            if type(result) is int:
                return result != 0
            return truthy(result)
        return test

    # -- operators ------------------------------------------------------
    def _binary(self, node: BinaryOp):
        op = node.op
        if op in _RELATIONS or op in ("&&", "||"):
            test = self.test(node)
            return lambda st, fr: 1 if test(st, fr) else 0
        left = self.expr(node.left)
        right = self.expr(node.right)
        rt = self.rt
        arithmetic = _ARITHMETIC.get(op)
        if arithmetic is not None:
            cost = self.cost.int_arith

            def arith(st, fr):
                a = left(st, fr)
                b = right(st, fr)
                if type(a) is not int or type(b) is not int:
                    return rt.binary(st, op, a, b)
                st.cycles += cost
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                return arithmetic(a, b)
            return arith
        return lambda st, fr: rt.binary(st, op, left(st, fr), right(st, fr))

    def _comparison(self, node: BinaryOp):
        """Test closure for a comparison: evaluates both sides, charges,
        and computes only the requested relation."""
        op = node.op
        left = self.expr(node.left)
        right = self.expr(node.right)
        cost = self.cost.compare
        relation = _RELATIONS[op]

        def compare(st, fr):
            a = left(st, fr)
            b = right(st, fr)
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            if type(a) is not int or type(b) is not int:
                if type(a) in _COMPOSITES or type(b) in _COMPOSITES:
                    return _composite_relation(st, op, a, b, cost)
                a, b = _comparable(a, b)
            return relation(a, b)
        return compare

    def _unary(self, node: UnaryOp):
        op = node.op
        if op in ("++", "--"):
            return self._step(node.operand, 1 if op == "++" else -1,
                              postfix=False)
        if op == "!":
            test = self.test(node)
            return lambda st, fr: 1 if test(st, fr) else 0
        operand = self.expr(node.operand)
        cost = self.cost.int_arith
        if op == "-":
            apply = lambda value: -_numeric(value)          # noqa: E731
        elif op == "+":
            apply = _numeric
        elif op == "~":
            apply = lambda value: ~_as_int(value)           # noqa: E731
        else:
            message = f"unsupported unary operator {op!r}"

            def apply(value):
                raise RuntimeFault(message)

        def unary(st, fr):
            value = operand(st, fr)
            _charge(st, cost)
            return apply(value)
        return unary

    def _step(self, target, delta: int, postfix: bool):
        """``++x``/``--x`` (value after) or ``x++``/``x--`` (value before)."""
        cost = self.cost.int_arith
        rt = self.rt
        if type(target) is Ident:
            cell_of = self._cell(target.name)
            assign = self.cost.assign

            def step_cell(st, fr):
                cell = cell_of(st, fr)
                current = cell.value
                if type(current) is not int:
                    current = _numeric(current)
                    _charge(st, cost)
                    updated = current + delta
                    rt.store(st, cell, updated)
                    return current if postfix else updated
                st.cycles += cost
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                updated = current + delta
                st.cycles += assign
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                cell.value = (float(updated) if cell.type.base in _FLOAT_BASES
                              else updated)
                return current if postfix else updated
            return step_cell
        locate = self.lvalue(target)
        load = rt.load

        def step(st, fr):
            loc = locate(st, fr)
            current = _numeric(load(loc))
            _charge(st, cost)
            updated = current + delta
            rt.store(st, loc, updated)
            return current if postfix else updated
        return step

    def _assign(self, node: Assign):
        target = node.target
        value = self.expr(node.value)
        rt = self.rt
        if node.op == "=":
            if type(target) is Ident:
                cell_of = self._cell(target.name)
                assign = self.cost.assign

                def assign_cell(st, fr):
                    result = value(st, fr)
                    cell = cell_of(st, fr)
                    if type(result) is not int:
                        rt.store(st, cell, result)
                        return result
                    st.cycles += assign
                    if st.cycles > st.max_cycles:
                        raise TimeLimitExceeded(st.cycles)
                    cell.value = (float(result)
                                  if cell.type.base in _FLOAT_BASES
                                  else result)
                    return result
                return assign_cell
            locate = self.lvalue(target)

            def assign_(st, fr):
                result = value(st, fr)
                rt.store(st, locate(st, fr), result)
                return result
            return assign_
        op = node.op[:-1]
        if op in ("+", "-") and type(target) is Ident:
            cell_of = self._cell(target.name)
            cost = self.cost.int_arith
            assign = self.cost.assign
            sign = 1 if op == "+" else -1

            def add_to_cell(st, fr):
                cell = cell_of(st, fr)
                current = cell.value
                operand = value(st, fr)
                if type(current) is not int or type(operand) is not int:
                    result = rt.compound(st, op, current, operand)
                    rt.store(st, cell, result)
                    return result
                st.cycles += cost
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                result = current + sign * operand
                st.cycles += assign
                if st.cycles > st.max_cycles:
                    raise TimeLimitExceeded(st.cycles)
                cell.value = (float(result) if cell.type.base in _FLOAT_BASES
                              else result)
                return result
            return add_to_cell
        locate = self.lvalue(target)
        load = rt.load

        def compound(st, fr):
            loc = locate(st, fr)
            current = load(loc)
            result = rt.compound(st, op, current, value(st, fr))
            rt.store(st, loc, result)
            return result
        return compound

    def _ternary(self, node: Ternary):
        cond = self.test(node.cond)
        then = self.expr(node.then)
        orelse = self.expr(node.orelse)
        cost = self.cost.branch

        def ternary(st, fr):
            _charge(st, cost)
            if cond(st, fr):
                return then(st, fr)
            return orelse(st, fr)
        return ternary

    # -- lvalues and element access -----------------------------------------
    def lvalue(self, node):
        """Closure returning a writable location: a Cell, or
        (vector, index) / (map, key) / (pair, field)."""
        kind = type(node)
        if kind is Ident:
            return self._cell(node.name)
        if kind is Index:
            container = self.container(node.obj)
            key = self.expr(node.index)
            cost = self.cost.index
            index = self.rt.index

            def locate(st, fr):
                obj = container(st, fr)
                k = key(st, fr)
                _charge(st, cost)
                return index(st, obj, k)
            return locate
        if kind is Member:
            container = self.container(node.obj)
            field_name = node.field_name
            cost = self.cost.member
            missing = f"no assignable member {field_name!r}"

            def member(st, fr):
                obj = container(st, fr)
                if isinstance(obj, PairVal) and field_name in ("first",
                                                                "second"):
                    _charge(st, cost)
                    return (obj, field_name)
                raise RuntimeFault(missing)
            return member
        return _fault(f"{kind.__name__} is not an lvalue")

    def container(self, node):
        """Closure evaluating the container part of an lvalue without
        copying it."""
        kind = type(node)
        if kind is Ident:
            return self._value(node.name)       # no ``endl`` special case
        if kind is Index:
            return self._index(node)
        if kind is Member:
            locate = self.lvalue(node)
            load = self.rt.load
            return lambda st, fr: load(locate(st, fr))
        return self.expr(node)

    def lvalue_type(self, node):
        """Closure returning the declared type an lvalue holds, or None."""
        kind = type(node)
        if kind is Ident:
            cell = self._cell(node.name)
            return lambda st, fr: cell(st, fr).type
        if kind is Index:
            inner_of = self.lvalue_type(node.obj)

            def element_type(st, fr):
                inner = inner_of(st, fr)
                if inner is not None and inner.base == "vector" and inner.args:
                    return inner.args[0]
                if inner is not None and inner.base in (
                        "map", "unordered_map") and len(inner.args) > 1:
                    return inner.args[1]
                if inner is not None and inner.base == "string":
                    return _CHAR_TYPE
                return None
            return element_type
        if kind is Member:
            inner_of = self.lvalue_type(node.obj)
            first = node.field_name == "first"

            def field_type(st, fr):
                inner = inner_of(st, fr)
                if inner is not None and inner.base == "pair" \
                        and len(inner.args) == 2:
                    return inner.args[0] if first else inner.args[1]
                return None
            return field_type
        return lambda st, fr: None

    def _index(self, node: Index):
        container = self.container(node.obj)
        key = self.expr(node.index)
        cost = self.cost.index
        rt = self.rt

        def index(st, fr):
            obj = container(st, fr)
            k = key(st, fr)
            st.cycles += cost
            if st.cycles > st.max_cycles:
                raise TimeLimitExceeded(st.cycles)
            if type(obj) is VectorVal:
                return _vector_at(obj, k)
            return rt.load(rt.index(st, obj, k))
        return index

    def _member(self, node: Member):
        container = self.container(node.obj)
        field_name = node.field_name
        cost = self.cost.member
        missing = f"no member {field_name!r}"

        def member(st, fr):
            obj = container(st, fr)
            _charge(st, cost)
            if isinstance(obj, PairVal):
                return getattr(obj, field_name)
            raise RuntimeFault(missing)
        return member

    def _method(self, node: MethodCall):
        container = self.container(node.obj)
        args = tuple(self.expr(a) for a in node.args)
        method = node.method
        relocate = self.lvalue(node.obj)
        cost = self.cost.method_overhead
        dispatch = self.rt.method

        def call(st, fr):
            _charge(st, cost)
            obj = container(st, fr)
            values = [arg(st, fr) for arg in args]
            return dispatch(st, fr, obj, method, values, relocate)
        return call

    # -- free functions -----------------------------------------------------
    def _builtin(self, node: Call):
        name = node.name
        rt = self.rt
        if name.startswith("__cast_"):
            target = name[len("__cast_"):-2].replace("_", " ")
            arg = self.expr(node.args[0]) if node.args else None

            def cast(st, fr):
                if arg is None:
                    raise IndexError("list index out of range")
                return rt.cast(st, target, arg(st, fr))
            return cast
        args = tuple(self.expr(a) for a in node.args)
        if name == "swap":
            return self._swap(node, args)
        return lambda st, fr: rt.builtin(st, name,
                                         [arg(st, fr) for arg in args])

    def _swap(self, node: Call, args: tuple):
        rt = self.rt
        if len(node.args) != 2:
            def bad_swap(st, fr):
                for arg in args:
                    arg(st, fr)
                raise RuntimeFault("swap needs two arguments")
            return bad_swap
        locate_a = self.lvalue(node.args[0])
        locate_b = self.lvalue(node.args[1])

        def swap(st, fr):
            for arg in args:
                arg(st, fr)
            loc_a = locate_a(st, fr)
            loc_b = locate_b(st, fr)
            a = rt.load(loc_a)
            b = rt.load(loc_b)
            rt.store(st, loc_a, b)
            rt.store(st, loc_b, a)
        return swap


def _fault(message: str):
    """Expression closure that raises ``RuntimeFault(message)``."""
    def fault(st, fr):
        raise RuntimeFault(message)
    return fault
