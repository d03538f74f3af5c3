"""The compiled interpreter against the tree-walking reference.

Every case runs ``repro.judge.interp`` and the reference in
``reference_interp.py`` on the same program and input, and demands the
same :class:`ExecutionResult` (stdout, cycles, peak elements) or the
same exception type and message. Corpus labels are mean judged cycles,
so anything short of identical would change them.

Programs come from every Table-I and MP family (several seeds, every
test input), from style variants and dead-code mutants of those
programs, from hand-written edge cases, one group per exactness
invariant listed in ``docs/judge.md``, and from a random program
generator.
"""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.registry import TABLE1_TAGS, family_for_tag, mp_families
from repro.corpus.styles import Style
from repro.judge import CostModel, Interpreter, compile_program
from repro.lang import parse
from repro.lang.analysis import generate_dead_mutants

from .reference_interp import Interpreter as ReferenceInterpreter

SEEDS = (0, 1)
#: A small odd probe interval: probes land in nearly every scope state a
#: program passes through (the default, 2048, probes rarely).
FREQUENT_PROBES = 3


def _outcome(interpreter, program, stdin: str, **options):
    try:
        result = interpreter(program, **options).run(stdin)
    except Exception as error:              # compared by type and message
        return (type(error).__name__, str(error))
    # Writing a container prints its object's address, which differs
    # between any two runs.
    stdout = re.sub(r" at 0x[0-9a-f]+>", " at 0x?>", result.stdout)
    return (stdout, result.cycles, result.peak_elements)


def reference_outcome(unit, stdin: str = "", **options):
    limit = sys.getrecursionlimit()
    try:
        return _outcome(ReferenceInterpreter, unit, stdin, **options)
    finally:
        # The reference raises the process-wide limit and never lowers it.
        sys.setrecursionlimit(limit)


def compiled_outcome(program, stdin: str = "", **options):
    return _outcome(Interpreter, program, stdin, **options)


def assert_equivalent(source: str, inputs=("",), **options) -> list:
    """Both interpreters agree on every input; returns the outcomes."""
    unit = parse(source)
    program = compile_program(unit, options.get("cost_model"))
    outcomes = []
    for stdin in inputs:
        expected = reference_outcome(unit, stdin, **options)
        assert compiled_outcome(program, stdin, **options) == expected, \
            f"input {stdin!r}, options {options}"
        outcomes.append(expected)
    return outcomes


# ---------------------------------------------------------------------------
# corpus programs
# ---------------------------------------------------------------------------
def _families():
    families = [family_for_tag(tag, scale=0.1) for tag in TABLE1_TAGS]
    # mp_pool cycles its six parametric classes: six members cover all.
    families += mp_families(count=6, scale=0.1)
    return families


FAMILIES = _families()


def _family_id(family) -> str:
    return f"{family.tag}-{type(family).__name__}"


@pytest.fixture(scope="module")
def family_tests():
    return {family.tag: [t.input_text for t in family.spec().tests]
            for family in FAMILIES}


@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
def test_corpus_programs(family, family_tests):
    inputs = family_tests[family.tag]
    for seed in SEEDS:
        source = family.generate(np.random.default_rng(seed)).source
        outcomes = assert_equivalent(source, inputs)
        assert all(len(o) == 3 for o in outcomes), outcomes
        assert_equivalent(source, inputs[:1],
                          memory_probe_interval=FREQUENT_PROBES)


@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
def test_style_variants(family, family_tests):
    """One algorithm choice rendered in several surface styles."""
    for style_seed in (11, 12, 13):
        style = Style(np.random.default_rng(style_seed))
        solution = family.emit_solution(np.random.default_rng(5), style)
        assert_equivalent(solution.source, family_tests[family.tag])


@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
def test_dead_code_mutants(family, family_tests):
    source = family.generate(np.random.default_rng(3)).source
    mutants = generate_dead_mutants(source, seed=7, count=3)
    assert mutants
    for mutant in mutants:
        assert_equivalent(mutant.source, family_tests[family.tag][:2],
                          memory_probe_interval=FREQUENT_PROBES)


def test_time_limit_around_the_budget_of_a_corpus_program(family_tests):
    """TLE-vs-result and the TLE cycle count, at and around the budget."""
    family = FAMILIES[TABLE1_TAGS.index("F")]
    source = family.generate(np.random.default_rng(0)).source
    stdin = family_tests[family.tag][0]
    (_, cycles, _), = assert_equivalent(source, [stdin])
    for budget in (cycles - 1, cycles, cycles + 1, cycles // 2, 0):
        assert_equivalent(source, [stdin], max_cycles=budget)


# ---------------------------------------------------------------------------
# hand-written edge programs, one group per exactness invariant
# ---------------------------------------------------------------------------
KITCHEN_SINK = r"""
typedef long long ll;
int g = 3;
vector<int> gv(4, 1);
int twice(int x) { return 2 * x; }
void grow(vector<int> &v, int n) { for (int i = 0; i < n; i++) v.push_back(i); }
ll sum(vector<int> v) { ll s = 0; for (int i = 0; i < v.size(); i++) s += v[i]; return s; }
int main() {
    int n; cin >> n;
    vector<int> v; grow(v, n);
    double d = 1.5; d *= 2; d -= 0.25; d /= 2;
    ll big = 1; for (int i = 0; i < 40; i++) big = big * 3 % 1000000007;
    string s = "ab"; s += "cd"; s.push_back('e'); s.pop_back();
    char c = 'a'; c = c + 1; c++;
    map<int, int> m; m[1] = 5; m[1] += 2; m[2]++;
    unordered_map<string, int> um; um["x"] = 1; um.erase("x");
    set<int> st; st.insert(3); st.insert(1); st.erase(3);
    multiset<int> ms; ms.insert(2); ms.insert(2); ms.erase(2);
    queue<int> q; q.push(1); q.push(2); q.pop();
    stack<int> sk; sk.push(4); sk.push(5); sk.pop();
    priority_queue<int> pq; pq.push(3); pq.push(9); pq.pop();
    pair<int, int> p; p.first = 7; p.second = p.first * 2; p.second -= 1;
    int grid[3][2]; grid[2][1] = 6;
    vector<vector<int>> nest(2, vector<int>(3, 0)); nest[1][2] += 4;
    vector<long long> tmp = vector<long long>(2, 9);
    sort(v.rbegin(), v.rend()); reverse(v.begin(), v.end());
    sort(v.begin(), v.end());
    int a = 5, b = 9; swap(a, b);
    int k = 0; do { k += 2; } while (k < 7);
    int w = 0; while (true) { w++; if (w % 2 == 0) continue; if (w > 6) break; }
    int t = (a > b) ? a - b : b - a;
    bool flag = !(t == 4) || (a < b && b != 0);
    cout << sum(v) << ' ' << twice(g) << ' ' << d << ' ' << big << ' ' << s
         << ' ' << c << ' ' << m[1] << m[2] << m.count(3) << ' ' << um.size()
         << st.size() << ms.count(2) << q.front() << sk.top() << pq.top()
         << ' ' << p.second << grid[2][1] << nest[1][2] << tmp[1] << ' '
         << a << b << k << w << t << flag << ' ' << gv.size() << endl;
    cout << max(a, b) << min(3, 4) << abs(-2) << ' ' << sqrt(16.0) << ' '
         << pow(2.0, 3.0) << floor(2.7) << ceil(2.1) << round(2.5) << ' '
         << __gcd(12, 18) << to_string(42) << stoi("17") << isdigit('7')
         << isalpha('x') << tolower('Q') << toupper('q') << ' '
         << (int)(7.9) << (double)(3) << (char)(98) << (long long)(d) << ' '
         << s.substr(1, 2) << s.size() << s.find("c") << s.back() << s.front()
         << v.back() << v.front() << v.empty() << (1 << 5) << (37 & 12)
         << (37 | 12) << (37 ^ 12) << (37 >> 2) << (-7 / 2) << (-7 % 3)
         << ~5 << -a << +b << (7.0 / 2) << "\n";
    int e = 12; e &= 10; e |= 1; e ^= 3; e <<= 2; e >>= 1; e %= 5;
    v.resize(2); v.resize(4, 8); v.pop_back(); v.clear();
    cout << e << v.size() << v.empty() << endl;
    return 0;
}
"""


def test_kitchen_sink_matches():
    assert_equivalent(KITCHEN_SINK, ["5", "0", "12"])
    for interval in (1, 2, 7):
        assert_equivalent(KITCHEN_SINK, ["5"], memory_probe_interval=interval)


def test_kitchen_sink_time_limit_across_budgets():
    """Charges happen in the same order with the TLE check after each:
    budgets all through the run give the same TLE cycle count."""
    source = KITCHEN_SINK
    (_, cycles, _), = assert_equivalent(source, ["3"])
    unit = parse(source)
    program = compile_program(unit)
    for budget in [*range(0, cycles - 20, 3), *range(cycles - 20, cycles + 2)]:
        expected = reference_outcome(unit, "3", max_cycles=budget)
        assert compiled_outcome(program, "3", max_cycles=budget) == expected
    assert expected[1] == cycles


def test_custom_cost_model_is_bound_at_compile_time():
    costs = CostModel(statement=3, int_arith=5, call_overhead=11, index=2,
                      loop_iteration=7, assign=4, compare=6, io_token=9)
    (outcome,) = assert_equivalent(KITCHEN_SINK, ["4"], cost_model=costs)
    unit = parse(KITCHEN_SINK)
    assert Interpreter(unit, cost_model=costs).run("4").cycles == outcome[1]
    with pytest.raises(ValueError, match="another cost model"):
        Interpreter(compile_program(unit), cost_model=costs)


SCOPE_PROGRAMS = {
    # use before declaration falls back to an enclosing or global cell
    "use_before_decl_block": """
        int x = 100;
        int main() {
            int y = 1;
            for (int i = 0; i < 3; i++) {
                cout << y << x << ' ';
                int y = i * 10;
                int x = y + 1;
                cout << y << x << ' ';
            }
            { cout << x; int x = 5; cout << x; }
            cout << x << y;
        }""",
    # the same reference site resolves to the global, then to a local
    # declared later by an unbraced loop body in the same scope
    "while_body_declares_into_enclosing_scope": """
        int g = 0;
        int main() {
            int t = 0;
            while (g < 2) int g = 7;
            cout << g;
            do int t = 4; while (t < 3);
            cout << t;
        }""",
    "for_body_declares_into_for_scope": """
        int g = 1;
        int main() {
            for (int i = 0; i < 4 && g < 5; i++) int g = i + 10;
            cout << g;
            for (int i = 0; i < 3; i++) if (i > 0) int g = 50;
            cout << g;
        }""",
    "unbraced_if_declares_into_enclosing_scope": """
        int x = 1;
        int main() {
            if (true) int x = 5;
            cout << x;
            if (false) int x = 9; else int x = 6;
            cout << x;
        }""",
    "unbraced_if_skipped_leaves_name_undefined": """
        int main() {
            if (false) int z = 1;
            cout << z;
        }""",
    "for_scope_ends_with_loop": """
        int main() {
            for (int i = 0; i < 3; i++) int w = i;
            cout << w;
        }""",
    # re-declaring a name in the same scope replaces its cell (the old
    # one stops counting towards memory)
    "redeclaration_replaces_cell": """
        int main() {
            vector<int> v(10, 0);
            int a = 1;
            vector<int> v(1000, 0);
            int a = a + 1;
            cout << v.size() << a;
        }""",
    "declarator_sees_previous_declarators": """
        int a = 7;
        int main() { int a = a + 1, b = a * 2; cout << a << b; }""",
    "parameter_shadowing_and_duplicate_names": """
        int f(int x, int x) { return x; }
        int g(int x) { int x = 3; return x; }
        int main() { cout << f(1, 2) << g(9); }""",
    "global_initializers": """
        int twice(int v) { return 2 * v; }
        int a = 4;
        int b = twice(a) + a;
        vector<int> table(b, 1);
        int main() { cout << b << table.size(); }""",
    "global_used_before_declared": """
        int a = b + 1;
        int b = 2;
        int main() { cout << a; }""",
    "endl_is_not_a_variable_in_expressions": """
        int main() { int endl = 4; cout << endl << endl; }""",
}


@pytest.mark.parametrize("name", sorted(SCOPE_PROGRAMS))
def test_scope_resolution(name):
    for interval in (1, 2048):
        assert_equivalent(SCOPE_PROGRAMS[name],
                          memory_probe_interval=interval)


MEMORY_PROGRAMS = {
    # globals plus every frame's in-scope cells
    "globals_and_frames": """
        vector<int> g(50, 1);
        void f(vector<int> &r, vector<int> c) {
            vector<int> local(30, 0);
            int s = 0;
            for (int i = 0; i < 5; i++) s += c[i];
        }
        int main() { vector<int> v(100, 2); f(v, v); cout << 1; }""",
    # a by-ref cell counts once per frame that binds it
    "by_ref_counts_per_binding_frame": """
        void twice(vector<int> &a, vector<int> &b) { int s = a.size() + b.size(); }
        void down(vector<int> &r, int d) {
            if (d > 0) down(r, d - 1); else { int s = r.size(); s++; }
        }
        int main() {
            vector<int> v(200, 0);
            twice(v, v);
            down(v, 4);
            cout << v.size();
        }""",
    # a block's cells drop on every exit
    "block_exit_on_break_continue_return": """
        int f() { { vector<int> big(300, 0); return 1; } }
        int main() {
            for (int i = 0; i < 3; i++) { vector<int> big(500, 0); if (i == 1) break; }
            int k = 0;
            while (k < 3) { k++; vector<int> big(400, 0); if (k < 3) continue; }
            int r = f();
            vector<int> after(1000, 0);
            int s = 0; s++;
            cout << r << after.size();
        }""",
    "block_exit_on_fault": """
        int main() {
            { vector<int> big(300, 0); int s = 0; s++; cout << big[300]; }
        }""",
    "containers_counted_deeply": """
        int main() {
            vector<vector<int>> grid(20, vector<int>(20, 0));
            map<int, vector<int>> m; m[1] = vector<int>(30, 0);
            set<int> s; s.insert(1); s.insert(2);
            pair<int, int> p; string text = "a long string value";
            queue<int> q; q.push(1); stack<int> st; priority_queue<int> pq;
            int x = 0; x++; x++;
            cout << grid.size() << m.size();
        }""",
}


@pytest.mark.parametrize("name", sorted(MEMORY_PROGRAMS))
def test_memory_probe(name):
    for interval in (1, 2, 3, 5, 2048):
        assert_equivalent(MEMORY_PROGRAMS[name],
                          memory_probe_interval=interval)


CONTROL_PROGRAMS = {
    # a break/continue that leaves its function ends the caller's loop,
    # abandoning the expression and blocks it was raised in
    "break_crosses_function_boundary": """
        void stop() { vector<int> junk(50, 0); break; }
        void skip() { continue; }
        int main() {
            int n = 0;
            for (int i = 0; i < 5; i++) {
                vector<int> a(100, 0);
                { vector<int> b(200, 0); if (i == 1) skip(); n += 1; if (i == 3) stop(); }
            }
            vector<int> after(1000, 0);
            int s = 0; s++;
            cout << n;
        }""",
    "break_in_loop_condition_call": """
        int stop() { break; return 1; }
        int main() {
            int n = 0;
            while (n < 5) { n++; for (int i = 0; stop(); i++) n += 10; }
            cout << n;
        }""",
    "break_outside_loop": "int main() { break; }",
    "continue_outside_loop": "void f() { continue; } int main() { f(); }",
    "return_from_nested_loops": """
        int find(int t) {
            for (int i = 0; i < 10; i++) { int j = 0;
                while (j < 10) { if (i * j == t) return i * 100 + j; j++; } }
            return -1;
        }
        int main() { cout << find(12) << ' ' << find(1000); }""",
    "missing_return_gives_default": """
        int f() { int x = 1; }
        double g() { }
        string h() { }
        pair<int, int> p() { }
        void v() { }
        int main() { cout << f() << g() << h() << p().first; v(); }""",
    "return_type_without_default": """
        queue<int> f() { }
        int main() { f(); }""",
}


@pytest.mark.parametrize("name", sorted(CONTROL_PROGRAMS))
def test_control_flow(name):
    for interval in (1, 2048):
        assert_equivalent(CONTROL_PROGRAMS[name],
                          memory_probe_interval=interval)


CALL_PROGRAMS = {
    # arguments go through zip(params, args) before the count check
    "too_many_args_evaluated_first": """
        int f(int a, int b) { return a + b; }
        int main() { int k = 0; cout << f(k++, k++, k++); }""",
    "too_few_args_evaluated_first": """
        int f(int a, int b) { return a + b; }
        int main() { int k = 0; cout << f(k++); }""",
    "by_ref_needs_identifier": """
        void g(int &r) { r++; }
        int main() { vector<int> v(3, 0); g(v[0]); }""",
    "by_ref_literal": """
        void g(int &r) { r++; }
        int main() { g(5); }""",
    "by_ref_undefined": """
        void g(int &r) { r++; }
        int main() { g(nothing); }""",
    "main_with_parameters": "int main(int argc) { return 0; }",
    "no_main": "int helper() { return 1; }",
    "by_value_copies_are_charged": """
        int total(vector<int> v, string s, int k) { return v.size() + s.size() + k; }
        int main() { vector<int> v(40, 1); cout << total(v, "hello", 2); }""",
    # parameters keep the argument's value type; stores coerce to the
    # cell's declared type
    "params_are_not_coerced_stores_are": """
        double half(double x) { return x / 2; }
        double bump(double x) { x++; return x / 2; }
        double add(double x) { x += 1; x -= 0; return x / 4; }
        double set(double x) { x = 3; return x / 2; }
        int main() { cout << half(3) << ' ' << bump(3) << ' ' << add(1)
                          << ' ' << set(0); }""",
}


@pytest.mark.parametrize("name", sorted(CALL_PROGRAMS))
def test_calls(name):
    """Every budget up to the end of the run: a time limit shows which
    arguments were evaluated before a fault, and in what order."""
    source = CALL_PROGRAMS[name]
    (outcome,) = assert_equivalent(source)
    end = outcome[1] if len(outcome) == 3 else 200
    for budget in range(0, end + 1):
        assert_equivalent(source, max_cycles=budget)


DEPTH_PROGRAM = """
void down(int n) { if (n > 1) down(n - 1); }
int main() { int d; cin >> d; down(d); cout << d; }
"""


@pytest.mark.parametrize("depth", [3999, 4000, 4001])
def test_stack_overflow_depth(depth):
    """More than 4,000 active frames fault, as before: a recursion
    ``depth`` frames deep below ``main`` completes up to 4,000."""
    (outcome,) = assert_equivalent(DEPTH_PROGRAM, [str(depth)])
    if depth <= 4000:
        assert outcome[0] == str(depth)
    else:
        assert outcome == ("RuntimeFault",
                           "stack overflow: recursion too deep")


FAULT_PROGRAMS = [
    "int main() { cout << nothing; }",
    "int main() { vector<int> v(2, 0); v[2] = 1; }",
    "int main() { vector<int> v; v.pop_back(); }",
    "int main() { vector<int> v; cout << v.back(); }",
    "int main() { vector<int> v; cout << v.front(); }",
    "int main() { vector<int> v; v.fly(); }",
    "int main() { string s; cout << s[0]; }",
    "int main() { string s; s.fly(); }",
    "int main() { string s; cout << s.back(); }",
    "int main() { int x = 5; x.size(); }",
    "int main() { int x = 5; cout << x.first; }",
    "int main() { int x = 5; x.first = 2; }",
    "int main() { pair<int, int> p; p.third = 2; }",
    "int main() { 5 = 3; }",
    "int main() { int x = 0; cout << 5 / x; }",
    "int main() { int x = 0; cout << 5 % x; }",
    "int main() { double x = 0; x /= 0; }",
    "int main() { int x = 3; x %= 0; }",
    "int main() { frobnicate(1, 2); }",
    "int main() { map<int, int> m; m.fly(); }",
    "int main() { set<int> s; s.fly(); }",
    "int main() { queue<int> q; q.pop(); }",
    "int main() { queue<int> q; cout << q.front(); }",
    "int main() { stack<int> s; s.pop(); }",
    "int main() { stack<int> s; cout << s.top(); }",
    "int main() { priority_queue<int> q; q.pop(); }",
    "int main() { priority_queue<int> q; q.fly(); }",
    "int main() { queue<int> q; q.top(); }",
    "int main() { vector<int> v; sort(v.begin(), 3); }",
    "int main() { vector<int> a, b; sort(a.begin(), b.end()); }",
    "int main() { string s = \"ab\"; sort(s.begin(), s.end()); }",
    "int main() { vector<int> v; sort(v.begin(), v.rend()); }",
    "int main() { string s = \"ab\"; reverse(s.begin(), s.end()); }",
    "int main() { vector<int> v; reverse(v.begin()); }",
    "int main() { int a = 1; swap(a); }",
    "int main() { cout << sqrt(-1.0); }",
    "int main() { string s = \"abc\"; cout << s - 1; }",
    "int main() { string s = \"abc\"; cout << -s; }",
    "int main() { vector<int> v; if (v) cout << 1; }",
    "int main() { vector<int> v; while (!v) {} }",
    "int main() { string s = \"abc\"; cout << ~s; }",
    "int main() { vector<int> v; v[\"ab\"] = 1; }",
    "int main() { int n; cin >> n; }",
    "int main() { vector<int> v; vector<int> w(v); }",
    "int main() { vector<vector<int>> g(2, vector<int>(2, 0)); g[1][5]++; }",
    "int main() { map<int, int> m; m[1].first = 3; }",
    "int main() { for (int i = 0; i < 10; i++) { int j = i; } cout << j; }",
    "int main() { int a = -1; cout << (1 << a); }",
    "int main() { long long a = 1099511627776LL; cout << (1 << a); }",
    "int main() { int a = 8; a >>= 64; }",
    "int main() { cout << 1; break; }",
    "void f() { continue; } int main() { f(); }",
    "int main() { set<int> s, t; cout << (s == t); }",
    "int main() { vector<int> v; cout << (v < 1); }",
    "int main() { vector<vector<int>> g(1); cout << (g == 3); }",
    "int main() { vector<set<int>> a(1), b(1); cout << (a != b); }",
    "int main() { pair<int, int> p; cout << (p < 2); }",
    "int main() { pair<int, map<int, int>> p, q; cout << (p == q); }",
    "int main() { vector<set<int>> a(2); sort(a.begin(), a.end()); }",
    "int main() { pair<int, int> p; cout << max(p, 1).first; }",
    "int main() { vector<int> v; set<int> s; min(v, s); }",
    "int main() { set<int> s, t; max(s, t); }",
    "int main() { vector<int> v; pair<int, int> p; max(v, p); }",
    "int main() { priority_queue<set<int>> q; set<int> s; q.push(s); }",
    "int main() { priority_queue<vector<map<int, int>>> q; "
    "vector<map<int, int>> v(1); q.push(v); }",
]


CONTAINER_COMPARISONS = {
    "equal": """
        int main() {
            vector<int> a(3, 1), b(3, 1);
            cout << (a == b) << (a != b) << (a < b) << (a <= b)
                 << (a > b) << (a >= b);
        }""",
    "ordered": """
        int main() {
            int n; cin >> n;
            vector<int> a, b;
            for (int i = 0; i < n; i++) { a.push_back(i); b.push_back(i); }
            b.push_back(0);
            if (n > 2) b[2] = -1;
            cout << (a == b) << (a < b) << (b < a) << (a >= b);
            b.pop_back();
            cout << (a == b) << (a != b) << (b <= a);
        }""",
    "nested_and_typed": """
        int main() {
            vector<vector<int>> g(3, vector<int>(2, 4)), h(3, vector<int>(2, 4));
            h[2][1] = 5;
            vector<double> x(2, 0.5), y(2, 0.25);
            vector<char> c(2, 'a'), d(2, 'b');
            vector<string> s(1, "ab"), t(1, "b");
            vector<pair<int, int>> p(2), q(2);
            q[1].second = 1;
            cout << (g < h) << (g == h) << (x > y) << (c < d) << (s < t)
                 << (p < q) << (p == q);
        }""",
    "pairs_with_vectors": """
        int main() {
            int n; cin >> n;
            pair<int, vector<int>> a, b;
            cout << (a < b) << (a == b) << (a != b) << (a >= b);
            for (int i = 0; i < n; i++) { a.second.push_back(i); b.second.push_back(i); }
            cout << (a == b) << (a < b);
            b.second.push_back(0);
            cout << (a < b) << (a == b) << (b > a);
            vector<pair<int, vector<int>>> v(2, b), w(2, a);
            cout << (v == w) << (w < v);
        }""",
    "sorted_rows": """
        int main() {
            int n; cin >> n;
            vector<vector<int>> g(n + 1);
            for (int i = 0; i <= n; i++)
                for (int j = 0; j < (i * 7) % 4; j++) g[i].push_back((i + j * 3) % 5);
            sort(g.begin(), g.end());
            for (int i = 0; i <= n; i++) {
                cout << g[i].size();
                for (int j = 0; j < g[i].size(); j++) cout << g[i][j];
            }
            sort(g.rbegin(), g.rend());
            cout << g[0].size() << g[n].size();
            vector<pair<vector<int>, int>> p(n + 1);
            for (int i = 0; i <= n; i++) { p[i].first = g[i]; p[i].second = -i; }
            sort(p.begin(), p.end());
            cout << p[0].second << p[n].second;
        }""",
}


@pytest.mark.parametrize("name", sorted(CONTAINER_COMPARISONS))
def test_container_comparisons(name):
    assert_equivalent(CONTAINER_COMPARISONS[name], ["0", "2", "5"])


#: Programs whose C++ output the judge and the oracle once both got
#: wrong, with that output on inputs "0", "2" and "5".
CPP_OUTPUTS = {
    "max_min_of_composites": ("""
        int main() {
            int n; cin >> n;
            vector<int> a(n, 1), b(n + 1, 1);
            if (n > 1) b[1] = 0;
            vector<int> hi = max(a, b), lo = min(a, b);
            cout << hi.size() << lo.size() << max(n, 3) << min(n, 3) << ' ';
            pair<int, vector<int>> p, q;
            q.second = a;
            p.first = n % 2;
            pair<int, vector<int>> r = max(p, q), s = min(p, q);
            cout << r.first << r.second.size() << s.first << s.second.size();
            vector<vector<int>> g(n + 1, a), h(n + 1, b);
            cout << ' ' << max(g, h).size() << min(h, g).size();
        }""", ["1030 0000 11", "2332 0200 33", "5653 1005 66"]),
    "running_max_min": ("""
        int main() {
            int n; cin >> n;
            vector<vector<int>> rows;
            for (int i = 0; i < n; i++) {
                vector<int> r;
                for (int j = 0; j <= i % 3; j++) r.push_back((i * 7 + j * 3) % 5);
                rows.push_back(r);
            }
            vector<int> best, worst(4, 9);
            pair<int, int> top, low;
            low.first = 9;
            for (int i = 0; i < n; i++) {
                best = max(best, rows[i]);
                worst = min(worst, rows[i]);
                pair<int, int> p;
                p.first = rows[i][0];
                p.second = i;
                top = max(top, p);
                low = min(low, p);
            }
            for (int j = 0; j < best.size(); j++) cout << best[j];
            cout << ' ';
            for (int j = 0; j < worst.size(); j++) cout << worst[j];
            cout << ' ' << top.first << top.second << ' ' << low.first << low.second;
        }""", [" 9999 00 90", "20 0 21 00", "420 0 42 00"]),
    "max_min_copies": ("""
        int main() {
            int n; cin >> n;
            vector<int> a(n, 1), b(n, 2);
            vector<int> c = max(a, b), d = min(b, a);
            c.push_back(7);
            d.push_back(8);
            c[0] = 5;
            cout << a.size() << b.size() << c.size() << d.size() << c[0] << d[n];
            cout << ' ' << (n > 0 ? b[0] + a[n - 1] : 0);
        }""", ["001158 0", "223358 3", "556658 3"]),
    "keys_by_value": ("""
        int main() {
            int n; cin >> n;
            map<vector<int>, int> m;
            set<vector<int>> s;
            set<pair<int, vector<int>>> t;
            for (int i = 0; i < 2 * n; i++) {
                vector<int> v(i % 3, i % 2);
                m[v] += i;
                s.insert(v);
                pair<int, vector<int>> p;
                p.first = i % 2;
                p.second = v;
                t.insert(p);
            }
            cout << m.size() << s.size() << t.size() << ' ';
            vector<int> e;
            cout << m.count(e) << s.count(e) << m[e] << ' ';
            s.erase(e);
            cout << s.size() << m.size();
        }""", ["000 000 01", "334 113 23", "556 1118 45"]),
    "dijkstra_over_pairs": ("""
        int main() {
            int n; cin >> n;
            vector<vector<pair<int, int>>> adj(n + 1);
            for (int i = 0; i < n; i++) {
                pair<int, int> next;
                next.first = i + 1;
                next.second = (i * 7) % 5 + 1;
                adj[i].push_back(next);
                if (i + 2 <= n) {
                    pair<int, int> skip;
                    skip.first = i + 2;
                    skip.second = 4;
                    adj[i].push_back(skip);
                }
            }
            vector<int> dist(n + 1, 1000000);
            dist[0] = 0;
            priority_queue<pair<int, int>> pq;
            pair<int, int> start;
            pq.push(start);
            int pops = 0;
            while (!pq.empty()) {
                pair<int, int> top = pq.top();
                pq.pop();
                pops++;
                int d = -top.first, u = top.second;
                if (d > dist[u]) continue;
                for (int k = 0; k < adj[u].size(); k++) {
                    int v = adj[u][k].first, w = adj[u][k].second;
                    if (dist[u] + w < dist[v]) {
                        dist[v] = dist[u] + w;
                        pair<int, int> entry;
                        entry.first = -dist[v];
                        entry.second = v;
                        pq.push(entry);
                    }
                }
            }
            for (int i = 0; i <= n; i++) cout << dist[i] << ' ';
            cout << pops;
        }""", ["0 1", "0 1 4 3", "0 1 4 5 7 9 7"]),
    "priority_queue_of_vectors": ("""
        int main() {
            int n; cin >> n;
            priority_queue<vector<int>> pq;
            for (int i = 0; i < n; i++) {
                vector<int> row;
                for (int j = 0; j <= i % 3; j++) row.push_back((i * 7 + j * 3) % 5);
                pq.push(row);
            }
            vector<int> e;
            pq.push(e);
            while (!pq.empty()) {
                vector<int> r = pq.top();
                pq.pop();
                cout << r.size();
                for (int j = 0; j < r.size(); j++) cout << r[j];
                cout << ' ';
            }
        }""", ["0 ", "220 10 0 ", "3420 231 220 11 10 0 "]),
    "nested_keys_by_value": ("""
        int main() {
            int n; cin >> n;
            set<vector<vector<int>>> s;
            map<pair<vector<int>, int>, int> m;
            for (int i = 0; i < 2 * n; i++) {
                vector<vector<int>> g(i % 2, vector<int>(i % 3, 1));
                s.insert(g);
                pair<vector<int>, int> k;
                k.first = vector<int>(i % 2, i % 3);
                k.second = i % 2;
                m[k] += 1;
            }
            cout << s.size() << m.size() << ' ';
            pair<vector<int>, int> e;
            cout << m.count(e) << m[e];
        }""", ["00 00", "33 12", "44 15"]),
    # a push stores a copy: changing the variable afterwards leaves the
    # pushed pair or (empty) container as it was
    "push_stores_a_copy": ("""
        int main() {
            int n; cin >> n;
            vector<pair<int, int>> v;
            queue<pair<int, int>> q;
            vector<vector<int>> g;
            pair<int, int> p;
            vector<int> row;
            v.push_back(p);
            q.push(p);
            g.push_back(row);
            p.first = 5;
            for (int i = 0; i < n; i++) row.push_back(i);
            cout << v[0].first << q.front().first << g[0].size();
        }""", ["000", "000", "000"]),
}


@pytest.mark.parametrize("name", sorted(CPP_OUTPUTS))
def test_cpp_outputs(name):
    source, expected = CPP_OUTPUTS[name]
    outcomes = assert_equivalent(source, ["0", "2", "5"])
    assert [outcome[0] for outcome in outcomes] == expected


@pytest.mark.parametrize("source", FAULT_PROGRAMS)
def test_faults(source):
    (outcome,) = assert_equivalent(source)
    assert outcome[0] in ("RuntimeFault", "InputExhausted"), outcome


IO_PROGRAMS = {
    "typed_reads": """
        int main() {
            int n; long long big; double d; char c; string s;
            cin >> n >> big >> d >> c >> s;
            vector<double> xs(2, 0); cin >> xs[0] >> xs[1];
            vector<string> words(1); cin >> words[0];
            pair<int, double> p; cin >> p.first >> p.second;
            map<int, string> m; cin >> m[4];
            cout << n << big << d << c << s << xs[0] + xs[1] << words[0]
                 << p.first << p.second << m[4];
        }""",
    "read_past_end": "int main() { int a, b; cin >> a >> b; cout << a; }",
    "bad_int_token": "int main() { int a; cin >> a; cout << a; }",
    "bad_double_token": "int main() { double d; cin >> d; cout << d; }",
}


@pytest.mark.parametrize("name", sorted(IO_PROGRAMS))
def test_io(name):
    assert_equivalent(IO_PROGRAMS[name],
                      ["7 9000000000 2.5 x word 1.5 2.25 hi 3 4.5 four",
                       "1", "x"])


def test_one_interpreter_run_twice_carries_state():
    unit = parse("int g = 0; int main() { g++; int s = 0;"
                 " for (int i = 0; i < 5; i++) s += i; cout << g << s; }")
    reference = ReferenceInterpreter(unit, memory_probe_interval=4)
    compiled = Interpreter(compile_program(unit), memory_probe_interval=4)
    for _ in range(3):
        expected = reference.run("")
        result = compiled.run("")
        assert (result.stdout, result.cycles, result.peak_elements) == \
            (expected.stdout, expected.cycles, expected.peak_elements)


def test_compiled_program_is_reused_across_runs():
    """One compilation serves many runs with no state leaking between
    them (the judge compiles once per submission)."""
    family = FAMILIES[TABLE1_TAGS.index("A")]
    source = family.generate(np.random.default_rng(2)).source
    inputs = [t.input_text for t in family.spec().tests]
    unit = parse(source)
    program = compile_program(unit)
    first = [compiled_outcome(program, stdin) for stdin in inputs]
    second = [compiled_outcome(program, stdin) for stdin in reversed(inputs)]
    assert first == second[::-1]
    assert first == [reference_outcome(unit, stdin) for stdin in inputs]


# ---------------------------------------------------------------------------
# where the reference crashed with a non-JudgeError, the defined result
# ---------------------------------------------------------------------------
DEFINED_NOW = {
    # bitwise operators evaluated every alternative: -1 as a shift count
    "int main() { int a = 12; cout << (a & -1); }": "12",
    "int main() { int a = 12; a &= -1; cout << a; }": "12",
    "int main() { int a = 12; cout << (a | -1) << (a ^ -1); }": "-1-13",
    # comparisons evaluated every relation: '<' between int and char
    "int main() { int a = 7; char c = 'a'; cout << (a < c); }": "1",
    "int main() { cout << (7 == 'a') << ('a' == 97) << ('b' > 97); }": "011",
    'int main() { string s = "abc"; cout << (s == 5) << (s != 5); }': "01",
}


@pytest.mark.parametrize("source", sorted(DEFINED_NOW))
def test_reference_crash_is_now_defined(source):
    unit = parse(source)
    crashed = reference_outcome(unit)
    assert crashed[0] in ("ValueError", "TypeError"), crashed
    assert compiled_outcome(compile_program(unit))[0] == DEFINED_NOW[source]


# ---------------------------------------------------------------------------
# random programs: scopes, jumps and calls in arbitrary nestings
# ---------------------------------------------------------------------------
NAMES = ("a", "b", "c")


@st.composite
def expressions(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(st.sampled_from(
            [*NAMES, "0", "1", "2", "7", "-3", "'x'", "v[1]"]))
    # No '*': squaring in a loop doubles a number's size per operation
    # while the cost model charges a constant.
    op = draw(st.sampled_from(["+", "-", "/", "%", "<", "==", "&&"]))
    left = draw(expressions(depth + 1))
    right = draw(expressions(depth + 1))
    if draw(st.integers(0, 5)) == 0:
        return f"twice({left})"
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=0):
    name = draw(st.sampled_from(NAMES))
    expr = draw(expressions())
    simple = [
        f"int {name} = {expr};",
        f"{name} = {expr};",
        f"{name} += {expr};",
        f"{name}++;",
        f"cout << {expr} << ' ';",
        f"bump({name});",
        f"bump({expr});",
        "break;", "continue;", f"return {expr};",
        f"vector<int> {name}(3, {expr});",
    ]
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(simple))
    body = draw(statements(depth + 1))
    other = draw(statements(depth + 1))
    cond = draw(expressions())
    compound = [
        f"if ({cond}) {body}",
        f"if ({cond}) {body} else {other}",
        f"while ({cond}) {body}",
        f"for (int {name} = 0; {name} < 3; {name}++) {body}",
        f"do {body} while ({cond});",
        f"{{ {body} {other} }}",
    ]
    return draw(st.sampled_from(compound))


@st.composite
def programs(draw):
    main = " ".join(draw(st.lists(statements(), min_size=1, max_size=6)))
    helper = " ".join(draw(st.lists(statements(), max_size=3)))
    return ("int a = 5; vector<int> v(3, 4);"
            "int twice(int x) { return x * 2; }"
            f"int bump(int &r) {{ r++; {helper} return r; }}"
            f"int main() {{ int b = 1; {main} cout << a << b; }}")


@settings(max_examples=100, deadline=None)
@given(source=programs())
def test_random_programs_match(source):
    options = {"max_cycles": 4000, "memory_probe_interval": 3}
    unit = parse(source)
    expected = reference_outcome(unit, **options)
    if expected[0] in ("TypeError", "ValueError"):
        return      # a reference crash: the DEFINED_NOW cases cover these
    assert compiled_outcome(compile_program(unit), **options) == expected
