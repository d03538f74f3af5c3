"""Interpreter correctness tests: run small programs, check stdout."""

import pytest

from repro.judge import CostModel, Interpreter, RuntimeFault, TimeLimitExceeded
from repro.judge.errors import InputExhausted
from repro.lang import parse


def run(source: str, stdin: str = "") -> str:
    return Interpreter(parse(source)).run(stdin).stdout


class TestScalars:
    def test_arithmetic(self):
        out = run("int main() { cout << 2 + 3 * 4 << endl; return 0; }")
        assert out == "14\n"

    def test_integer_division_truncates_toward_zero(self):
        out = run("int main() { cout << 7 / 2 << ' ' << (-7) / 2; return 0; }")
        assert out.split() == ["3", "-3"]

    def test_modulo_sign_follows_dividend(self):
        out = run("int main() { cout << 7 % 3 << ' ' << (-7) % 3; return 0; }")
        assert out.split() == ["1", "-1"]

    def test_division_by_zero(self):
        with pytest.raises(RuntimeFault, match="division by zero"):
            run("int main() { int x = 0; cout << 5 / x; return 0; }")

    def test_comparisons_and_logical(self):
        out = run("int main() { cout << (1 < 2 && 3 > 2) << (1 == 2 || 0); }")
        assert out == "10"

    def test_short_circuit_and(self):
        # RHS would divide by zero; && must not evaluate it.
        out = run("int main() { int z = 0; "
                  "if (z != 0 && 10 / z > 1) cout << 1; else cout << 2; }")
        assert out == "2"

    def test_increment_decrement(self):
        out = run("int main() { int i = 5; cout << i++ << i << ++i << --i; }")
        assert out == "5676"

    def test_compound_assign(self):
        out = run("int main() { int x = 10; x += 5; x *= 2; x %= 7; cout << x; }")
        assert out == str(((10 + 5) * 2) % 7)

    def test_ternary(self):
        out = run("int main() { int a = 3, b = 7; cout << (a > b ? a : b); }")
        assert out == "7"

    def test_bit_ops(self):
        out = run("int main() { cout << (1 << 4) << ' ' << (12 & 10) << ' ' "
                  "<< (12 ^ 10); }")
        assert out.split() == ["16", "8", "6"]

    def test_char_arithmetic(self):
        out = run("int main() { char c = 'b'; cout << c - 'a'; }")
        assert out == "1"

    def test_float_output_format(self):
        out = run("int main() { double x = 1.5; cout << x; }")
        assert out == "1.500000"

    def test_cast(self):
        out = run("int main() { double x = 7.9; cout << (int)(x); }")
        assert out == "7"


class TestOperatorsComputeOnlyTheRequestedResult:
    """Each operator computes its own result only: evaluating every
    alternative used to crash the judge on valid C++."""

    def test_and_with_negative_operand(self):
        # evaluating a << -1 as well would raise ValueError
        assert run("int main() { int a = 12; cout << (a & -1); }") == "12"

    def test_compound_and_with_negative_operand(self):
        assert run("int main() { int a = 12; a &= -1; cout << a; }") == "12"

    def test_and_with_huge_mask(self):
        # evaluating a << 2**40 as well would raise MemoryError
        out = run("int main() { long long a = 12; "
                  "cout << (a & 1099511627776LL); }")
        assert out == "0"

    def test_int_compared_with_char_by_character_code(self):
        # Python's '<' between int and str raises TypeError
        out = run("int main() { int a = 7; char c = 'a'; "
                  "cout << (a < c) << (a > c) << (98 > c); }")
        assert out == "101"

    def test_int_literal_equals_char_literal(self):
        out = run("int main() { cout << (7 == 'a') << (97 == 'a'); }")
        assert out == "01"


class TestUndefinedOperationsFault:
    """Operations C++ leaves undefined are runtime faults, which the
    judge reports as a verdict, not Python errors that escape it."""

    def test_negative_shift_count(self):
        # Python raises ValueError: negative shift count
        with pytest.raises(RuntimeFault, match="shift count -1"):
            run("int main() { int a; cin >> a; cout << (1 << a); }", "-1")

    def test_huge_shift_count(self):
        # Python raises MemoryError building a 2**40-bit integer
        with pytest.raises(RuntimeFault, match="shift count 1099511627776"):
            run("int main() { long long a; cin >> a; a = 1 << a; "
                "cout << a; }", "1099511627776")

    def test_shift_count_bound_applies_to_right_shift(self):
        assert run("int main() { cout << (-8 >> 63); }") == "-1"
        with pytest.raises(RuntimeFault, match="shift count 64"):
            run("int main() { int a = 64; cout << (8 >> a); }")

    def test_cin_int_on_a_word(self):
        # Python raises ValueError: invalid literal for int()
        with pytest.raises(RuntimeFault, match="cin expected int, got 'abc'"):
            run("int main() { int a; cin >> a; cout << a; }", "abc")

    def test_cin_double_on_a_word(self):
        with pytest.raises(RuntimeFault,
                           match="cin expected float, got 'abc'"):
            run("int main() { double d; cin >> d; cout << d; }", "abc")

    def test_break_outside_a_loop(self):
        # escaped as the interpreter's private break signal
        with pytest.raises(RuntimeFault, match="break outside a loop"):
            run("int main() { cout << 1; break; }")

    def test_continue_outside_a_loop_in_a_callee(self):
        with pytest.raises(RuntimeFault, match="continue outside a loop"):
            run("void f() { continue; } int main() { f(); cout << 1; }")


class TestControlFlow:
    def test_for_loop_sum(self):
        out = run("int main() { int s = 0; "
                  "for (int i = 1; i <= 10; i++) s += i; cout << s; }")
        assert out == "55"

    def test_while_loop(self):
        out = run("int main() { int n = 100, steps = 0; "
                  "while (n > 1) { n /= 2; steps++; } cout << steps; }")
        assert out == "6"

    def test_do_while_runs_once(self):
        out = run("int main() { int n = 0; do { n++; } while (n < 0); cout << n; }")
        assert out == "1"

    def test_break_continue(self):
        out = run("int main() { int s = 0; for (int i = 0; i < 10; i++) {"
                  "if (i % 2 == 0) continue; if (i > 6) break; s += i; }"
                  "cout << s; }")
        assert out == str(1 + 3 + 5)

    def test_nested_loops(self):
        out = run("int main() { int c = 0; for (int i = 0; i < 4; i++)"
                  "for (int j = 0; j < 3; j++) c++; cout << c; }")
        assert out == "12"

    def test_scoping_shadows(self):
        out = run("int main() { int x = 1; { int x = 2; cout << x; } cout << x; }")
        assert out == "21"

    def test_infinite_loop_hits_cycle_limit(self):
        unit = parse("int main() { while (true) { } return 0; }")
        interp = Interpreter(unit, max_cycles=10_000)
        with pytest.raises(TimeLimitExceeded):
            interp.run("")


class TestFunctions:
    def test_call_and_return(self):
        out = run("int square(int x) { return x * x; }"
                  "int main() { cout << square(7); }")
        assert out == "49"

    def test_recursion(self):
        out = run("int fib(int n) { if (n < 2) return n; "
                  "return fib(n - 1) + fib(n - 2); }"
                  "int main() { cout << fib(10); }")
        assert out == "55"

    def test_by_value_copies_vector(self):
        out = run("void f(vector<int> v) { v.push_back(99); }"
                  "int main() { vector<int> v; v.push_back(1); f(v); "
                  "cout << v.size(); }")
        assert out == "1"

    def test_by_ref_mutates(self):
        out = run("void f(vector<int> &v) { v.push_back(99); }"
                  "int main() { vector<int> v; f(v); cout << v.size(); }")
        assert out == "1"

    def test_globals_shared(self):
        out = run("int counter = 0;"
                  "void bump() { counter++; }"
                  "int main() { bump(); bump(); cout << counter; }")
        assert out == "2"

    def test_missing_main(self):
        with pytest.raises(RuntimeFault, match="no main"):
            Interpreter(parse("int helper() { return 1; }")).run("")

    def test_unknown_function(self):
        with pytest.raises(RuntimeFault, match="unknown function"):
            run("int main() { frobnicate(1); }")


class TestIO:
    def test_cin_int(self):
        out = run("int main() { int a, b; cin >> a >> b; cout << a + b; }",
                  "3 4")
        assert out == "7"

    def test_cin_string_and_char(self):
        out = run("int main() { string s; char c; cin >> s >> c; "
                  "cout << s << '|' << c; }", "hello x")
        assert out == "hello|x"

    def test_cin_double(self):
        out = run("int main() { double d; cin >> d; cout << d * 2; }", "1.25")
        assert out == "2.500000"

    def test_cin_into_vector_element(self):
        out = run("int main() { int n; cin >> n; vector<int> v(n, 0);"
                  "for (int i = 0; i < n; i++) cin >> v[i];"
                  "cout << v[0] + v[n - 1]; }", "3 10 20 30")
        assert out == "40"

    def test_input_exhausted(self):
        with pytest.raises(InputExhausted):
            run("int main() { int a; cin >> a; }", "")


class TestContainers:
    def test_vector_ops(self):
        out = run("int main() { vector<int> v; v.push_back(3); v.push_back(1);"
                  "v.push_back(2); sort(v.begin(), v.end());"
                  "for (int i = 0; i < v.size(); i++) cout << v[i]; }")
        assert out == "123"

    def test_sort_descending_with_rbegin(self):
        out = run("int main() { vector<int> v; v.push_back(1); v.push_back(3);"
                  "v.push_back(2); sort(v.rbegin(), v.rend());"
                  "for (int i = 0; i < 3; i++) cout << v[i]; }")
        assert out == "321"

    def test_vector_out_of_range(self):
        with pytest.raises(RuntimeFault, match="out of range"):
            run("int main() { vector<int> v; cout << v[0]; }")

    def test_array_2d(self):
        out = run("int main() { int g[3][3]; g[1][2] = 9; cout << g[1][2] + g[0][0]; }")
        assert out == "9"

    def test_map_operations(self):
        out = run("int main() { map<string, int> m; m[\"a\"] = 1; m[\"a\"] += 2;"
                  "cout << m[\"a\"] << m.count(\"a\") << m.count(\"b\"); }")
        assert out == "310"

    def test_set_operations(self):
        out = run("int main() { set<int> s; s.insert(1); s.insert(1); s.insert(2);"
                  "cout << s.size() << s.count(1); s.erase(1); cout << s.size(); }")
        assert out == "211"

    def test_multiset_counts(self):
        out = run("int main() { multiset<int> s; s.insert(5); s.insert(5);"
                  "cout << s.count(5) << s.size(); }")
        assert out == "22"

    def test_pair_member_access(self):
        out = run("int main() { pair<int, int> p; p.first = 3; p.second = 4;"
                  "cout << p.first * p.second; }")
        assert out == "12"

    def test_queue_stack(self):
        out = run("int main() { queue<int> q; q.push(1); q.push(2);"
                  "cout << q.front(); q.pop(); cout << q.front();"
                  "stack<int> s; s.push(7); s.push(8); cout << s.top(); }")
        assert out == "128"

    def test_priority_queue_max_heap(self):
        out = run("int main() { priority_queue<int> pq; pq.push(2); pq.push(9);"
                  "pq.push(5); cout << pq.top(); pq.pop(); cout << pq.top(); }")
        assert out == "95"

    def test_string_methods(self):
        out = run('int main() { string s = "abcdef"; cout << s.size() << " "'
                  '<< s.substr(1, 3); }')
        assert out.split() == ["6", "bcd"]

    def test_string_concat(self):
        out = run('int main() { string a = "foo"; string b = a + "bar"; cout << b; }')
        assert out == "foobar"

    def test_reverse(self):
        out = run("int main() { vector<int> v; for (int i = 0; i < 4; i++)"
                  "v.push_back(i); reverse(v.begin(), v.end());"
                  "for (int i = 0; i < 4; i++) cout << v[i]; }")
        assert out == "3210"

    def test_vector_assignment_is_deep_copy(self):
        out = run("int main() { vector<int> a; a.push_back(1); vector<int> b = a;"
                  "b.push_back(2); cout << a.size() << b.size(); }")
        assert out == "12"

    @pytest.mark.parametrize("source", [
        # a pair pushed, then the variable changed: g++ prints 0
        "int main() { vector<pair<int, int>> v; pair<int, int> p; "
        "v.push_back(p); p.first = 5; cout << v[0].first; }",
        # the same through a queue
        "int main() { queue<pair<int, int>> q; pair<int, int> p; "
        "q.push(p); p.first = 5; cout << q.front().first; }",
        # an empty row pushed, then grown
        "int main() { vector<vector<int>> g; vector<int> row; "
        "g.push_back(row); row.push_back(1); cout << g[0].size(); }",
        "int main() { stack<pair<int, int>> s; pair<int, int> p; "
        "s.push(p); p.first = 5; cout << s.top().first; }",
        "int main() { priority_queue<pair<int, int>> q; pair<int, int> p; "
        "q.push(p); p.first = 5; cout << q.top().first; }",
        "int main() { vector<vector<int>> g; vector<int> row; "
        "g.emplace_back(row); row.push_back(1); cout << g[0].size(); }",
    ])
    def test_push_stores_a_copy(self, source):
        assert run(source) == "0"


class TestContainerComparisons:
    """Two vectors compare as std::vector does and two pairs member-wise,
    vector members included; any other comparison with a pair or
    container operand is a RuntimeFault."""

    def test_equal_vectors(self):
        out = run("int main() { vector<int> a(3, 1), b(3, 1); "
                  "cout << (a == b) << (a != b) << (a < b) << (a <= b) "
                  "<< (a > b) << (a >= b); }")
        assert out == "100101"

    def test_lexicographic_order(self):
        out = run("int main() { vector<int> a, b; a.push_back(1); "
                  "a.push_back(2); b.push_back(1); b.push_back(3); "
                  "cout << (a < b) << (a > b) << (b >= a) << (a == b); }")
        assert out == "1010"

    def test_prefix_sorts_first(self):
        out = run("int main() { vector<int> a(1, 1), b(2, 1); b[1] = 0; "
                  "cout << (a < b) << (a == b) << (b > a); }")
        assert out == "101"

    def test_nested_vectors(self):
        out = run("int main() { vector<vector<int>> g(2, vector<int>(2, 0)),"
                  " h(2, vector<int>(2, 0)); h[1][1] = 1; "
                  "cout << (g == h) << (g < h) << (h > g); }")
        assert out == "011"

    def test_charges_one_compare_per_element_pair_examined(self):
        def cycles(declare, fill_b, op):
            source = ("int main() { %s int r = (a %s b); }"
                      % (declare % fill_b, op))
            return Interpreter(parse(source)).run("").cycles

        compare = CostModel().compare
        # equal: all 10 pairs examined; unequal at index 0: one pair. A
        # pair's vector member (after equal int members) charges alike.
        for declare in ("vector<int> a(10, 1), b(10, %d);",
                        "pair<int, vector<int>> a, b; for (int i = 0; "
                        "i < 10; i++) { a.second.push_back(1); "
                        "b.second.push_back(%d); }"):
            assert cycles(declare, 1, "==") - cycles(declare, 2, "==") \
                == 9 * compare
            assert cycles(declare, 1, "<") - cycles(declare, 2, "<") \
                == 9 * compare
        # sizes differ: == examines no pair, < the 3 of the shorter
        def sized(op):
            return Interpreter(parse(
                "int main() { vector<int> a(10, 1), b(3, 1); "
                "int r = (a %s b); }" % op)).run("").cycles

        assert sized("<") - sized("==") == 3 * compare

    def test_sort_orders_rows_lexicographically(self):
        rows = ("for (int i = 0; i < 3; i++) { for (int j = 0; "
                "j < g[i].size(); j++) cout << g[i][j]; cout << ' '; } ")
        out = run("int main() { vector<vector<int>> g(3); g[0].push_back(2);"
                  " g[1].push_back(1); g[1].push_back(5); g[2].push_back(1);"
                  " sort(g.begin(), g.end()); " + rows +
                  "sort(g.rbegin(), g.rend()); " + rows + "}")
        assert out == "1 15 2 2 15 1 "

    def test_sort_of_rows_charges_a_flat_cost(self):
        # Rows equal but for their last element make every comparison
        # examine all 20 elements; rows differing first examine one.
        def cycles(first, last):
            return Interpreter(parse(
                "int main() { vector<vector<int>> g(6, vector<int>(20, 1));"
                " for (int i = 0; i < 6; i++) { g[i][0] = %s; "
                "g[i][19] = %s; } sort(g.begin(), g.end()); }"
                % (first, last))).run("").cycles

        assert cycles("6 - i", "1") == cycles("1", "6 - i")

    def test_pairs_with_vector_members(self):
        out = run("int main() { pair<int, vector<int>> a, b; "
                  "cout << (a < b) << (a == b) << (a != b) << (a <= b); "
                  "b.second.push_back(1); "
                  "cout << (a < b) << (a == b) << (b > a); a.first = 1; "
                  "cout << (a < b) << (a > b); }")
        assert out == "0101" + "101" + "01"

    def test_max_min_of_pairs_and_vectors(self):
        # C++: max is (a < b) ? b : a, min is (b < a) ? b : a
        out = run("int main() { pair<int, int> a, b; b.first = 1; "
                  "a.second = 5; pair<int, int> c = max(a, b), "
                  "d = min(a, b); cout << c.first << c.second << d.first "
                  "<< d.second; }")
        assert out == "1005"
        out = run("int main() { vector<int> a(2, 1), b(3, 0), p(3, 1); "
                  "cout << max(a, b).size() << min(a, b).size() "
                  "<< max(a, p).size() << min(a, p).size(); }")
        assert out == "2332"

    def test_max_min_of_nested_vectors(self):
        out = run("int main() { vector<vector<int>> g(2, vector<int>(2, 1)),"
                  " h(2, vector<int>(2, 1)); h[1][1] = 0; "
                  "cout << max(g, h)[1][1] << min(g, h)[1][1]; }")
        assert out == "10"

    def test_max_min_return_a_copy(self):
        # C++ copies the returned reference into c; b is untouched.
        out = run("int main() { vector<int> a(2, 1), b(2, 2); "
                  "vector<int> c = max(a, b); c[0] = 5; c.push_back(7); "
                  "cout << b[0] << b.size() << c[0] << c.size(); }")
        assert out == "2253"

    def test_max_min_charge_as_less_than_does(self):
        def cycles(statement, fill_b):
            return Interpreter(parse(
                "int main() { vector<int> a(10, 1), b(10, %d); %s; }"
                % (fill_b, statement))).run("").cycles

        for fill_b in (1, 2):
            assert cycles("max(a, b)", fill_b) == cycles("a < b", fill_b)
            assert cycles("min(a, b)", fill_b) == cycles("b < a", fill_b)
        assert cycles("max(a, b)", 1) - cycles("max(a, b)", 2) \
            == 9 * CostModel().compare

    def test_priority_queue_of_pairs(self):
        # Dijkstra's idiom: a max-heap of (-distance, node) pairs pops
        # the nearest node first, ties broken by the larger node.
        out = run("int main() { priority_queue<pair<int, int>> q; "
                  "for (int i = 0; i < 4; i++) { pair<int, int> p; "
                  "p.first = -(i % 2); p.second = i; q.push(p); } "
                  "while (!q.empty()) { cout << q.top().first "
                  "<< q.top().second << ' '; q.pop(); } }")
        assert out == "02 00 -13 -11 "

    def test_priority_queue_of_vectors(self):
        out = run("int main() { priority_queue<vector<int>> q; "
                  "vector<int> a(2, 1), b(3, 1), c(1, 2), e; b[2] = 0; "
                  "q.push(a); q.push(e); q.push(c); q.push(b); "
                  "while (!q.empty()) { cout << q.top().size(); q.pop(); } }")
        assert out == "1320"

    def test_map_and_set_keys_compare_by_value(self):
        out = run("int main() { vector<int> a(2, 1), b(2, 1); "
                  "map<vector<int>, int> m; m[a] = 1; m[b] = 2; "
                  "set<vector<int>> s; s.insert(a); s.insert(b); "
                  "cout << m.size() << s.size() << m[a] << s.count(b); "
                  "a.push_back(3); cout << s.count(a) << m.count(a); "
                  "s.erase(b); cout << s.size(); }")
        assert out == "1121" + "00" + "0"
        out = run("int main() { map<pair<int, vector<int>>, int> m; "
                  "pair<int, vector<int>> p, q; m[p] = 1; m[q] = 2; "
                  "cout << m.size() << m[p]; }")
        assert out == "12"

    def test_nested_keys_compare_by_value(self):
        out = run("int main() { set<vector<vector<int>>> s; "
                  "vector<vector<int>> g(2, vector<int>(1, 3)), "
                  "h(2, vector<int>(1, 3)); s.insert(g); s.insert(h); "
                  "cout << s.size(); h[0][0] = 4; s.insert(h); "
                  "cout << s.size() << s.count(g); }")
        assert out == "1" + "21"
        out = run("int main() { map<pair<vector<int>, int>, int> m; "
                  "pair<vector<int>, int> p, q; p.first.push_back(1); "
                  "q.first.push_back(1); m[p] = 3; m[q] += 4; "
                  "q.second = 1; cout << m.size() << m[p] << m.count(q); }")
        assert out == "170"

    @pytest.mark.parametrize("source", [
        "int main() { set<int> s, t; cout << (s == t); }",
        "int main() { vector<int> v; cout << (v == 1); }",
        "int main() { vector<int> v; cout << (2 < v); }",
        "int main() { map<int, int> m; cout << (m < m); }",
        "int main() { vector<set<int>> a(1), b(1); cout << (a == b); }",
        "int main() { pair<int, int> p; cout << (p == 1); }",
        "int main() { pair<int, set<int>> p, q; cout << (p < q); }",
        "int main() { vector<set<int>> a(2); sort(a.begin(), a.end()); }",
        "int main() { priority_queue<set<int>> q; set<int> s; q.push(s); }",
        "int main() { priority_queue<pair<int, map<int, int>>> q; "
        "pair<int, map<int, int>> p; q.push(p); }",
        "int main() { pair<int, int> p; max(p, 1); }",
        "int main() { vector<int> v; set<int> s; min(v, s); }",
        "int main() { set<int> s, t; max(s, t); }",
        "int main() { vector<int> v; pair<int, int> p; max(v, p); }",
        "int main() { vector<int> v; cout << min(1, v).size(); }",
    ])
    def test_other_container_comparisons_fault(self, source):
        with pytest.raises(RuntimeFault, match="cannot compare"):
            run(source)


class TestBuiltins:
    def test_min_max_abs(self):
        out = run("int main() { cout << max(3, 7) << min(3, 7) << abs(-4); }")
        assert out == "734"

    def test_sqrt_pow(self):
        out = run("int main() { cout << (int)(sqrt(49.0)) << ' '"
                  "<< (int)(pow(2.0, 10.0)); }")
        assert out.split() == ["7", "1024"]

    def test_gcd(self):
        out = run("int main() { cout << __gcd(12, 18); }")
        assert out == "6"

    def test_swap(self):
        out = run("int main() { int a = 1, b = 2; swap(a, b); cout << a << b; }")
        assert out == "21"

    def test_to_string_stoi(self):
        out = run('int main() { string s = to_string(42); cout << s + "!"; '
                  'cout << stoi("17") + 1; }')
        assert out == "42!18"


class TestCostAccounting:
    def test_cycles_monotone_in_work(self):
        small = Interpreter(parse(
            "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; "
            "cout << s; }")).run("")
        large = Interpreter(parse(
            "int main() { int s = 0; for (int i = 0; i < 1000; i++) s += i; "
            "cout << s; }")).run("")
        assert large.cycles > small.cycles * 10

    def test_quadratic_costs_more_than_linear(self):
        quad = Interpreter(parse(
            "int main() { int s = 0; for (int i = 0; i < 100; i++)"
            "for (int j = 0; j < 100; j++) s++; cout << s; }")).run("")
        linear = Interpreter(parse(
            "int main() { int s = 0; for (int i = 0; i < 100; i++) s++;"
            "cout << s; }")).run("")
        assert quad.cycles > linear.cycles * 20

    def test_sort_charged_superlinearly(self):
        src = ("int main() {{ vector<int> v; for (int i = 0; i < {n}; i++)"
               "v.push_back({n} - i); sort(v.begin(), v.end()); cout << v[0]; }}")
        small = Interpreter(parse(src.format(n=64))).run("")
        big = Interpreter(parse(src.format(n=512))).run("")
        assert big.cycles > small.cycles * 6

    def test_memory_tracking(self):
        result = Interpreter(parse(
            "int main() { vector<int> v; for (int i = 0; i < 10000; i++)"
            "v.push_back(i); cout << v.size(); }"),
            memory_probe_interval=64).run("")
        assert result.peak_elements > 5000
