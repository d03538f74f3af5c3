"""Tests for the judge runner and machine profile."""

import sys
import threading

import numpy as np
import pytest

from repro.judge import Judge, MachineProfile, Verdict
from repro.judge import TestCase as JudgeTest

ADD_PROGRAM = "int main() { int a, b; cin >> a >> b; cout << a + b << endl; }"


class TestMachineProfile:
    def test_ideal_ms(self):
        machine = MachineProfile(cycles_per_ms=100.0)
        assert machine.ideal_ms(1000) == 10.0

    def test_measurement_quantized_and_floored(self):
        machine = MachineProfile(cycles_per_ms=100.0, seed=1)
        ms = machine.measure_ms(10)
        assert isinstance(ms, int)
        assert ms >= 1

    def test_noise_stays_close(self):
        machine = MachineProfile(cycles_per_ms=1.0, noise_sigma=0.05,
                                 jitter_ms=0.0, seed=3)
        samples = [machine.measure_ms(10_000) for _ in range(200)]
        mean = np.mean(samples)
        assert 9_000 < mean < 11_000

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            MachineProfile(cycles_per_ms=0.0)


class TestJudge:
    def make_judge(self):
        return Judge(machine=MachineProfile(cycles_per_ms=100.0, seed=7))

    def test_accepts_correct_solution(self):
        report = self.make_judge().judge_source(
            ADD_PROGRAM,
            [JudgeTest("1 2", "3"), JudgeTest("10 20", "30")])
        assert report.verdict is Verdict.OK
        assert len(report.test_runtimes_ms) == 2
        assert report.mean_runtime_ms >= 1

    def test_wrong_answer(self):
        report = self.make_judge().judge_source(
            "int main() { int a, b; cin >> a >> b; cout << a - b; }",
            [JudgeTest("1 2", "3")])
        assert report.verdict is Verdict.WRONG_ANSWER
        assert report.failed_test == 0

    def test_runtime_error(self):
        report = self.make_judge().judge_source(
            "int main() { vector<int> v; cout << v[5]; }",
            [JudgeTest("", "0")])
        assert report.verdict is Verdict.RUNTIME_ERROR

    def test_compilation_error(self):
        report = self.make_judge().judge_source(
            "int main( { return 0; }", [JudgeTest("", "")])
        assert report.verdict is Verdict.COMPILATION_ERROR

    def test_time_limit(self):
        judge = Judge(machine=MachineProfile(cycles_per_ms=100.0),
                      time_limit_ms=5.0)
        report = judge.judge_source(
            "int main() { long long s = 0; "
            "for (int i = 0; i < 100000000; i++) s += i; cout << s; }",
            [JudgeTest("", "whatever")])
        assert report.verdict is Verdict.TIME_LIMIT_EXCEEDED

    def test_float_tolerance(self):
        report = self.make_judge().judge_source(
            "int main() { cout << 1.0 / 3.0; }",
            [JudgeTest("", "0.333333")])
        assert report.verdict is Verdict.OK

    def test_faster_algorithm_reports_lower_runtime(self):
        """The core property the corpus relies on: O(n) beats O(n^2)."""
        linear = """
        int main() { int n; cin >> n; long long s = 0;
            for (int i = 1; i <= n; i++) s += i;
            cout << s; }
        """
        quadratic = """
        int main() { int n; cin >> n; long long s = 0;
            for (int i = 1; i <= n; i++)
                for (int j = 1; j <= i; j++) if (j == i) s += i;
            cout << s; }
        """
        test = JudgeTest("300", str(300 * 301 // 2))
        judge = self.make_judge()
        fast = judge.judge_source(linear, [test])
        slow = judge.judge_source(quadratic, [test])
        assert fast.verdict is Verdict.OK and slow.verdict is Verdict.OK
        assert slow.mean_runtime_ms > fast.mean_runtime_ms * 5

    def test_needs_tests(self):
        with pytest.raises(ValueError):
            self.make_judge().judge_source(ADD_PROGRAM, [])


class TestRecursionLimit:
    """The judge raises Python's recursion limit only while it runs."""

    DEPTH_PROGRAM = ("void down(int n) { if (n > 1) down(n - 1); }"
                     "int main() { int d; cin >> d; down(d); cout << d; }")

    @pytest.fixture
    def default_limit(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield 1000
        sys.setrecursionlimit(saved)

    def judge_depth(self, depth: int):
        return Judge().judge_source(self.DEPTH_PROGRAM,
                                    [JudgeTest(str(depth), str(depth))])

    def test_limit_restored_after_judging(self, default_limit):
        report = self.judge_depth(3999)
        assert report.verdict is Verdict.OK
        assert sys.getrecursionlimit() == default_limit

    def test_limit_restored_after_a_fault(self, default_limit):
        report = self.judge_depth(4001)
        assert report.verdict is Verdict.RUNTIME_ERROR
        assert report.message == "stack overflow: recursion too deep"
        assert sys.getrecursionlimit() == default_limit

    def test_higher_caller_limit_left_alone(self, default_limit):
        sys.setrecursionlimit(70_000)
        assert self.judge_depth(50).verdict is Verdict.OK
        assert sys.getrecursionlimit() == 70_000

    def test_concurrent_runs_keep_the_raised_limit(self, default_limit):
        """No thread restores the caller's limit while another thread's
        run still needs the raised one."""
        verdicts = []

        def judge():
            verdicts.append(self.judge_depth(3999).verdict)

        threads = [threading.Thread(target=judge) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert verdicts == [Verdict.OK] * 4
        assert sys.getrecursionlimit() == default_limit
