"""The online-judge runner: evaluate a submission on test cases.

Mirrors the Codeforces flow the paper's data-collection tool scraped:
run each test case, check the output, report a verdict, and expose
per-test runtimes plus the mean runtime (the paper averages the tests
"to obtain a mean runtime for each problem").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..lang.parser import parse
from .cost import CostModel
from .errors import JudgeError, TimeLimitExceeded
from .interp import Interpreter, compile_program
from .machine import MachineProfile

__all__ = ["Verdict", "TestCase", "JudgeReport", "Judge"]


class Verdict(Enum):
    OK = "OK"
    WRONG_ANSWER = "WRONG_ANSWER"
    TIME_LIMIT_EXCEEDED = "TIME_LIMIT_EXCEEDED"
    RUNTIME_ERROR = "RUNTIME_ERROR"
    COMPILATION_ERROR = "COMPILATION_ERROR"


@dataclass(frozen=True)
class TestCase:
    """One judge test: input text and the expected (token-wise) output."""

    input_text: str
    expected_output: str


@dataclass
class JudgeReport:
    verdict: Verdict
    test_runtimes_ms: list[int] = field(default_factory=list)
    test_cycles: list[int] = field(default_factory=list)
    peak_memory_kb: int = 0
    failed_test: int | None = None
    message: str = ""

    @property
    def mean_runtime_ms(self) -> float:
        if not self.test_runtimes_ms:
            return 0.0
        return sum(self.test_runtimes_ms) / len(self.test_runtimes_ms)

    @property
    def max_runtime_ms(self) -> int:
        return max(self.test_runtimes_ms, default=0)


def _tokens_match(actual: str, expected: str) -> bool:
    """Codeforces-style token comparison with float tolerance."""
    a_tokens = actual.split()
    e_tokens = expected.split()
    if len(a_tokens) != len(e_tokens):
        return False
    for a, e in zip(a_tokens, e_tokens):
        if a == e:
            continue
        try:
            if abs(float(a) - float(e)) <= 1e-6 * max(1.0, abs(float(e))):
                continue
        except ValueError:
            return False
        return False
    return True


class Judge:
    """Runs submissions against a problem's test cases."""

    def __init__(self, machine: MachineProfile | None = None,
                 cost_model: CostModel | None = None,
                 time_limit_ms: float = 20_000.0):
        self.machine = machine or MachineProfile()
        self.cost_model = cost_model or CostModel()
        self.time_limit_ms = time_limit_ms

    def judge_source(self, source: str, tests: list[TestCase]) -> JudgeReport:
        """Parse then judge; parse failures are compilation errors."""
        try:
            unit = parse(source)
        except Exception as exc:  # lexer/parser errors
            return JudgeReport(verdict=Verdict.COMPILATION_ERROR, message=str(exc))
        return self.judge_unit(unit, tests)

    def judge_unit(self, unit, tests: list[TestCase]) -> JudgeReport:
        if not tests:
            raise ValueError("judge needs at least one test case")
        report = JudgeReport(verdict=Verdict.OK)
        max_cycles = self.machine.time_limit_cycles(self.time_limit_ms)
        program = compile_program(unit, self.cost_model)
        for index, test in enumerate(tests):
            try:
                result = Interpreter(program, max_cycles=max_cycles).run(
                    test.input_text)
            except TimeLimitExceeded:
                report.verdict = Verdict.TIME_LIMIT_EXCEEDED
                report.failed_test = index
                return report
            except JudgeError as exc:
                report.verdict = Verdict.RUNTIME_ERROR
                report.failed_test = index
                report.message = str(exc)
                return report
            report.test_cycles.append(result.cycles)
            report.test_runtimes_ms.append(self.machine.measure_ms(result.cycles))
            memory = ExecutionMemory.kb(result)
            if memory > report.peak_memory_kb:
                report.peak_memory_kb = memory
            if not _tokens_match(result.stdout, test.expected_output):
                report.verdict = Verdict.WRONG_ANSWER
                report.failed_test = index
                return report
        return report


class ExecutionMemory:
    """Helper namespace for memory accounting."""

    @staticmethod
    def kb(result) -> int:
        return result.peak_memory_kb
