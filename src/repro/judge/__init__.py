"""Execution substrate: interpreter + cost model + judge.

The paper's labels come from the Codeforces judge measuring real
submissions. Offline we reproduce that pipeline end-to-end: parse the
submission, compile it once, run it on generated test cases, accumulate
a cycle cost per :class:`~repro.judge.cost.CostModel`, and convert
cycles to a noisy quantized millisecond measurement via
:class:`~repro.judge.machine.MachineProfile`.
"""

from .cost import CostModel
from .differential import DifferentialReport, differential_check, seeded_inputs
from .errors import InputExhausted, JudgeError, RuntimeFault, TimeLimitExceeded
from .interp import (
    CompiledProgram, ExecutionResult, Interpreter, compile_program,
)
from .machine import MachineProfile
from .runner import Judge, JudgeReport, TestCase, Verdict

__all__ = [
    "CostModel", "MachineProfile",
    "Interpreter", "ExecutionResult", "CompiledProgram", "compile_program",
    "Judge", "JudgeReport", "TestCase", "Verdict",
    "JudgeError", "RuntimeFault", "TimeLimitExceeded", "InputExhausted",
    "DifferentialReport", "differential_check", "seeded_inputs",
]
