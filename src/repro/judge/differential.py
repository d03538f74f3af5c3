"""Differential execution: prove two programs agree on seeded inputs.

The dynamic leg of the dead-mutant equivalence proof (the static leg is
:func:`repro.lang.analysis.mutate.prove_dead`): run the original and the
mutant through the judge interpreter on the *same* inputs and demand
byte-identical stdout. Dead code may burn cycles but can never change
output, so the comparison is exact — no token tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lang.parser import parse
from .errors import JudgeError
from .interp import Interpreter, compile_program

__all__ = ["DifferentialReport", "differential_check", "seeded_inputs"]


@dataclass
class DifferentialReport:
    """Outcome of one differential run over a set of inputs."""

    equivalent: bool = True
    inputs_run: int = 0
    failures: list[dict] = field(default_factory=list)

    def note_failure(self, index: int, reason: str, a: str = "",
                     b: str = "") -> None:
        self.equivalent = False
        self.failures.append({"input_index": index, "reason": reason,
                              "stdout_a": a, "stdout_b": b})


def differential_check(source_a: str, source_b: str,
                       inputs: list[str],
                       max_cycles: int | None = None,
                       ) -> DifferentialReport:
    """Run both programs on every input; exact-stdout comparison.

    A runtime error in either program on any input counts as a failure
    (an inserted mutation must never introduce *or* mask a crash).
    Raises ``ValueError`` when no inputs are supplied — an empty
    differential proves nothing and must not look like success.
    """
    if not inputs:
        raise ValueError("differential_check needs at least one input")
    programs = (compile_program(parse(source_a)),
                compile_program(parse(source_b)))
    report = DifferentialReport()
    for index, input_text in enumerate(inputs):
        outputs = []
        for program in programs:
            interp = (Interpreter(program) if max_cycles is None
                      else Interpreter(program, max_cycles=max_cycles))
            try:
                outputs.append(interp.run(input_text).stdout)
            except JudgeError as error:
                outputs.append(None)
                report.note_failure(index,
                                    f"{type(error).__name__}: {error}")
        report.inputs_run += 1
        out_a, out_b = outputs
        if out_a is not None and out_b is not None and out_a != out_b:
            report.note_failure(index, "stdout mismatch", out_a, out_b)
    return report


def seeded_inputs(family, count: int = 8, seed: int = 0xD1FF) -> list[str]:
    """``count`` deterministic judge inputs for a problem family.

    Uses the family's own test fabrication (so inputs match the
    problem's input format) but with an independent seed and test
    count — mutants are checked on inputs the generator never saw.
    """
    if count < 1:
        raise ValueError("need at least one input")
    inputs: list[str] = []
    round_no = 0
    while len(inputs) < count:
        rng = np.random.default_rng(seed + 7919 * round_no
                                    + int(family.seed))
        inputs.extend(test.input_text
                      for test in family.build_tests(rng))
        round_no += 1
    return inputs[:count]
