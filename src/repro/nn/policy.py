"""The kernel backends' names and float policy, readable without numpy.

:mod:`repro.nn.backend` builds one ``KernelBackend`` per entry of
:data:`BACKENDS`; the serving front door checks ``--backend`` against
the same table without loading the numerical stack.
"""

from __future__ import annotations

__all__ = ["BACKENDS", "check_backend"]

#: backend name -> (float dtype name, tolerance against the float64
#: reference)
BACKENDS = {
    # The default and the float64 reference: within 1e-8 of the
    # pre-backend inlined code, bitwise with itself across a resume.
    "numpy64": ("float64", 1e-8),
    # float32 end-to-end: half the memory traffic, wider SIMD/BLAS.
    # Agreement with the float64 reference holds at its tolerance
    # (absolute, on forward activations and gradients of the shipped
    # model sizes); resume stays bitwise *within* the backend.
    "numpy32": ("float32", 3e-4),
}


def check_backend(name: str) -> str:
    """``name`` if it is a registered backend, else ``ValueError``."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (registered: "
                         f"{sorted(BACKENDS)})")
    return name
