"""``cnative``: hand-written C kernels, self-compiled with the system
C compiler and loaded through stdlib :mod:`ctypes`.

This package is the **only** place in ``src/`` allowed to touch
``ctypes`` or spawn a compiler (AST-enforced by ``tools/archlint.py``'s
``native-compile-outside-cnative`` rule).  It has three parts:

* ``kernels.c`` — the C implementations of every ops-backend kernel
  (fused segment sums, row take/scatter-add, the gate GEMM with a
  fused bias+sigmoid/tanh epilogue);
* :mod:`~repro.nn.cnative.build` — the source-hash-keyed build cache
  under ``~/.cache/repro/cnative`` (``REPRO_CACHE_DIR`` to relocate),
  atomic-rename installs, OpenMP probing;
* :mod:`~repro.nn.cnative.loader` — ctypes bindings plus the
  threading policy (``REPRO_NUM_THREADS``, serial below
  :data:`~repro.nn.cnative.loader.PAR_ROW_THRESHOLD` rows; bitwise
  deterministic for every thread count).

The backend class itself (``CNativeBackend``) lives with the registry
in :mod:`repro.nn.backend`; it imports this package lazily on first
kernel call, so merely registering the backend never pays a compile.
"""

from .build import (BASE_CFLAGS, BuildResult, CNativeBuildError,
                    SOURCE_PATH, available, build_library, cache_root,
                    find_compiler, source_digest)
from .loader import (ACTIVATION_CODES, PAR_ROW_THRESHOLD, NativeKernels,
                     get_num_threads, load, set_num_threads)

__all__ = [
    "BASE_CFLAGS", "BuildResult", "CNativeBuildError", "SOURCE_PATH",
    "available", "build_library", "cache_root", "find_compiler",
    "source_digest", "ACTIVATION_CODES", "PAR_ROW_THRESHOLD",
    "NativeKernels", "get_num_threads", "load", "set_num_threads",
]
