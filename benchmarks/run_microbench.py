"""The machine stamp of the end-to-end benchmark.

``perfbench/common.py`` imports :func:`machine_fingerprint` from here
for the ``machine`` field of every run's stamp.
"""

from __future__ import annotations

import os


def machine_fingerprint() -> dict:
    """Identity stamp for the machine that produced a result.

    Results from different machines are not comparable points on one
    line. The hostname is hashed: the identity only needs to be
    *stable*, not readable.
    """
    import hashlib
    import socket

    import numpy

    host = hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12]
    cpus = os.cpu_count() or 0
    return {"hostname_hash": host, "cpu_count": cpus,
            "numpy": numpy.__version__,
            "fingerprint": f"{host}-c{cpus}-np{numpy.__version__}"}
