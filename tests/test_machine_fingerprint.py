"""The machine stamp perfbench records with every run
(:func:`benchmarks.run_microbench.machine_fingerprint`)."""

import hashlib
import json
import os
import socket

import numpy

from benchmarks.run_microbench import machine_fingerprint


def test_run_microbench_fingerprint_is_stable():
    first, second = machine_fingerprint(), machine_fingerprint()
    assert first == second
    assert set(first) == {"hostname_hash", "cpu_count", "numpy",
                          "fingerprint"}
    assert first["hostname_hash"] in first["fingerprint"]


def test_fingerprint_names_this_machine():
    stamp = machine_fingerprint()
    host = hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12]
    assert stamp == {"hostname_hash": host,
                     "cpu_count": os.cpu_count() or 0,
                     "numpy": numpy.__version__,
                     "fingerprint": f"{host}-c{stamp['cpu_count']}"
                                    f"-np{numpy.__version__}"}
    assert json.loads(json.dumps(stamp)) == stamp


def test_hostname_is_hashed(monkeypatch):
    monkeypatch.setattr(socket, "gethostname", lambda: "bench-host-01")
    stamp = machine_fingerprint()
    assert "bench-host" not in json.dumps(stamp)
    assert len(stamp["hostname_hash"]) == 12
    int(stamp["hostname_hash"], 16)


def test_another_host_or_cpu_count_is_another_machine(monkeypatch):
    host = socket.gethostname()
    here = machine_fingerprint()["fingerprint"]
    monkeypatch.setattr(socket, "gethostname", lambda: host + "-other")
    other_host = machine_fingerprint()["fingerprint"]
    monkeypatch.setattr(os, "cpu_count", lambda: 1024)
    other_cpus = machine_fingerprint()["fingerprint"]
    assert len({here, other_host, other_cpus}) == 3


def test_unknown_cpu_count_is_zero(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    stamp = machine_fingerprint()
    assert stamp["cpu_count"] == 0
    assert "-c0-" in stamp["fingerprint"]


def test_perfbench_stamps_it():
    from perfbench.common import stamp

    assert stamp()["machine"] == machine_fingerprint()
