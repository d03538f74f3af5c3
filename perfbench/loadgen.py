"""The load generator: one process, one TCP connection, two threads.

Driven by ``run.py`` over stdin/stdout, one JSON command per line:

* ``{"cmd": "connect", "host": h, "port": p}`` opens the connection
  (closing any previous one);
* ``{"cmd": "run", "requests": [...], "offsets": [...] | null, ...}``
  sends one phase and answers with its records. With ``offsets`` the
  phase is open-loop: request ``i`` is due ``offsets[i]`` seconds after
  the phase starts and is sent then, without waiting for replies. With
  ``offsets`` null it is closed-loop: each request waits for the
  previous reply. An open-loop phase holds requests back while
  ``max_outstanding`` are in flight (they are then sent late, and their
  latency, timed from their due time, shows the wait); a phase that
  cannot send for ``drain_s`` stops and reports ``aborted``;
* ``{"cmd": "quit"}``.

Each record is ``[due, sent, received, reply, ready]`` in monotonic
seconds; ``received`` and ``reply`` are null for a reply that never
came. ``ready`` is when the request could first be sent: its due time,
or later if it was held back by ``max_outstanding``. ``sent - ready``
is therefore the generator's own lag, and ``sent - due`` adds the
time the server's backlog held the request back.

The timed loop does as little as it can: every payload is serialized
before the phase starts, every request that is due goes out in one
``sendall``, and the reader thread only stamps and keeps the raw bytes
it receives. Replies are split and parsed after the phase.
"""

from __future__ import annotations

import bisect
import json
import socket
import sys
import threading
import time


class Connection:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=10)
        self.sock.settimeout(None)
        # the generator's own small writes go out at once; the server's
        # socket options are the program's and are left alone
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.cond = threading.Condition()
        self.chunks: list[tuple[float, bytes]] = []
        self.lines = 0
        self.pending = b""
        self.phase = 0
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        while True:
            try:
                data = self.sock.recv(1 << 20)
            except OSError:
                return
            now = time.monotonic()
            if not data:
                return
            with self.cond:
                self.chunks.append((now, data))
                self.lines += data.count(b"\n")
                self.cond.notify_all()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.reader.join(timeout=5)

    def _replies(self, phase: int) -> dict[int, tuple[float, dict]]:
        """Split what the reader kept into lines, each stamped with the
        time its last byte arrived, and parse this phase's replies."""
        with self.cond:
            chunks, self.chunks = self.chunks, []
        out: dict[int, tuple[float, dict]] = {}
        buffer = self.pending
        for stamp, data in chunks:
            buffer += data
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                reply = json.loads(line)
                tag, _, index = str(reply.get("id", "")).partition(":")
                if tag == str(phase) and index.isdigit():
                    out[int(index)] = (stamp, reply)
        self.pending = buffer
        return out

    def run(self, requests, offsets, max_outstanding: int,
            drain_s: float) -> dict:
        self.phase += 1
        phase = self.phase
        payloads = [(json.dumps(dict(request, id=f"{phase}:{i}"))
                     + "\n").encode() for i, request in enumerate(requests)]
        count = len(payloads)
        if offsets is None:
            max_outstanding = 1
        with self.cond:
            base = self.lines
        due = [0.0] * count
        sent = [None] * count
        ready = [0.0] * count
        aborted = False
        start = time.monotonic() + 0.02
        if offsets is not None:
            due = [start + offset for offset in offsets]
        # the last time max_outstanding held back a request that was due
        held = float("-inf")
        i = 0
        while i < count:
            now = time.monotonic()
            if offsets is not None and due[i] > now:
                time.sleep(due[i] - now)
                continue
            with self.cond:
                def room():
                    return max_outstanding - (i - (self.lines - base))
                if room() <= 0:
                    if not self.cond.wait_for(lambda: room() > 0, drain_s):
                        aborted = True
                        break
                    held = time.monotonic()
                space = room()
            now = time.monotonic()
            if offsets is None:
                due[i] = now
                last = i + 1
            else:
                last = bisect.bisect_right(due, now, lo=i)
                if last > i + space:
                    last, held = i + space, now
            self.sock.sendall(b"".join(payloads[i:last]))
            for k in range(i, last):
                sent[k] = now
                ready[k] = max(due[k], held)
            i = last
        sent_count = i
        with self.cond:
            self.cond.wait_for(lambda: self.lines - base >= sent_count,
                               drain_s)
        received = self._replies(phase)
        records = []
        for k in range(sent_count):
            got = received.get(k)
            records.append([due[k], sent[k], got[0] if got else None,
                            got[1] if got else None, ready[k]])
        return {"records": records, "aborted": aborted,
                "unsent": count - sent_count}


def main() -> int:
    connection = None
    for line in sys.stdin:
        command = json.loads(line)
        kind = command["cmd"]
        if kind == "quit":
            break
        if kind == "connect":
            if connection is not None:
                connection.close()
            connection = Connection(command["host"], command["port"])
            out = {"ok": True}
        elif kind == "run":
            out = connection.run(command["requests"], command.get("offsets"),
                                 command.get("max_outstanding", 1 << 30),
                                 command.get("drain_s", 15.0))
        else:
            out = {"error": f"unknown command {kind!r}"}
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()
    if connection is not None:
        connection.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
