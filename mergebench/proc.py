"""Child processes and a bytes-only HTTP/1.1 client.

The server is the production entry point, ``python -m repro.tools.cli
serve --http PORT --data-dir DIR``, run from the checkout's ``src``.
Peak memory comes from ``wait4`` on the child (``ru_maxrss``, the
kernel's VmHWM), so nothing outside the checkout is read.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import IO, List, Optional, Tuple

ANNOUNCE = b"serving HTTP on "


def free_port() -> int:
    """A concrete free port (``serve --http 0`` would start the REPL)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A child process whose peak RSS is read when it is reaped."""

    def __init__(self, argv: List[str], root: Path, err: Path) -> None:
        self._err = open(err, "ab")
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._err,
        )
        self.peak_rss_mb: Optional[float] = None
        self._buf = b""

    def readline(self, timeout: float) -> bytes:
        """One stdout line, or ``RuntimeError`` if none comes in time."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise RuntimeError("child produced no output in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(f"child exited early (see {self._err.name})")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line + b"\n"

    def reap(self, sig: Optional[int] = signal.SIGKILL) -> float:
        """Stop (with *sig*, or wait if ``None``); return peak RSS in MB."""
        if self.proc.returncode is None:
            if sig is not None:
                self.proc.send_signal(sig)
            _pid, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._err.close()
        return self.peak_rss_mb or 0.0


class Server(Child):
    """``serve --http PORT --data-dir DIR`` on a fresh free port."""

    def __init__(
        self, root: Path, data_dir: Path, err: Path, telemetry: bool = False
    ) -> None:
        self.port = free_port()
        argv = [
            sys.executable, "-m", "repro.tools.cli", "serve",
            "--http", str(self.port), "--data-dir", str(data_dir),
        ]
        if telemetry:
            argv.append("--telemetry")
        super().__init__(argv, root, err)

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            line = self.readline(max(0.0, deadline - time.monotonic()))
            if line.startswith(ANNOUNCE):
                return


# ----------------------------------------------------------------------
# HTTP client: requests are pre-encoded bytes; responses stay bytes
# ----------------------------------------------------------------------


def post_request(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


class Conn:
    """One keep-alive connection; ``call`` sends raw bytes, returns bytes."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile: IO[bytes] = self.sock.makefile("rb")

    def call(self, raw: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(raw)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value.strip())
        body = self.rfile.read(length) if length else b""
        return status, body

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def __enter__(self) -> "Conn":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
