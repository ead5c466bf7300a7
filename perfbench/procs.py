"""Launching the program: fresh ``call`` processes and ``serve`` servers.

Every launch goes through ``child.py`` in a fresh interpreter, with
``src/`` of the checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"


def scratch(name: str) -> Path:
    """A fresh, not yet existing path under the benchmark's work directory."""
    directory = WORK / "out"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{uuid.uuid4().hex}-{name}"


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Bytecode is cached, as for an installed package, but outside the
    # source tree; otherwise every launch would compile every module
    # and setup_s / peak_mem_mb would measure the compiler.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def compile_program() -> None:
    """Fill the bytecode cache before anything is timed."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        env=_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )


def _command(result: Path, trace: Optional[Path], argv) -> list:
    return [sys.executable, str(CHILD), str(result), str(trace) if trace else "-", "--", *argv]


def run_call(argv, trace: Optional[Path] = None, timeout: float = 150.0) -> dict:
    """Run ``repro-lofreq <argv>`` to completion in a fresh process.

    Returns the child's result plus ``latency_s`` (spawn to exit, as
    the parent saw it) and ``rc``.
    """
    result = scratch("result.json")
    t0 = time.perf_counter()
    proc = subprocess.run(
        _command(result, trace, argv),
        env=_env(),
        stdout=subprocess.DEVNULL,
        timeout=timeout,
    )
    latency = time.perf_counter() - t0
    out = json.loads(result.read_text()) if result.exists() else {}
    out["rc"] = proc.returncode
    out["latency_s"] = latency
    return out


class Server:
    """``repro-lofreq serve --port 0 --workers 2`` as a subprocess."""

    def __init__(self, trace: Optional[Path] = None, start_timeout: float = 60.0) -> None:
        self.result = scratch("server.json")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            _command(self.result, trace, ["serve", "--port", "0", "--workers", "2"]),
            env=_env(),
            stdout=subprocess.PIPE,
        )
        try:
            self.port = self._await_port(start_timeout)
        except BaseException:
            self.kill()
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = fd.readline().decode(errors="replace")
            if not line:
                break
            if line.startswith("serving on "):
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError(f"server did not come up (rc {self.proc.poll()})")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server process")

    def stop(self, timeout: float = 60.0) -> dict:
        """Graceful shutdown (SIGTERM drains); returns the child's result."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        return json.loads(self.result.read_text()) if self.result.exists() else {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class Connection:
    """One newline-JSON TCP connection to the server."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.file = self.sock.makefile("rwb")

    def roundtrip(self, payload: dict) -> dict:
        self.file.write(json.dumps(payload).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.file.close()
        finally:
            self.sock.close()
