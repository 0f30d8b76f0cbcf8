"""Daemon lifecycle: launch ``repro.serve`` in its own process.

The daemon never shares a process (or a GIL) with the load generator.
It runs with its defaults except for a memory-only result cache, the
per-workload ``backend`` knob and no shared-memory export (the default
``jobs=0`` executes in daemon threads, so shm is never read, and the
benchmark writes nothing outside its checkout).  Its default startup
corpus is built without the corpus disk cache for the same reason.

A traced daemon runs through :mod:`launcher`, which wraps the layers'
public functions before the server starts and writes the spans at
shutdown.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seconds to wait for the daemon's socket after launch.
START_TIMEOUT = 60.0
#: Seconds to wait for a clean exit after ``shutdown``.
STOP_TIMEOUT = 30.0


def serve_args(socket_path: str, backend: str) -> List[str]:
    """``repro.serve start`` arguments for one benchmark daemon."""
    return ["start", "--socket", socket_path, "--cache-dir", "off",
            "--no-shm", "--backend", backend]


def daemon_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CORPUS_CACHE"] = "0"
    env["REPRO_SERVE_CACHE"] = "off"
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Daemon:
    """One daemon process; :meth:`stop` always ends it."""

    def __init__(self, workdir: Path, tag: str, backend: str, *,
                 spans_path: Optional[Path] = None):
        self.workdir = workdir
        # Relative to the daemon's cwd: a Unix socket path is capped at
        # ~108 bytes, and checkout paths can be longer than that.
        self.socket_name = f"{tag}.sock"
        self.socket_path = str(workdir / self.socket_name)
        self.backend = backend
        self.spans_path = spans_path
        self.log_path = workdir / f"{tag}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.launched_at = 0.0

    def launch(self) -> None:
        args = serve_args(self.socket_name, self.backend)
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro.serve"] + args
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   "--spans", str(self.spans_path), "--"] + args
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._log = open(self.log_path, "wb")
        self.launched_at = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=str(self.workdir),
                                     env=daemon_env(), stdout=self._log,
                                     stderr=subprocess.STDOUT)

    def wait_listening(self) -> None:
        """Block until the daemon accepts connections on its socket."""
        deadline = self.launched_at + START_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} during "
                    f"start-up; see {self.log_path}")
            try:
                with socket.socket(socket.AF_UNIX,
                                   socket.SOCK_STREAM) as s:
                    s.connect(self.connect_path)
                return
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon socket never came up")
                time.sleep(0.005)

    @property
    def connect_path(self) -> str:
        """The socket relative to our cwd (the checkout root: short)."""
        return os.path.relpath(self.socket_path)

    def stop(self) -> None:
        """Ask for a clean shutdown, then make sure the process is gone."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                try:
                    with socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM) as s:
                        s.settimeout(5.0)
                        s.connect(self.connect_path)
                        s.sendall(b'{"op":"shutdown","id":"stop"}\n')
                        s.recv(4096)
                except OSError:
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=STOP_TIMEOUT)
        finally:
            self._log.close()
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
