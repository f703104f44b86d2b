"""Spawning, probing and stopping the daemons under test.

Each daemon is its own ``python -m repro.service`` process (``serve`` or
``coordinate``), started from the checkout's ``src/`` with a JSON config
file and ``port 0``; the bound port is read from the daemon's own
"listening on http://host:port" line.  A traced daemon is started through
``launch.py`` instead, which wraps the program's entry points with spans
and writes them to ``spans_path`` when the daemon stops.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_LISTENING = re.compile(r"http://[^:\s]+:(\d+)")


def program_env() -> dict:
    """Environment of every process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # String hashing order then repeats across runs; answers never depend
    # on it, but set and dict layouts (and so timings) would.
    env["PYTHONHASHSEED"] = "0"
    return env


class Daemon:
    """One daemon process: spawned on construction, stopped by :meth:`stop`."""

    def __init__(self, name: str, role: str, config: dict, run_dir: Path,
                 spans_path: "Path | None" = None, extra_args=(),
                 ready_timeout: float = 60.0) -> None:
        from repro.service.client import ServiceClient

        self.name = name
        config_path = run_dir / f"{name}.json"
        config_path.write_text(json.dumps(config, indent=1))
        env = program_env()
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.service"]
        else:
            argv = [sys.executable, str(HERE / "launch.py")]
            env["PERFBENCH_SPANS"] = str(spans_path)
        argv += [role, "--config", str(config_path), *extra_args]
        self._log = open(run_dir / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(run_dir),
        )
        try:
            self.port = self._read_port(ready_timeout)
            self.client = ServiceClient(port=self.port, timeout=120.0)
            self.client.wait_ready(timeout=ready_timeout)
        except BaseException:
            self.kill()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buffered = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffered:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"{self.name}: no listening line")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"{self.name} exited before listening (see "
                        f"{self.name}.log): code {self.proc.wait()}"
                    )
                buffered += chunk
        match = _LISTENING.search(buffered.decode("utf-8", "replace"))
        if match is None:
            raise RuntimeError(f"{self.name}: unexpected banner {buffered!r}")
        return int(match.group(1))

    def vm_hwm_mib(self) -> float:
        """Peak resident set (``VmHWM``) of the daemon so far, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{self.name}: no VmHWM in /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful stop (``POST /shutdown``), waiting for the exit."""
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
            except OSError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError(f"{self.name} did not stop in {timeout}s")
        self._close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"{self.name} exited with code {self.proc.returncode}"
            )

    def kill(self) -> None:
        """Hard stop for error paths; waits until the process has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
        self._close()

    def _close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total
