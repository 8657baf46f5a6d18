#!/usr/bin/env python3
"""End-to-end study benchmark for qhdl (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Builds the qhdl libraries, the qhdl_serve tool and the benchmark driver
from the sources of this checkout (into .bench_build/, or $CARGO_TARGET_DIR
when set), runs one workload, and prints one JSON object as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones (study_ms, setup_s); with
--trace 1 they are the per-layer spans the driver records.

Workloads: sweep (in-process), serve_cold and serve_hot (through a
qhdl_serve instance this script starts, with a 2-process worker pool per
job and a result cache on disk). Any failure exits non-zero without a
result line.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep", "serve_cold", "serve_hot")
SETUP_REPEATS = 10         # set-ups before and again after the timed run
DRIVER_TIMEOUT_S = 150     # one driver invocation, timed loop included
READY_TIMEOUT_S = 20       # qhdl_serve start until it answers a ping
STOP_TIMEOUT_S = 30        # graceful drain after SIGTERM

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds the driver and qhdl_serve."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", str(out), "-j", jobs,
         "--target", "perfbench_driver", "qhdl_serve_bin"],
        check=True, stdout=sys.stderr)
    driver = out / "perfbench_driver"
    serve = out / "tools" / "qhdl_serve"
    for binary in (driver, serve):
        if not binary.exists():
            raise RuntimeError(f"build produced no {binary}")
    return driver, serve


def ping(port, timeout_s):
    """One length-prefixed JSON round trip; True when the server pongs."""
    payload = b'{"type":"ping"}'
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as s:
        s.sendall(struct.pack(">I", len(payload)) + payload)
        header = recv_exact(s, 4)
        reply = json.loads(recv_exact(s, struct.unpack(">I", header)[0]))
    return reply.get("type") == "pong"


def recv_exact(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


class Server:
    """A qhdl_serve process; start() returns once it answers a ping."""

    def __init__(self, binary, work, name):
        self.binary = binary
        self.dir = work / name
        self.proc = None
        self.port = 0

    def start(self):
        self.dir.mkdir(parents=True)
        port_file = self.dir / "port"
        self.log = open(self.dir / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [str(self.binary), "--port", "0", "--port-file", str(port_file),
             "--executors", "1", "--workers", "2",
             "--cache-dir", str(self.dir / "cache"), "--quiet"],
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
            start_new_session=True)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"qhdl_serve exited {self.proc.returncode}")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                if ping(self.port, READY_TIMEOUT_S):
                    return
            time.sleep(0.0002)
        raise RuntimeError("qhdl_serve did not become ready")

    def stop(self):
        """Graceful drain; returns the exit code (SIGKILL on a hang)."""
        if self.proc is None:
            return 0
        code = None
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("qhdl_serve ignored SIGTERM; killing it")
        finally:
            if code is None:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.proc.wait()
                code = -signal.SIGKILL
            self.log.close()
            self.proc = None
        return code


def speed_factor(driver):
    """Reference over measured time of the driver's calibration kernel."""
    done = subprocess.run([str(driver), "--calibrate"], check=True,
                          stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          timeout=DRIVER_TIMEOUT_S)
    return float(done.stdout)


def probe_setups(args, driver, serve_binary, work, servers, first):
    """SETUP_REPEATS timed set-ups of the workload's front, in seconds.

    sweep: a driver process started until it is ready for its first study.
    serve_*: a qhdl_serve start until it answers a ping (the instance is
    stopped again, untimed). Each time is rescaled by the speed factor of
    the calibration kernel run next to it, as the driver rescales studies.
    """
    times = []
    for index in range(first, first + SETUP_REPEATS):
        if args.workload == "sweep":
            start = time.perf_counter()
            proc = subprocess.Popen(
                [str(driver), "--workload", args.workload,
                 "--seed", str(args.seed), "--work-dir", str(work), "--ready"],
                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
            with proc:
                ready = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                factor = proc.stdout.readline()
            if proc.returncode != 0 or ready != "ready\n":
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
            times.append(elapsed * float(factor))
            continue
        factor = speed_factor(driver)
        servers.append(Server(serve_binary, work, f"setup{index}"))
        start = time.perf_counter()
        servers[-1].start()
        times.append((time.perf_counter() - start) * factor)
        # qhdl_serve writes its port file before it installs its SIGTERM
        # handler, so an instance stopped at once may die of the signal
        # instead of draining.
        code = servers.pop().stop()
        if code not in (0, -signal.SIGTERM):
            raise RuntimeError(f"qhdl_serve exited {code}")
    return times


def run_driver(driver, args, work, extra):
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)] + extra
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL,
                          timeout=DRIVER_TIMEOUT_S, check=True)
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def run(args):
    out = build_dir()
    driver, serve_binary = build(out)
    # One vCPU for every process from here on (children inherit it), so the
    # driver's speed sampler measures the vCPU all the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = out / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    servers = []
    try:
        # Set-ups before and after the timed run, so their median spans
        # more than one moment of the machine's load.
        setups = probe_setups(args, driver, serve_binary, work, servers, 0)
        if args.workload == "sweep" and not args.trace:
            result = run_driver(driver, args, work, [])
        else:
            # A trace run of every workload also times the serve layers.
            servers.append(Server(serve_binary, work, "run"))
            servers[-1].start()
            extra = ["--port", str(servers[-1].port)]
            if args.workload != "sweep":
                extra += ["--server-pid", str(servers[-1].proc.pid)]
            result = run_driver(driver, args, work, extra)
            code = servers.pop().stop()
            if code != 0:
                log(f"qhdl_serve exited {code} after the run")
                result["correct"] = False
        setups += probe_setups(args, driver, serve_binary, work, servers,
                               SETUP_REPEATS)
        if not args.trace:
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"}
        return result
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args)
    except Exception as error:  # noqa: BLE001 - any failure means no result
        log(f"error: {error}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
