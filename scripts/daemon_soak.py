#!/usr/bin/env python3
"""Long soak of one live daemon: sequential bridge streams beside a scraper.

    python3 scripts/daemon_soak.py path/to/lamsdlcd [--streams 2000]
                                   [--every 500] [--bytes 16384]

Starts `lamsdlcd --self-peer --bridge --status`, pushes `--streams`
sequential streams of `--bytes` each through the bridge while a second
thread issues `metrics` requests at 20 Hz, and every `--every` streams
prints one line: the daemon's RSS, the scrape round trip (median and max
since the previous line), the `status` document size, live recorder rings
and inbound sessions.  With finished sessions retired, RSS, scrape time
and document size level off instead of growing with the stream count.

Exit status: 0 when every stream ended `OK <bytes>`, 1 otherwise.
"""

import argparse
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time


def request(port, verb):
    """One status-port round trip; the whole response as bytes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(verb.encode() + b"\n")
        chunks = []
        while True:
            d = s.recv(65536)
            if not d:
                return b"".join(chunks)
            chunks.append(d)


def stream(port, payload):
    """One bridge stream; the daemon's status line."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        reply = b""
        while b"\n" not in reply:
            d = s.recv(64)
            if not d:
                break
            reply += d
    return reply.decode(errors="replace").strip()


def rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("daemon")
    ap.add_argument("--streams", type=int, default=2000)
    ap.add_argument("--every", type=int, default=500)
    ap.add_argument("--bytes", type=int, default=16384)
    args = ap.parse_args(argv)

    proc = subprocess.Popen([args.daemon, "--self-peer", "--bridge", "--status"],
                            stdout=subprocess.PIPE, text=True)
    ports = {}
    for line in proc.stdout:
        key, _, value = line.strip().partition(" ")
        if key == "ready":
            break
        ports[key] = int(value)

    scrape_ms = []
    lock = threading.Lock()
    done = threading.Event()

    def scraper():
        while not done.is_set():
            t0 = time.monotonic()
            request(ports["status"], "metrics")
            with lock:
                scrape_ms.append((time.monotonic() - t0) * 1e3)
            done.wait(max(0.0, 0.05 - (time.monotonic() - t0)))

    thread = threading.Thread(target=scraper)
    thread.start()
    payload = bytes((i * 29 + 5) & 0xFF for i in range(args.bytes))
    failed = 0
    t_start = time.monotonic()
    try:
        for i in range(1, args.streams + 1):
            if stream(ports["bridge"], payload) != "OK %d" % args.bytes:
                failed += 1
            if i % args.every == 0 or i == args.streams:
                with lock:
                    window, scrape_ms[:] = scrape_ms[:], []
                doc = request(ports["status"], "status")
                status = json.loads(doc)
                print("streams %5d  rss %7.1f MB  scrape p50 %6.2f ms max %7.2f ms"
                      "  status %6d B  rings %3d  sessions_in %3d  failed %d"
                      "  (%.1f s)" % (
                          i, rss_mb(proc.pid),
                          statistics.median(window) if window else float("nan"),
                          max(window) if window else float("nan"),
                          len(doc), status["recorder"]["rings"],
                          len(status["sessions_in"]), failed,
                          time.monotonic() - t_start),
                      flush=True)
    finally:
        done.set()
        thread.join()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
