#!/usr/bin/env python3
"""Wait until a running audit_router has forwarded enough requests.

Polls the router's ``stats`` verb over the length-prefixed frame protocol
(4-byte big-endian length, then a JSON payload) and exits 0 as soon as
``router.forwarded_requests`` is at least FORWARDED_AT_LEAST; exits 1 when
TIMEOUT_S passes first. The cluster failover drill uses it to kill a
backend while traffic is flowing, instead of after a fixed sleep that a
fast host outruns.

    python3 tools/wait_stat.py --connect=127.0.0.1:7460
"""

import argparse
import json
import socket
import struct
import sys
import time

FORWARDED_AT_LEAST = 2000
TIMEOUT_S = 60.0
POLL_INTERVAL_S = 0.02


def stats(host, port):
    """One stats round trip; returns the decoded response object."""
    request = json.dumps({"verb": "stats", "id": 0}).encode()
    with socket.create_connection((host, port), timeout=2.0) as conn:
        conn.sendall(struct.pack(">I", len(request)) + request)
        header = recv_exactly(conn, 4)
        (length,) = struct.unpack(">I", header)
        return json.loads(recv_exactly(conn, length))


def recv_exactly(conn, n):
    data = b""
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, help="HOST:PORT")
    args = parser.parse_args()
    host, _, port = args.connect.rpartition(":")

    deadline = time.monotonic() + TIMEOUT_S
    forwarded = None
    while time.monotonic() < deadline:
        try:
            router = stats(host, int(port)).get("router")
            if isinstance(router, dict):
                forwarded = router.get("forwarded_requests")
        except (OSError, ValueError) as e:
            print(f"wait_stat: {e}", file=sys.stderr)
        if (isinstance(forwarded, (int, float))
                and forwarded >= FORWARDED_AT_LEAST):
            print(f"wait_stat: forwarded_requests = {forwarded:g}",
                  file=sys.stderr)
            return 0
        time.sleep(POLL_INTERVAL_S)
    print(f"wait_stat: forwarded_requests = {forwarded} after {TIMEOUT_S:g} s, "
          f"never reached {FORWARDED_AT_LEAST}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
