#!/usr/bin/env python3
"""Wait until a running server's stats counter reaches a threshold.

Polls the ``stats`` verb of an audit_server or audit_router over the
length-prefixed frame protocol (4-byte big-endian length, then a JSON
payload) and exits 0 as soon as the value at KEY, a dotted path into the
stats object, is at least AT_LEAST; exits 1 when TIMEOUT_S passes first.
The CI drills use it to kill a process while traffic is flowing, instead
of after a fixed sleep that a fast host outruns.

    python3 tools/wait_stat.py --connect=127.0.0.1:7460
    python3 tools/wait_stat.py --connect=127.0.0.1:7457 \\
        --key=server.frames_in --at_least=300
"""

import argparse
import json
import socket
import struct
import sys
import time

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


def lookup(doc, key):
    """The number at dotted path `key` in `doc`, or None."""
    for part in key.split("."):
        if not isinstance(doc, dict):
            return None
        doc = doc.get(part)
    return doc if isinstance(doc, (int, float)) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", required=True, help="HOST:PORT")
    parser.add_argument("--key", default="router.forwarded_requests",
                        help="dotted path of a stats counter")
    parser.add_argument("--at_least", type=float, default=2000,
                        help="threshold the counter must reach")
    args = parser.parse_args()
    host, _, port = args.connect.rpartition(":")

    deadline = time.monotonic() + TIMEOUT_S
    value = None
    while time.monotonic() < deadline:
        try:
            value = lookup(stats(host, int(port)), args.key)
        except (OSError, ValueError) as e:
            print(f"wait_stat: {e}", file=sys.stderr)
        if value is not None and value >= args.at_least:
            print(f"wait_stat: {args.key} = {value:g}", file=sys.stderr)
            return 0
        time.sleep(POLL_INTERVAL_S)
    print(f"wait_stat: {args.key} = {value} after {TIMEOUT_S:g} s, "
          f"never reached {args.at_least:g}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
