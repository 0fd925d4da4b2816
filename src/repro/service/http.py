"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

Just enough protocol for the daemon and its load generator: request
parsing with Content-Length bodies, response rendering, and a tiny
client.  No chunked encoding, no keep-alive negotiation games — every
connection is ``Connection: close`` (the load generator opens one
connection per request, which is exactly the open-loop shape we want to
measure anyway).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_request",
    "response_head",
    "render_response",
    "encode_json",
    "json_response",
    "request_once",
]

#: Status phrases for every code the service emits.
STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Bound on header-section size; a client streaming garbage gets a 400.
_MAX_HEADER_BYTES = 16384
_MAX_BODY_BYTES = 1 << 20


class HttpError(Exception):
    """A malformed request; ``status`` is the response code to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (raises :class:`HttpError` 400)."""
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request; ``None`` on a cleanly closed connection.

    Raises:
        HttpError: On malformed request lines, headers, or bodies.
    """
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise HttpError(400, "header section too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {raw_length!r}") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise HttpError(400, f"unacceptable Content-Length {length}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "body shorter than Content-Length") from exc
    return HttpRequest(method=method.upper(), path=target, headers=headers, body=body)


def response_head(
    status: int, length: int, content_type: str = "application/json"
) -> bytes:
    """The status line and headers of a ``Connection: close`` response
    whose body is ``length`` bytes."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1")


def render_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
) -> bytes:
    """One full ``Connection: close`` HTTP/1.1 response."""
    return response_head(status, len(body), content_type) + body


#: The JSON text of a :func:`json_response` body (before its newline).
encode_json = json.JSONEncoder(sort_keys=True).encode


def json_response(status: int, payload: Any) -> bytes:
    body = (encode_json(payload) + "\n").encode("utf-8")
    return render_response(status, body)


async def request_once(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Any = None,
) -> Tuple[int, Any]:
    """Open a connection, send one request, return ``(status, json|text)``.

    The client half of the protocol, used by the load generator and the
    smoke tests.  A missing or non-JSON body comes back as decoded text.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2:
            raise HttpError(500, f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        raw = await reader.readexactly(length) if length else await reader.read()
        try:
            decoded: Any = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            decoded = raw.decode("utf-8", "replace")
        return status, decoded
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
