"""Minimal HTTP/1.1 framing over asyncio streams — the edge's front door.

The edge speaks just enough HTTP/1.1 for its five endpoints: request
line + headers + ``Content-Length`` bodies in, status + headers + body
out, with keep-alive.  The framing layer is deliberately small and
strict — every way a peer can violate it maps to a *typed*
:class:`~repro.exceptions.EdgeProtocolError` carrying the 4xx status the
server answers with, so a malformed frame can never surface as an
unhandled exception (the conformance suite fuzzes exactly these paths):

==================================== ======
violation                            status
==================================== ======
garbage / overlong request line       400
malformed header line                 400
non-integer or negative length        400
body larger than ``max_body_bytes``   413
body bytes that never arrive          408
``Transfer-Encoding: chunked``        501
missing ``Content-Length`` on POST    411
==================================== ======

Responses are byte-deterministic on purpose: lowercase header names in a
fixed order (``server``, ``content-type``, ``content-length``, then any
extras, then ``connection``), no ``Date`` header, compact JSON bodies —
so the protocol conformance suite can pin golden request/response byte
pairs instead of parsing its own server's output.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.exceptions import EdgeProtocolError

__all__ = [
    "HttpRequest",
    "MAX_HEADER_BYTES",
    "MAX_REQUEST_LINE",
    "REASONS",
    "read_request",
    "response_bytes",
]

#: Upper bound on the request line; longer lines are refused with 400.
MAX_REQUEST_LINE = 8192
#: Upper bound on the header block as a whole.
MAX_HEADER_BYTES = 32768
#: Upper bound on the number of header lines.
MAX_HEADER_COUNT = 100

#: The reason phrases the edge emits (fixed — golden fixtures pin them).
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, body."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes
    #: Set when the peer asked for ``Connection: close``.
    close: bool = field(default=False)

    def content_type(self) -> str:
        """The media type, parameters stripped, lowercased."""
        return self.headers.get("content-type", "").split(";")[0].strip().lower()


async def _read_line(
    reader: asyncio.StreamReader, limit: int, what: str
) -> bytes:
    """One CRLF (or bare-LF) terminated line, bounded by ``limit``."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.LimitOverrunError:
        raise EdgeProtocolError(400, f"{what} exceeds the line limit") from None
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise _PeerClosed() from None
        raise EdgeProtocolError(400, f"truncated {what}") from None
    if len(line) > limit:
        raise EdgeProtocolError(400, f"{what} exceeds {limit} bytes")
    return line.rstrip(b"\r\n")


class _PeerClosed(Exception):
    """The peer closed the connection cleanly between requests."""


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int,
    read_timeout: float | None = None,
) -> HttpRequest | None:
    """Parse one request; ``None`` when the peer closed between requests.

    ``read_timeout`` bounds each read *within* a request (a started
    request whose bytes stop arriving fails typed with 408, freeing the
    connection handler) — the wait for the *first* byte of the next
    keep-alive request is unbounded by design.

    Raises :class:`EdgeProtocolError` for every framing violation; the
    caller answers with the carried status and, for violations that
    leave the stream position unknowable, closes the connection.
    """
    try:
        request_line = await _read_line(reader, MAX_REQUEST_LINE, "request line")
    except _PeerClosed:
        return None
    if not request_line:
        # Tolerate one stray CRLF between keep-alive requests (RFC 9112).
        try:
            request_line = await _read_line(
                reader, MAX_REQUEST_LINE, "request line"
            )
        except _PeerClosed:
            return None
    try:
        return await asyncio.wait_for(
            _read_rest(reader, request_line, max_body_bytes), read_timeout
        )
    except asyncio.TimeoutError:
        raise EdgeProtocolError(
            408, "request was not completed in time"
        ) from None


async def _read_rest(
    reader: asyncio.StreamReader, request_line: bytes, max_body_bytes: int
) -> HttpRequest:
    try:
        text = request_line.decode("ascii")
    except UnicodeDecodeError:
        raise EdgeProtocolError(400, "request line is not ASCII") from None
    parts = text.split(" ")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise EdgeProtocolError(400, f"malformed request line: {text!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise EdgeProtocolError(400, f"unsupported protocol: {version!r}")
    path, _, query = target.partition("?")

    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await _read_line(reader, MAX_HEADER_BYTES, "header line")
        except _PeerClosed:
            raise EdgeProtocolError(400, "truncated header block") from None
        if not line:
            break
        total += len(line)
        if total > MAX_HEADER_BYTES or len(headers) >= MAX_HEADER_COUNT:
            raise EdgeProtocolError(400, "header block too large")
        name, sep, value = line.partition(b":")
        if not sep or not name.strip():
            raise EdgeProtocolError(
                400, f"malformed header line: {line[:80]!r}"
            )
        try:
            headers[name.decode("ascii").strip().lower()] = value.decode(
                "latin-1"
            ).strip()
        except UnicodeDecodeError:
            raise EdgeProtocolError(400, "header name is not ASCII") from None

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise EdgeProtocolError(501, "chunked transfer encoding not supported")
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        # ASCII digits only: str.isdigit() also accepts e.g. "²" (latin-1
        # 0xB2), which int() then rejects.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise EdgeProtocolError(
                400, f"invalid content-length: {raw_length!r}"
            )
        length = int(raw_length)
        if length > max_body_bytes:
            raise EdgeProtocolError(
                413, f"body of {length} bytes exceeds {max_body_bytes}"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise EdgeProtocolError(
                    400,
                    f"truncated body: got {len(exc.partial)} of "
                    f"{length} bytes",
                ) from None
    elif method in ("POST", "PUT", "PATCH"):
        raise EdgeProtocolError(411, f"{method} requires a content-length")

    close = headers.get("connection", "").strip().lower() == "close"
    return HttpRequest(
        method=method,
        path=path,
        query=query,
        headers=headers,
        body=body,
        close=close,
    )


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
    close: bool = False,
) -> bytes:
    """Serialize one deterministic response (see module docstring)."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "server: repro-edge",
        f"content-type: {content_type}",
        f"content-length: {len(body)}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    if close:
        lines.append("connection: close")
    head = "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"
    return head + body
