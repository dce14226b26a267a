"""The edge wire protocol: JSON schemas, error mapping, batch framing.

One module owns everything that crosses the network boundary, so the
server, the client, the docs table, and the conformance suite all read
the same definitions:

* **JSON requests** (:func:`decode_solve`, :func:`decode_containment`,
  :func:`decode_datalog`) — structures travel in the
  :func:`repro.structures.io.structure_to_dict` shape, queries as their
  parsable rule text.  Malformed bodies raise a typed
  :class:`~repro.exceptions.EdgeProtocolError` (400), never a bare
  ``KeyError``.
* **JSON responses** (:func:`encode_result`, :func:`error_body`) — byte
  deterministic: ``sort_keys`` + compact separators, and no wall-clock
  fields, so the conformance suite pins golden response bytes.
* **Error mapping** (:data:`ERROR_STATUS`, :func:`status_for`) — the PR 7
  error taxonomy folded onto HTTP statuses.  Exception *names* cross the
  shard pipe (exception objects may not pickle after a crash), so the
  table is keyed by class name and :func:`rebuild_error` re-raises the
  typed class on the edge side.
* **Binary batch framing** (:func:`encode_frames`, :func:`decode_frames`)
  — the ``/v1/batch`` endpoint's length-prefixed layout: a 4-byte magic
  (``REB1``), a ``u32`` item count, then per item a ``u32`` length and a
  pickle payload serialized at the *store's* pickle protocol
  (:data:`repro.persist.codec.PICKLE_PROTOCOL` — one serializer fleet
  wide, the same rule the artifact store pins).  Like the process-pool
  boundary it mirrors, the batch endpoint trusts its callers: it is a
  fleet-internal protocol, not an Internet-facing one.
"""

from __future__ import annotations

import json
import math
import pickle
import struct
from typing import Any, Iterable

from repro.exceptions import (
    EdgeProtocolError,
    ParseError,
    ReproError,
)
from repro.persist.codec import PICKLE_PROTOCOL
from repro.structures.io import structure_from_dict, structure_to_dict
from repro.structures.structure import Structure

__all__ = [
    "BATCH_MAGIC",
    "ERROR_STATUS",
    "decode_containment",
    "decode_datalog",
    "decode_frames",
    "decode_solve",
    "dumps",
    "encode_frames",
    "encode_result",
    "error_body",
    "rebuild_error",
    "status_for",
]

BATCH_MAGIC = b"REB1"
_COUNT = struct.Struct("!I")
_LENGTH = struct.Struct("!I")

#: Exception class name → HTTP status.  The single source of truth for
#: the backpressure/error table in ``docs/architecture.md``; anything
#: absent here maps to 500 (a typed body is still emitted).
ERROR_STATUS: dict[str, int] = {
    # the request itself is bad — do not retry as-is
    "EdgeProtocolError": 400,
    "ParseError": 400,
    "VocabularyError": 400,
    "DatalogError": 400,
    "NotBooleanError": 400,
    "NotSchaeferError": 400,
    "DecompositionError": 400,
    # admission control refused — retry after backing off
    "ServiceOverloadedError": 429,
    # the service is winding down — retry against another edge
    "ServiceClosedError": 503,
    # a shard died under the request and the retry budget ran out
    "ShardCrashedError": 503,
    "WorkerCrashedError": 503,
    # the kernel refused a table its cost model says will not fit
    "ResourceBudgetError": 503,
    # the request's deadline elapsed inside the fleet
    "SolveTimeoutError": 504,
    # deterministic fault injection (chaos runs only)
    "FaultInjectedError": 500,
}

#: Statuses that should carry a ``retry-after`` header.
RETRYABLE_STATUSES = frozenset({429, 503})


def status_for(error_name: str) -> int:
    """The HTTP status for a typed error's class name (default 500)."""
    return ERROR_STATUS.get(error_name, 500)


def rebuild_error(error_name: str, message: str) -> ReproError:
    """Reconstruct a typed error from the (name, message) pipe form."""
    import repro.exceptions as exceptions

    cls = getattr(exceptions, error_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        if cls is EdgeProtocolError:
            return EdgeProtocolError(400, message)
        return cls(message)
    return ReproError(f"{error_name}: {message}")


def dumps(payload: dict) -> bytes:
    """Deterministic JSON bytes (sorted keys, compact separators)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _loads(body: bytes) -> dict:
    try:
        data = json.loads(body)
    except ValueError as exc:  # bad JSON or UTF-8; an int past 4300 digits
        raise EdgeProtocolError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(data, dict):
        raise EdgeProtocolError(400, "request body must be a JSON object")
    return data


def _structure(data: dict, key: str) -> Structure:
    raw = data.get(key)
    if not isinstance(raw, dict):
        raise EdgeProtocolError(
            400, f"missing or non-object {key!r} structure"
        )
    try:
        return structure_from_dict(raw)
    except ParseError as exc:
        raise EdgeProtocolError(400, f"bad {key!r} structure: {exc}") from None


def _timeout(raw: object, where: str = "") -> float | None:
    """A request's deadline in seconds: absent, or finite and positive.

    One validator for JSON bodies and batch items; ``where`` prefixes
    the error message (``"batch item 3: "``).
    """
    if raw is None:
        return None
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise EdgeProtocolError(
            400, f"{where}timeout must be a positive number, got {raw!r}"
        )
    try:
        value = float(raw)
    except OverflowError:
        # An int past float range; its repr may be too long to print.
        raise EdgeProtocolError(
            400, f"{where}timeout must be a positive number, got a huge int"
        ) from None
    if not (math.isfinite(value) and value > 0):
        raise EdgeProtocolError(
            400, f"{where}timeout must be a positive number, got {raw!r}"
        )
    return value


def decode_solve(body: bytes) -> dict[str, Any]:
    """``/v1/solve`` body → a router payload (source/target/timeout)."""
    data = _loads(body)
    return {
        "source": _structure(data, "source"),
        "target": _structure(data, "target"),
        "timeout": _timeout(data.get("timeout")),
    }


def decode_containment(body: bytes) -> dict[str, Any]:
    """``/v1/containment`` body → a router payload (query texts)."""
    data = _loads(body)
    q1, q2 = data.get("q1"), data.get("q2")
    if not isinstance(q1, str) or not isinstance(q2, str):
        raise EdgeProtocolError(
            400, "containment needs 'q1' and 'q2' rule-text strings"
        )
    return {"q1": q1, "q2": q2, "timeout": _timeout(data.get("timeout"))}


def decode_datalog(body: bytes) -> dict[str, Any]:
    """``/v1/datalog`` body → a router payload (source/target/k)."""
    data = _loads(body)
    k = data.get("k", 2)
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 8:
        raise EdgeProtocolError(400, f"k must be an int in [1, 8], got {k!r}")
    return {
        "source": _structure(data, "source"),
        "target": _structure(data, "target"),
        "k": k,
        "timeout": _timeout(data.get("timeout")),
    }


def _element_out(value: Any) -> Any:
    """A witness element in JSON-safe form (scalars as-is, else repr)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def encode_result(result: dict[str, Any]) -> dict[str, Any]:
    """A shard result → the JSON response body (deterministic).

    ``witness`` is a sorted list of ``[source_element, target_element]``
    pairs (JSON objects cannot key on non-strings); non-scalar elements
    are repr-encoded.  No wall-clock fields — latency lives in
    ``/v1/metrics``, keeping response bytes reproducible.
    """
    witness = result.get("witness")
    pairs = None
    if witness is not None:
        pairs = sorted(
            ([_element_out(key), _element_out(value)] for key, value in witness.items()),
            key=repr,
        )
    return {
        "verdict": result["verdict"],
        "witness": pairs,
        "strategy": result["strategy"],
        "route": result["route"],
        "shard": result["shard"],
        "coalesced": result["coalesced"],
    }


def error_body(error_name: str, message: str, status: int) -> bytes:
    """The JSON error envelope every non-2xx response carries."""
    return dumps(
        {"error": {"type": error_name, "status": status, "message": message}}
    )


# -- the binary batch framing ----------------------------------------------


def encode_frames(items: Iterable[object]) -> bytes:
    """Pickle each item and frame the lot (magic, count, length-prefixed)."""
    payloads = [
        pickle.dumps(item, protocol=PICKLE_PROTOCOL) for item in items
    ]
    parts = [BATCH_MAGIC, _COUNT.pack(len(payloads))]
    for payload in payloads:
        parts.append(_LENGTH.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_frames(
    body: bytes, *, max_items: int, max_item_bytes: int
) -> list[object]:
    """Parse a batch body; every violation is a typed 400.

    The framing is validated *before* any payload is unpickled: magic,
    declared count against the caps, every length prefix against the
    remaining bytes — a truncated or lying frame fails fast and typed.
    """
    if len(body) < len(BATCH_MAGIC) + _COUNT.size:
        raise EdgeProtocolError(400, "batch body shorter than its header")
    if body[: len(BATCH_MAGIC)] != BATCH_MAGIC:
        raise EdgeProtocolError(
            400, f"bad batch magic: {body[:4]!r} (expected {BATCH_MAGIC!r})"
        )
    (count,) = _COUNT.unpack_from(body, len(BATCH_MAGIC))
    if count > max_items:
        raise EdgeProtocolError(
            400, f"batch of {count} items exceeds the {max_items} cap"
        )
    offset = len(BATCH_MAGIC) + _COUNT.size
    items: list[object] = []
    for index in range(count):
        if offset + _LENGTH.size > len(body):
            raise EdgeProtocolError(
                400, f"batch truncated before item {index}'s length"
            )
        (length,) = _LENGTH.unpack_from(body, offset)
        offset += _LENGTH.size
        if length > max_item_bytes:
            raise EdgeProtocolError(
                400,
                f"batch item {index} of {length} bytes exceeds "
                f"{max_item_bytes}",
            )
        if offset + length > len(body):
            raise EdgeProtocolError(
                400,
                f"batch truncated inside item {index}: "
                f"{len(body) - offset} of {length} bytes",
            )
        try:
            items.append(pickle.loads(body[offset : offset + length]))
        except Exception as exc:  # noqa: BLE001 — any unpickle failure is a bad frame
            raise EdgeProtocolError(
                400, f"batch item {index} failed to decode: {exc!r}"
            ) from None
        offset += length
    if offset != len(body):
        raise EdgeProtocolError(
            400, f"{len(body) - offset} trailing bytes after the batch"
        )
    return items


def batch_request_payload(item: object, index: int) -> dict[str, Any]:
    """Validate one decoded batch item into a router (op, payload) pair.

    Items are plain dicts — ``{"op": "solve", "source": Structure,
    "target": Structure, "timeout": ...}``, containment carrying query
    rule texts under ``q1``/``q2`` and datalog an extra ``k`` — i.e. the
    JSON schema with real :class:`Structure` objects in place of their
    dict forms.
    """
    if not isinstance(item, dict) or "op" not in item:
        raise EdgeProtocolError(
            400, f"batch item {index} is not an op dict"
        )
    op = item["op"]
    if op not in ("solve", "containment", "datalog"):
        raise EdgeProtocolError(
            400, f"batch item {index} has unknown op {op!r}"
        )
    timeout = _timeout(item.get("timeout"), f"batch item {index}: ")
    if op == "containment":
        q1, q2 = item.get("q1"), item.get("q2")
        if not isinstance(q1, str) or not isinstance(q2, str):
            raise EdgeProtocolError(
                400,
                f"batch item {index}: containment needs q1/q2 rule texts",
            )
        return {"op": op, "q1": q1, "q2": q2, "timeout": timeout}
    source, target = item.get("source"), item.get("target")
    if not isinstance(source, Structure) or not isinstance(target, Structure):
        raise EdgeProtocolError(
            400, f"batch item {index} needs Structure source/target"
        )
    payload: dict[str, Any] = {
        "op": op,
        "source": source,
        "target": target,
        "timeout": timeout,
    }
    if op == "datalog":
        k = item.get("k", 2)
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 8:
            raise EdgeProtocolError(
                400, f"batch item {index} has a bad k: {k!r}"
            )
        payload["k"] = k
    return payload
