"""Canonical structure fingerprints for cross-call caching.

The pipeline in :mod:`repro.core.pipeline` memoizes expensive per-structure
analyses (Schaefer classification of targets, greedy tree decompositions of
sources) across solve calls.  Python's ``hash()`` is unsuitable as a cache
key: it is salted per process for strings and collides freely.  This module
derives a stable hex digest from a canonical serialization of a structure —
two structures get the same fingerprint iff they are equal as structures
(same vocabulary, universe, and relations), independent of construction
order or process.

Elements of a universe are arbitrary hashables, so they are serialized as
``(qualified type name, repr)`` tokens — the fully qualified type (module
plus qualname, stricter than the bare type name the deterministic sort
order uses) so that same-named classes from different modules cannot make
unequal structures collide.  Distinct elements of the very same type with
identical reprs would still collide, but a repr that hides a value's
identity breaks Python's own conventions first.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Any

from repro.structures.structure import Structure

__all__ = ["canonical_fingerprint", "instance_fingerprint"]


#: The length-prefixed ``module.qualname`` part of a token, per type.
_PREFIXES: dict[type, bytes] = {}


def _entry(value: Any) -> tuple[tuple[str, str], bytes]:
    """``value``'s sort key (as in ``Structure.sorted_universe``) and token."""
    kind = type(value)
    prefix = _PREFIXES.get(kind)
    if prefix is None:
        name = f"{kind.__module__}.{kind.__qualname__}"
        prefix = _PREFIXES[kind] = f"{len(name)}:{name}".encode()
    text = repr(value)
    return (kind.__name__, text), prefix + f"{len(text)}:{text}".encode()


def canonical_fingerprint(structure: Structure) -> str:
    """A stable hex digest identifying ``structure`` up to equality.

    The digest covers the vocabulary (names and arities), the universe,
    and every fact of every relation, all in deterministic order, with
    length-prefixed tokens so concatenation is unambiguous.  Each
    element object's sort key and token are computed once, the universe
    and each relation are sorted on those keys, and the joined tokens
    are hashed in one call.  The result is memoized on the (immutable)
    structure, so repeated cache lookups against the same object hash
    its serialization only once.
    """
    cached = structure._fingerprint
    if cached is not None:
        return cached
    universe = [*structure.universe]
    parts: list[bytes] = []
    relations = []
    elements = universe.copy()
    for symbol in structure.vocabulary:
        name = _entry(symbol.name)[1]
        parts += (name, _entry(symbol.arity)[1])
        facts = [*structure._relations[symbol.name]]
        relations.append((name, facts))
        elements += chain.from_iterable(facts)
    # Entries are kept per object, not per value: equal elements may
    # still differ in token (1 and True, 0.0 and -0.0).
    keys: dict[int, tuple[str, str]] = {}
    tokens: dict[int, bytes] = {}
    for element in elements:
        ident = id(element)
        if ident not in keys:
            keys[ident], tokens[ident] = _entry(element)
    key_of = keys.__getitem__
    token_of = tokens.__getitem__
    # Sorting positions on their keys keeps the stable order of ties
    # that sorting the elements themselves on ``_sort_key`` gives.
    parts.append(b"|universe|")
    order = sorted(
        range(len(universe)),
        key=list(map(key_of, map(id, universe))).__getitem__,
    )
    parts += map(token_of, map(id, map(universe.__getitem__, order)))
    parts.append(b"|facts|")
    for name, facts in relations:
        rows = list(
            zip(*[map(key_of, map(id, column)) for column in zip(*facts)])
        ) or facts  # a nullary relation has no columns
        for index in sorted(range(len(facts)), key=rows.__getitem__):
            parts.append(name)
            parts += map(token_of, map(id, facts[index]))
            parts.append(b";")
    result = hashlib.sha256(b"".join(parts)).hexdigest()
    structure._fingerprint = result
    return result


def instance_fingerprint(source: Structure, target: Structure) -> str:
    """A stable digest identifying the *instance* (A, B) up to equality.

    The solve service coalesces duplicate in-flight requests under this
    key (combined with the solve options): two structurally equal
    instances — typically the same query text parsed twice from two
    connections — share one computation.  Hashing the two per-structure
    digests (each memoized on its structure) keeps the combination
    length-safe and order-sensitive: (A, B) and (B, A) never collide.
    """
    pair = f"{canonical_fingerprint(source)}->{canonical_fingerprint(target)}"
    return hashlib.sha256(pair.encode()).hexdigest()
