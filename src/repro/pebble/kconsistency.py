"""Strong k-consistency, table-based (an independent route to Theorem 4.9).

This module re-implements the pebble-game fixpoint of
:mod:`repro.pebble.game` with a different data layout — one table of
surviving assignments per domain subset of size ≤ k, filtered by iterated
restriction/extension propagation — primarily so the test suite can
cross-check two independently written O(n^{2k}) implementations against
each other (and both against the ρ_B Datalog program of Theorem 4.7.2).

``strong_k_consistent(A, B, k)`` is the decision form: it returns False
exactly when the closure is empty, i.e. when the Spoiler wins the
existential k-pebble game.

The default engine is the generalized compiled k-pebble fixpoint
(:mod:`repro.kernel.pebblek`), which returns the identical tables; the
table-filtering loop below remains as the parity oracle behind
``engine="legacy"``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Hashable

from repro.exceptions import VocabularyError
from repro.kernel.engine import LEGACY, resolve_engine
from repro.structures.structure import Structure

__all__ = ["consistency_tables", "strong_k_consistent"]

Element = Hashable
Domain = tuple[Element, ...]
Table = dict[Domain, set[tuple[Element, ...]]]


def _allowed(
    domain: Domain,
    image: tuple[Element, ...],
    source: Structure,
    target: Structure,
    covered_facts: dict[Domain, list[tuple[str, tuple[Element, ...]]]],
) -> bool:
    mapping = dict(zip(domain, image))
    for name, fact in covered_facts[domain]:
        if tuple(mapping[e] for e in fact) not in target.relation(name):
            return False
    return True


def consistency_tables(
    source: Structure, target: Structure, k: int, *, engine: str | None = None
) -> Table | None:
    """Compute, per sorted domain tuple of size ≤ k, the surviving images.

    Returns ``None`` when some table empties — i.e. strong k-consistency
    cannot be established and no homomorphism exists.  Both engines
    return the same tables, image for image.
    """
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("consistency requires a common vocabulary")
    if k < 1:
        raise ValueError("k must be at least 1")
    if resolve_engine(engine) != LEGACY:
        from repro.kernel.pebblek import kernel_consistency_tables

        return kernel_consistency_tables(source, target, k)

    elements = source.sorted_universe
    values = target.sorted_universe
    if not elements:
        return {(): {()}}

    domains: list[Domain] = []
    for size in range(1, min(k, len(elements)) + 1):
        domains.extend(combinations(elements, size))

    # Pre-index the facts fully covered by each domain.
    covered: dict[Domain, list[tuple[str, tuple[Element, ...]]]] = {
        d: [] for d in domains
    }
    facts = list(source.facts())
    for d in domains:
        members = set(d)
        covered[d] = [
            (name, fact)
            for name, fact in facts
            if all(e in members for e in fact)
        ]

    tables: Table = {}
    for d in domains:
        tables[d] = {
            image
            for image in product(values, repeat=len(d))
            if _allowed(d, image, source, target, covered)
        }

    changed = True
    while changed:
        changed = False
        for d in domains:
            survivors = set()
            for image in tables[d]:
                mapping = dict(zip(d, image))
                # Downward: every one-element restriction must survive.
                ok = True
                if len(d) > 1:
                    for drop in range(len(d)):
                        sub_domain = d[:drop] + d[drop + 1 :]
                        sub_image = image[:drop] + image[drop + 1 :]
                        if sub_image not in tables[sub_domain]:
                            ok = False
                            break
                # Upward (forth): if |d| < k, every further element must
                # admit a surviving extension.
                if ok and len(d) < k:
                    for a in elements:
                        if a in mapping:
                            continue
                        extended_domain = tuple(
                            sorted(
                                d + (a,),
                                key=lambda e: elements.index(e),
                            )
                        )
                        position = extended_domain.index(a)
                        found = False
                        for b in values:
                            candidate = (
                                image[:position] + (b,) + image[position:]
                            )
                            if candidate in tables[extended_domain]:
                                found = True
                                break
                        if not found:
                            ok = False
                            break
                if ok:
                    survivors.add(image)
            if len(survivors) != len(tables[d]):
                tables[d] = survivors
                changed = True
            if not survivors:
                return None
    return tables


def strong_k_consistent(
    source: Structure, target: Structure, k: int, *, engine: str | None = None
) -> bool:
    """Decision form: can strong k-consistency be established non-trivially?

    Equivalent to "the Duplicator wins the existential k-pebble game";
    by Theorem 4.8 it decides CSP(A, B) exactly when cCSP(B) is
    expressible in k-Datalog.
    """
    if resolve_engine(engine) != LEGACY:
        if source.vocabulary != target.vocabulary:
            raise VocabularyError("consistency requires a common vocabulary")
        if k < 1:
            raise ValueError("k must be at least 1")
        from repro.kernel.pebblek import spoiler_wins_k

        # Decision only: skip the table decode.
        return not spoiler_wins_k(source, target, k)
    return consistency_tables(source, target, k, engine=engine) is not None
