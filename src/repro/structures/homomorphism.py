"""The homomorphism problem for finite relational structures.

Given structures ``A`` and ``B`` over the same vocabulary, a *homomorphism*
``h: A → B`` is a map on universes such that every fact of ``A`` is sent to a
fact of ``B``:  ``(c₁, …, c_r) ∈ Rᴬ`` implies ``(h(c₁), …, h(c_r)) ∈ Rᴮ``.

The paper's central observation (Section 2) is that conjunctive-query
containment, conjunctive-query evaluation, and constraint satisfaction are all
this one problem.  This module provides:

* :func:`is_homomorphism` — check a candidate map;
* :func:`find_homomorphism` — the generic NP backtracking search used as the
  baseline everywhere (MRV variable ordering + forward checking);
* :func:`all_homomorphisms` / :func:`count_homomorphisms` — enumeration;
* :func:`image` — the homomorphic image of a structure under a map.

The backtracking search is deliberately the *uniform* general-case algorithm:
Sections 3–5 of the paper are about inputs where it can be replaced by a
polynomial algorithm, and the benchmark suite compares those algorithms
against this one.

Two engines implement it.  The default is the compiled bitset kernel
(:mod:`repro.kernel`), which visits the identical search tree on
integer-indexed masks; the original pure-dict search below remains the
reference semantics — same answers, in the same deterministic order —
selectable per call with ``engine="legacy"``, and held to exact
agreement by the randomized parity suite.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Sequence

from repro.exceptions import VocabularyError
from repro.kernel.engine import LEGACY, resolve_engine
from repro.kernel.search import count_solutions, search_homomorphisms
from repro.structures.structure import Structure, _sort_key

__all__ = [
    "is_homomorphism",
    "find_homomorphism",
    "all_homomorphisms",
    "count_homomorphisms",
    "homomorphism_exists",
    "image",
    "SearchStats",
]

Element = Hashable
Assignment = dict[Element, Element]


def _check_same_vocabulary(a: Structure, b: Structure) -> None:
    if a.vocabulary != b.vocabulary:
        raise VocabularyError(
            "homomorphism requires both structures over the same vocabulary; "
            f"got {a.vocabulary!r} and {b.vocabulary!r}"
        )


def is_homomorphism(
    mapping: Mapping[Element, Element], source: Structure, target: Structure
) -> bool:
    """True when ``mapping`` is a homomorphism from ``source`` to ``target``.

    ``mapping`` must be defined on the whole universe of ``source`` and land
    inside the universe of ``target``.
    """
    _check_same_vocabulary(source, target)
    universe = source.universe
    if not all(e in mapping for e in universe):
        return False
    if not all(mapping[e] in target.universe for e in universe):
        return False
    for name, fact in source.facts():
        if tuple(mapping[e] for e in fact) not in target.relation(name):
            return False
    return True


class SearchStats:
    """Mutable counters exposed by the backtracking search.

    The benchmark harness reads these to report work done (nodes visited,
    backtracks) alongside wall-clock time.
    """

    __slots__ = ("nodes", "backtracks")

    def __init__(self) -> None:
        self.nodes = 0
        self.backtracks = 0

    def __repr__(self) -> str:
        return f"SearchStats(nodes={self.nodes}, backtracks={self.backtracks})"


def _initial_domains(
    source: Structure, target: Structure
) -> dict[Element, set[Element]] | None:
    """Node-consistent initial domains, or ``None`` if trivially unsat.

    Each element of ``source`` starts with the full universe of ``target``,
    then is narrowed per fact: an element occurring at position ``i`` of a
    fact of relation ``R`` can only map to values occurring at position ``i``
    of some tuple of ``Rᴮ``.
    """
    full = set(target.universe)
    domains: dict[Element, set[Element]] = {
        e: set(full) for e in source.universe
    }
    position_values: dict[tuple[str, int], set[Element]] = {}
    for symbol, rel in target.relations():
        for i in range(symbol.arity):
            position_values[(symbol.name, i)] = {t[i] for t in rel}
    for name, fact in source.facts():
        for i, element in enumerate(fact):
            domains[element] &= position_values[(name, i)]
            if not domains[element]:
                return None
    return domains


def _facts_by_element(
    source: Structure,
) -> dict[Element, list[tuple[str, tuple[Element, ...]]]]:
    index: dict[Element, list[tuple[str, tuple[Element, ...]]]] = {
        e: [] for e in source.universe
    }
    for name, fact in source.facts():
        seen: set[Element] = set()
        for element in fact:
            if element not in seen:
                index[element].append((name, fact))
                seen.add(element)
    return index


def _search(
    source: Structure,
    target: Structure,
    *,
    stats: SearchStats,
    order: Sequence[Element] | None,
    fixed: Mapping[Element, Element] | None = None,
) -> Iterator[Assignment]:
    """Backtracking generator over all homomorphisms source → target.

    Uses minimum-remaining-values (MRV) dynamic variable ordering unless a
    static ``order`` is supplied, and forward checking: assigning ``h(a)``
    filters, for every fact containing ``a``, the values still possible for
    the fact's other elements.
    """
    domains = _initial_domains(source, target)
    if domains is None:
        return
    for element, value in (fixed or {}).items():
        if element not in domains or value not in domains[element]:
            return
        domains[element] = {value}
    if not source.universe:
        yield {}
        return
    facts_of = _facts_by_element(source)
    assignment: Assignment = {}
    static_order = list(order) if order is not None else None

    def pick_unassigned() -> Element:
        if static_order is not None:
            for element in static_order:
                if element not in assignment:
                    return element
        return min(
            (e for e in domains if e not in assignment),
            key=lambda e: (len(domains[e]), _sort_key(e)),
        )

    def prune_after(element: Element) -> list[tuple[Element, Element]] | None:
        """Forward-check facts touching ``element``.

        Returns the list of (element, removed value) prunings for undo, or
        ``None`` on a wipe-out.
        """
        removed: list[tuple[Element, Element]] = []
        for name, fact in facts_of[element]:
            rel = target.relation(name)
            compatible = [
                t
                for t in rel
                if all(
                    assignment.get(fact[i], t[i]) == t[i]
                    for i in range(len(fact))
                )
            ]
            if not compatible:
                _undo(removed)
                return None
            for i, other in enumerate(fact):
                if other in assignment:
                    continue
                allowed = {t[i] for t in compatible}
                for value in list(domains[other]):
                    if value not in allowed:
                        domains[other].discard(value)
                        removed.append((other, value))
                if not domains[other]:
                    _undo(removed)
                    return None
        return removed

    def _undo(removed: list[tuple[Element, Element]]) -> None:
        for other, value in removed:
            domains[other].add(value)

    def extend() -> Iterator[Assignment]:
        if len(assignment) == len(domains):
            yield dict(assignment)
            return
        element = pick_unassigned()
        for value in sorted(domains[element], key=_sort_key):
            stats.nodes += 1
            assignment[element] = value
            removed = prune_after(element)
            if removed is not None:
                yield from extend()
                _undo(removed)
            else:
                stats.backtracks += 1
            del assignment[element]

    yield from extend()


def find_homomorphism(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
    fixed: Mapping[Element, Element] | None = None,
    engine: str | None = None,
) -> Assignment | None:
    """Find one homomorphism ``source → target`` or return ``None``.

    This is the generic (worst-case exponential) baseline solver.  ``order``
    fixes a static variable order; by default MRV dynamic ordering is used.
    ``fixed`` pre-pins the images of some elements (used e.g. to search for
    retractions).  Pass a :class:`SearchStats` to collect search counters.
    ``engine`` selects the compiled kernel (default) or the legacy
    reference search; both return the same assignment.
    """
    _check_same_vocabulary(source, target)
    if source.universe and not target.universe:
        return None
    stats = stats if stats is not None else SearchStats()
    if resolve_engine(engine) == LEGACY:
        results = _search(source, target, stats=stats, order=order, fixed=fixed)
    else:
        results = search_homomorphisms(
            source, target, stats=stats, order=order, fixed=fixed
        )
    for assignment in results:
        return assignment
    return None


def homomorphism_exists(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
    engine: str | None = None,
) -> bool:
    """Decision-problem convenience wrapper around :func:`find_homomorphism`.

    Accepts and propagates the same ``order=`` / ``stats=`` / ``engine=``
    keywords as :func:`find_homomorphism`.
    """
    return (
        find_homomorphism(
            source, target, order=order, stats=stats, engine=engine
        )
        is not None
    )


def all_homomorphisms(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
    engine: str | None = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism ``source → target`` (deterministic order).

    Both engines enumerate in the same order; ``order=`` / ``stats=`` work
    as in :func:`find_homomorphism`.
    """
    _check_same_vocabulary(source, target)
    if source.universe and not target.universe:
        return
    stats = stats if stats is not None else SearchStats()
    if resolve_engine(engine) == LEGACY:
        yield from _search(source, target, stats=stats, order=order)
    else:
        yield from search_homomorphisms(
            source, target, stats=stats, order=order
        )


def count_homomorphisms(
    source: Structure,
    target: Structure,
    *,
    order: Sequence[Element] | None = None,
    stats: SearchStats | None = None,
    engine: str | None = None,
) -> int:
    """The number of homomorphisms ``source → target``.

    Accepts and propagates the same ``order=`` / ``stats=`` / ``engine=``
    keywords as :func:`find_homomorphism`.  On the kernel engine the
    count comes from :func:`repro.kernel.search.count_solutions`, which
    walks the identical search tree but only tallies the leaves instead
    of materializing one assignment dict per homomorphism; the legacy
    engine counts by exhausting the reference enumerator.
    """
    _check_same_vocabulary(source, target)
    if source.universe and not target.universe:
        return 0
    stats = stats if stats is not None else SearchStats()
    if resolve_engine(engine) == LEGACY:
        return sum(
            1 for _ in _search(source, target, stats=stats, order=order)
        )
    return count_solutions(source, target, stats=stats, order=order)


def image(
    source: Structure,
    mapping: Mapping[Element, Element],
    universe: Sequence[Element] | None = None,
) -> Structure:
    """The homomorphic image of ``source`` under ``mapping``.

    The image has universe ``mapping[source.universe]`` (extended by the
    optional explicit ``universe``) and relations the pointwise images of the
    relations of ``source``.  There is always a surjective homomorphism from
    ``source`` onto its image, a fact exploited by the core/minimization code.
    """
    elements = {mapping[e] for e in source.universe}
    if universe is not None:
        elements.update(universe)
    relations = {
        symbol.name: {tuple(mapping[e] for e in fact) for fact in rel}
        for symbol, rel in source.relations()
    }
    return Structure(source.vocabulary, elements, relations)
