"""Homomorphisms by dynamic programming over a tree decomposition
(Theorem 5.4).

Given a structure ``A`` with a tree decomposition of width ``w`` and an
arbitrary structure ``B``, decide ``A → B`` in time O(#bags · |B|^{w+1} ·
poly): root the decomposition; for each node, the *table* holds every map
from its bag into B that satisfies the facts assigned to that node and is
extendable on every child bag (agreeing on the shared elements).  A
homomorphism exists iff the root's table is non-empty, and one is
reconstructed top-down.

This is the executable content of Theorem 5.4; the paper's alternative
route through ∃FO^{k+1} evaluation (Lemma 5.2) lives in :mod:`repro.fo`
and the tests check the two always agree.

Two engines implement the DP.  The default is the compiled bitset
kernel (:mod:`repro.kernel.decomp` — nice-decomposition specialization,
int-coded bag tables, support-bitset semijoins); the original
bag-map-enumeration implementation below stays as the parity oracle,
selectable per call with ``engine="legacy"``.  Both return the same existence verdict on every
instance and always a valid homomorphism (witness elements may differ).
"""

from __future__ import annotations

from itertools import product
from typing import Hashable

from repro.exceptions import VocabularyError
from repro.kernel.engine import LEGACY, resolve_engine
from repro.structures.structure import Structure, _sort_key
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.heuristics import decompose

__all__ = ["solve_by_treewidth", "homomorphism_exists_by_treewidth"]

Element = Hashable
BagMap = tuple[tuple[Element, Element], ...]


def _bag_maps(
    bag: tuple[Element, ...],
    values: tuple[Element, ...],
    facts: list[tuple[str, tuple[Element, ...]]],
    target: Structure,
):
    """All maps bag → values satisfying the node's assigned facts."""
    for image in product(values, repeat=len(bag)):
        mapping = dict(zip(bag, image))
        if all(
            tuple(mapping[e] for e in fact) in target.relation(name)
            for name, fact in facts
        ):
            yield tuple(sorted(mapping.items(), key=lambda kv: _sort_key(kv[0])))


def solve_by_treewidth(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition | None = None,
    *,
    engine: str | None = None,
) -> dict[Element, Element] | None:
    """Find a homomorphism ``source → target`` via bag-table DP.

    ``decomposition`` defaults to a min-fill heuristic decomposition of
    the source (validated either way).  Returns a full homomorphism or
    ``None``; worst-case time is exponential only in the decomposition
    width, polynomial for bounded-treewidth sources (Theorem 5.4).
    ``engine`` selects the compiled kernel DP (default) or the legacy
    bag-map enumeration below.
    """
    if resolve_engine(engine) != LEGACY:
        from repro.kernel.decomp import solve_decomposition

        return solve_decomposition(source, target, decomposition)
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("instance structures must share a vocabulary")
    if decomposition is None:
        decomposition = decompose(source)
    else:
        decomposition.validate(source)
    if not source.universe:
        return {}
    if not target.universe:
        return None

    values = tuple(target.sorted_universe)
    facts_at = decomposition.assign_facts(source)
    order = decomposition.rooted(0)
    children: dict[int, list[int]] = {node: [] for node, _ in order}
    for node, parent in order:
        if parent is not None:
            children[parent].append(node)

    bags = {
        node: tuple(sorted(decomposition.bags[node], key=_sort_key))
        for node, _ in order
    }

    # Bottom-up: per node, the set of bag maps consistent with its subtree.
    tables: dict[int, set[BagMap]] = {}
    for node, _parent in reversed(order):
        bag = bags[node]
        bag_set = set(bag)
        table: set[BagMap] = set()
        child_views: list[tuple[int, tuple[Element, ...]]] = [
            (child, tuple(e for e in bags[child] if e in bag_set))
            for child in children[node]
        ]
        # Index child tables by their restriction to the shared elements.
        child_indexes = []
        for child, shared in child_views:
            index: set[tuple[tuple[Element, Element], ...]] = set()
            for child_map in tables[child]:
                lookup = dict(child_map)
                index.add(tuple((e, lookup[e]) for e in shared))
            child_indexes.append((shared, index))
        for candidate in _bag_maps(bag, values, facts_at[node], target):
            lookup = dict(candidate)
            if all(
                tuple((e, lookup[e]) for e in shared) in index
                for shared, index in child_indexes
            ):
                table.add(candidate)
        tables[node] = table
        if not table:
            return None

    # Top-down reconstruction.
    assignment: dict[Element, Element] = {}

    def choose(node: int, required: dict[Element, Element]) -> None:
        for candidate in sorted(tables[node], key=repr):
            lookup = dict(candidate)
            if all(lookup[e] == v for e, v in required.items()):
                assignment.update(lookup)
                for child in children[node]:
                    shared = {
                        e: assignment[e]
                        for e in bags[child]
                        if e in lookup
                    }
                    choose(child, shared)
                return
        raise AssertionError(
            "non-empty tables must admit a consistent choice; this is a bug"
        )

    choose(0, {})
    return assignment


def homomorphism_exists_by_treewidth(
    source: Structure,
    target: Structure,
    decomposition: TreeDecomposition | None = None,
    *,
    engine: str | None = None,
) -> bool:
    """Decision form of :func:`solve_by_treewidth`."""
    return (
        solve_by_treewidth(source, target, decomposition, engine=engine)
        is not None
    )
