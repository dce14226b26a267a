"""The existential k-pebble game (Section 4.2 of the paper).

The Spoiler places up to ``k`` pebbles on elements of ``A``; the Duplicator
answers on ``B``.  The Duplicator wins when she can play forever keeping the
pebbled correspondence a partial homomorphism.  Formally (after [KV95]) the
Duplicator wins iff there is a non-empty family ``H`` of partial
homomorphisms from ``A`` to ``B``, each with domain of size at most ``k``,
that is closed under restrictions and has the *forth property up to k*:
every ``f ∈ H`` with ``|dom(f)| < k`` extends, for every ``a ∈ A``, to some
``f′ ∈ H`` defined on ``a``.

Theorem 4.7.1: whether the Spoiler wins is decidable in polynomial time for
fixed ``k`` — compute the *greatest* such family by starting from all
partial homomorphisms with domain ≤ k and deleting functions that violate
restriction-closure or the forth property until a fixpoint; the Duplicator
wins iff the empty function survives.  The running time is the O(n^{2k}) of
Theorem 4.9.

Key consequences implemented here and cross-checked in the tests:

* if ``A → B`` then the Duplicator wins for every ``k``;
* (Theorem 4.8) when the complement of CSP(B) is expressible in k-Datalog,
  the Spoiler wins iff there is no homomorphism — the game *solves* the
  CSP, which is how the uniform algorithm of Theorem 4.9 works.

Two engines compute the fixpoint.  The default is the generalized
compiled k-pebble engine (:mod:`repro.kernel.pebblek` — bitset tables
over ≤ k-subassignments, worklist propagation with residuals), which
produces the *identical* greatest family; the deletion loop below stays
as the parity oracle, selectable per call with ``engine="legacy"``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Hashable

from repro.exceptions import VocabularyError
from repro.kernel.engine import LEGACY, resolve_engine
from repro.structures.structure import Structure

__all__ = [
    "PebbleGameResult",
    "solve_pebble_game",
    "duplicator_wins",
    "spoiler_wins",
    "kconsistency_closure",
]

Element = Hashable
PartialMap = frozenset[tuple[Element, Element]]


def _is_partial_homomorphism(
    mapping: dict[Element, Element], source: Structure, target: Structure
) -> bool:
    """Homomorphism condition on the substructure induced by the domain."""
    domain = mapping.keys()
    for name, fact in source.facts():
        if all(e in domain for e in fact):
            if tuple(mapping[e] for e in fact) not in target.relation(name):
                return False
    return True


class PebbleGameResult:
    """The fixpoint family of the existential k-pebble game.

    ``family`` holds the surviving partial homomorphisms (as frozensets of
    pairs); ``duplicator_wins`` is True iff the empty map survived.
    """

    __slots__ = ("k", "family", "duplicator_wins")

    def __init__(self, k: int, family: set[PartialMap]) -> None:
        self.k = k
        self.family = family
        self.duplicator_wins = frozenset() in family

    def winning_from(
        self, pairs: tuple[tuple[Element, Element], ...]
    ) -> bool:
        """Whether the given pebbled configuration is winning for the
        Duplicator (used by the Theorem 4.5 characterization)."""
        return frozenset(pairs) in self.family


def solve_pebble_game(
    source: Structure, target: Structure, k: int, *, engine: str | None = None
) -> PebbleGameResult:
    """Compute the greatest forth-closed family (Theorem 4.7.1).

    Worst-case O(n^{2k}) states; intended for the small fixed ``k`` regime
    the paper studies.  Both engines return the same family, map for map.
    """
    if source.vocabulary != target.vocabulary:
        raise VocabularyError("pebble game requires a common vocabulary")
    if k < 1:
        raise ValueError("need at least one pebble")
    if resolve_engine(engine) != LEGACY:
        from repro.kernel.pebblek import pebble_game_family

        return PebbleGameResult(k, pebble_game_family(source, target, k))

    elements = source.sorted_universe
    values = target.sorted_universe

    # All partial homomorphisms with |dom| <= k.
    family: set[PartialMap] = set()
    for size in range(0, min(k, len(elements)) + 1):
        for domain in combinations(elements, size):
            for image in product(values, repeat=size):
                mapping = dict(zip(domain, image))
                if _is_partial_homomorphism(mapping, source, target):
                    family.add(frozenset(mapping.items()))

    if not values and elements:
        return PebbleGameResult(k, set())

    # Delete until fixpoint.  A function dies when (a) one of its one-step
    # restrictions is dead, or (b) it is small and some element admits no
    # surviving extension.
    changed = True
    while changed:
        changed = False
        for f in list(family):
            if f not in family:
                continue
            items = dict(f)
            # (a) restriction-closure.
            dead = False
            for key in items:
                restriction = frozenset(
                    (a, b) for a, b in f if a != key
                )
                if restriction not in family:
                    dead = True
                    break
            # (b) forth property.
            if not dead and len(items) < k:
                for a in elements:
                    if a in items:
                        continue
                    if not any(
                        f | {(a, b)} in family for b in values
                    ):
                        dead = True
                        break
            if dead:
                family.discard(f)
                changed = True
    return PebbleGameResult(k, family)


def duplicator_wins(
    source: Structure, target: Structure, k: int, *, engine: str | None = None
) -> bool:
    """Whether the Duplicator wins the existential k-pebble game."""
    if resolve_engine(engine) != LEGACY:
        # Decision only: the kernel engine skips the family decode.
        if source.vocabulary != target.vocabulary:
            raise VocabularyError("pebble game requires a common vocabulary")
        if k < 1:
            raise ValueError("need at least one pebble")
        from repro.kernel.pebblek import spoiler_wins_k

        return not spoiler_wins_k(source, target, k)
    return solve_pebble_game(source, target, k, engine=engine).duplicator_wins


def spoiler_wins(
    source: Structure, target: Structure, k: int, *, engine: str | None = None
) -> bool:
    """Whether the Spoiler wins the existential k-pebble game."""
    return not duplicator_wins(source, target, k, engine=engine)


def kconsistency_closure(
    source: Structure, target: Structure, k: int, *, engine: str | None = None
) -> set[PartialMap]:
    """The surviving family itself — the strong-k-consistency closure.

    Exposed separately because Section 4's uniform algorithm (Theorem 4.9)
    is exactly: compute this closure; answer "no homomorphism" iff it is
    empty, which is sound and complete whenever cCSP(B) is expressible in
    k-Datalog (Theorem 4.8).
    """
    return solve_pebble_game(source, target, k, engine=engine).family
