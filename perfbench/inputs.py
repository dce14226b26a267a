"""Seeded request generation for the two workloads.

Every builder is a pure function of its seed: calling it twice gives
structurally equal, *independently built* objects, which is how the
benchmark gets copies in a chosen memo state (compiled targets,
fingerprints and decompositions are memoized on ``Structure`` objects)
and how the correctness gate gets copies the measured run never touched.

Sources come from the ``benchmarks/_workloads.py`` families; targets of
the cold workload come from a small fixed set built once per process.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import _workloads as families
from repro.cq.canonical import body_structure
from repro.cq.query import Atom, ConjunctiveQuery
from repro.csp.generators import random_chain_query, random_query
from repro.structures.fingerprint import instance_fingerprint
from repro.structures.graphs import clique, cycle, random_digraph, random_graph
from repro.structures.io import query_to_text
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

EDGE_VOCABULARY = Vocabulary.from_arities({"E": 2})


@dataclass
class Request:
    """One request: a solve, a containment (rule texts) or a datalog."""

    op: str
    label: str
    source: Structure | None = None
    target: Structure | None = None
    q1: str | None = None
    q2: str | None = None
    k: int = 2

    def fingerprint(self) -> str:
        """Identifies the request up to equality (op included)."""
        if self.op == "containment":
            body = f"{self.q1}\0{self.q2}"
        else:
            body = instance_fingerprint(self.source, self.target)
        return hashlib.sha256(f"{self.op}\0{body}".encode()).hexdigest()


def _mix(seed: int, *parts: int) -> int:
    """A derived seed: stable across processes (no ``hash()``)."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def _directed_targets() -> list[Structure]:
    """Datalog targets: K3 (2-pebble rarely refutes) and two acyclic
    digraphs whose arc consistency refutes most random sources."""
    transitive_triangle = Structure(
        EDGE_VOCABULARY, {0, 1, 2}, {"E": {(0, 1), (0, 2), (1, 2)}}
    )
    path = Structure(
        EDGE_VOCABULARY, {0, 1, 2, 3}, {"E": {(0, 1), (1, 2), (2, 3)}}
    )
    return [clique(3), transitive_triangle, path]


def _chain_pair(rng: random.Random) -> tuple[str, str]:
    """A chain query with dangling atoms against a plain chain query.

    ``Q1 ⊆ Q2`` holds exactly when the chain lengths agree, so about a
    third of the pairs are contained.
    """
    length = rng.randint(2, 5)
    atoms = [Atom("E", (f"X{i}", f"X{i + 1}")) for i in range(length)]
    for j in range(rng.randint(0, 3)):
        atoms.append(Atom("E", (f"X{rng.randint(0, length - 1)}", f"Y{j}")))
    q1 = ConjunctiveQuery(("X0", f"X{length}"), atoms)
    q2 = random_chain_query(max(1, length + rng.choice((-1, 0, 1))))
    return query_to_text(q1), query_to_text(q2)


# -- edge-hot ---------------------------------------------------------------


def edge_hot_instances(seed: int) -> list[Request]:
    """The fixed set of a few dozen small instances behind ``edge-hot``."""
    rng = random.Random(_mix(seed, 0))
    out: list[Request] = []

    def s() -> int:
        return rng.randrange(1 << 30)

    for schaefer in ("bijunctive", "affine"):
        for _ in range(4):
            source, target = families.boolean_instance(12, schaefer, seed=s())
            out.append(Request("solve", schaefer, source, target))
    for _ in range(4):
        source, target = families.satisfiable_horn_instance(12, seed=s())
        out.append(Request("solve", "horn", source, target))
    for n in (4, 5, 6, 7, 8, 9):
        out.append(Request("solve", "cycle-k3", cycle(n), clique(3)))
    for _ in range(6):
        source, target = families.two_coloring_instance(12, seed=s())
        out.append(Request("solve", "two-coloring", source, target))
    for _ in range(6):
        query = random_query(4, 4, EDGE_VOCABULARY, seed=s())
        out.append(
            Request(
                "solve",
                "cq-evaluation",
                body_structure(query),
                random_digraph(8, 0.3, seed=s()),
            )
        )
    for _ in range(8):
        q1, q2 = _chain_pair(random.Random(s()))
        out.append(Request("containment", "chain-containment", q1=q1, q2=q2))
    targets = _directed_targets()
    for index in range(8):
        out.append(
            Request(
                "datalog",
                "datalog-k2",
                random_digraph(6, 0.25, seed=s()),
                targets[index % len(targets)],
            )
        )
    return out


#: Share of ``edge-hot`` requests per endpoint.
EDGE_HOT_MIX = (("solve", 0.75), ("containment", 0.125), ("datalog", 0.125))


def edge_hot_order(seed: int, client: int, count: int, instances) -> list[int]:
    """Instance indices one closed-loop client sends, in order."""
    rng = random.Random(_mix(seed, 1, client))
    by_op: dict[str, list[int]] = {}
    for index, request in enumerate(instances):
        by_op.setdefault(request.op, []).append(index)
    ops = [op for op, _share in EDGE_HOT_MIX]
    weights = [share for _op, share in EDGE_HOT_MIX]
    return [
        rng.choice(by_op[rng.choices(ops, weights)[0]]) for _ in range(count)
    ]


# -- solve-cold -------------------------------------------------------------

#: ``(family, weight)``: the share of ``solve-cold`` requests per family.
#: The cheap families (Schaefer islands, containment, datalog) are four
#: fifths of the requests but under a tenth of the time.  That puts the
#: median inside the datalog group, and keeps the requests a garbage
#: collection pause lands on well under one percent, so p99 falls in the
#: heavy families rather than on the boundary between the two.
SOLVE_COLD_MIX = (
    ("horn", 4),
    ("bijunctive", 4),
    ("affine", 4),
    ("treewidth", 1),
    ("ktree-w2", 1),
    ("ktree-w3", 1),
    ("ktree-w4", 1),
    ("pebble-2col", 1),
    ("clique", 1),
    ("cq-evaluation", 1),
    ("containment", 8),
    ("datalog", 16),
)

#: How many fixed targets each Boolean / database family cycles through.
FIXED_TARGETS = 4


class ColdTargets:
    """The small fixed target set of ``solve-cold``, built once.

    Requests share these very objects, so the pipeline's target-side
    cache (and the per-object memos) hit while source-side work never
    repeats.
    """

    def __init__(self) -> None:
        self.horn = [
            families.satisfiable_horn_instance(40, seed=t)[1]
            for t in range(FIXED_TARGETS)
        ]
        self.boolean = {
            schaefer: [
                families.boolean_instance(30, schaefer, seed=t)[1]
                for t in range(FIXED_TARGETS)
            ]
            for schaefer in ("bijunctive", "affine")
        }
        self.cliques = {k: clique(k) for k in (3, 4)}
        self.two_values = families.pebble_two_coloring_instance(2, seed=0)[1]
        self.databases = [
            random_digraph(12, 0.3, seed=t) for t in range(FIXED_TARGETS)
        ]
        self.directed = _directed_targets()


def _cold_family(seed: int, index: int) -> str:
    """Families are dealt in shuffled blocks holding each family as
    often as its weight, so every stretch of the stream has the same
    mix and only the instances vary between seeds."""
    block = [label for label, weight in SOLVE_COLD_MIX for _ in range(weight)]
    block_index, position = divmod(index, len(block))
    random.Random(_mix(seed, 5, block_index)).shuffle(block)
    return block[position]


def solve_cold_request(
    seed: int, index: int, targets: ColdTargets
) -> Request:
    """Request ``index`` of the ``solve-cold`` stream for ``seed``.

    Each request draws a fresh derived seed, so no source repeats.  In
    the clique family the searched graph is the varying side: the
    source there is the pattern ``K_k`` itself.
    """
    rng = random.Random(_mix(seed, 2, index))
    label = _cold_family(seed, index)
    fresh = rng.randrange(1 << 30)
    pick = rng.randrange(FIXED_TARGETS)
    if label == "horn":
        source = families.satisfiable_horn_instance(40, seed=fresh)[0]
        return Request("solve", label, source, targets.horn[pick])
    if label in ("bijunctive", "affine"):
        source = families.boolean_instance(30, label, seed=fresh)[0]
        return Request("solve", label, source, targets.boolean[label][pick])
    if label == "treewidth":
        source = families.treewidth_instance(36, 2, seed=fresh)[0]
        return Request("solve", label, source, targets.cliques[3])
    if label.startswith("ktree-w"):
        width = int(label[-1])
        (_l, source, target, _cert), = families.bounded_treewidth_family(
            widths=(width,), n=36, seed=fresh
        )
        return Request(
            "solve", label, source, targets.cliques[len(target.universe)]
        )
    if label == "pebble-2col":
        source = families.pebble_two_coloring_instance(24, seed=fresh)[0]
        return Request("solve", label, source, targets.two_values)
    if label == "clique":
        k = rng.choice((4, 5))
        return Request(
            "solve", label, clique(k), random_graph(16, 0.5, seed=fresh)
        )
    if label == "cq-evaluation":
        query = random_query(5, 5, EDGE_VOCABULARY, seed=fresh)
        return Request(
            "solve", label, body_structure(query), targets.databases[pick]
        )
    if label == "containment":
        q1, q2 = _chain_pair(random.Random(fresh))
        return Request("containment", label, q1=q1, q2=q2)
    source = random_digraph(8, rng.choice((0.15, 0.25)), seed=fresh)
    return Request(
        "datalog", label, source, targets.directed[pick % len(targets.directed)]
    )
