"""Fingerprints are stable across interpreter hash seeds.

The persistent store keys every artifact by a fingerprint.  If any of
those fingerprints leaked ``hash()`` (which ``PYTHONHASHSEED``
randomizes per process), a store written by one process generation would
silently never hit in the next — warm restarts would be cold restarts
with extra I/O.  This suite computes every fingerprint family in
subprocesses pinned to *different* hash seeds and asserts byte
equality.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

_FINGERPRINT_SCRIPT = """
from repro.cq.compiled import query_fingerprint
from repro.cq.query import ConjunctiveQuery
from repro.persist import datalog_key
from repro.structures.fingerprint import (
    canonical_fingerprint,
    instance_fingerprint,
)
from repro.structures.structure import Structure
from repro.structures.vocabulary import Vocabulary

# Mixed element types on purpose: strings are where hash randomization
# would bite, and frozenset/dict iteration order depends on it.
voc = Vocabulary.from_arities({"E": 2, "P": 1})
a = Structure(
    voc,
    ["x", "y", "z"],
    {"E": [("x", "y"), ("y", "z"), ("z", "x")], "P": [("y",), ("x",)]},
)
b = Structure(
    voc,
    range(4),
    {"E": [(i, j) for i in range(4) for j in range(4) if i != j], "P": [(0,)]},
)
query = ConjunctiveQuery(
    ("X",),
    [("E", ("X", "Y")), ("E", ("Y", "Z")), ("P", ("Z",))],
)

print(canonical_fingerprint(a))
print(canonical_fingerprint(b))
print(instance_fingerprint(a, b))
print(query_fingerprint(query))
print(datalog_key(canonical_fingerprint(b), 3))
"""


def _fingerprints_under_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH", "")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return result.stdout


@pytest.mark.parametrize("seed", ["1", "2", "4242"])
def test_fingerprints_identical_across_hash_seeds(seed):
    """Every store key family is byte-identical under any hash seed."""
    baseline = _fingerprints_under_seed("0")
    assert baseline.count("\n") == 5
    assert _fingerprints_under_seed(seed) == baseline


def test_fingerprints_match_this_process(tmp_path):
    """The subprocess keys are the keys this process would use — so a
    store written here is readable by any later interpreter."""
    from repro.cq.compiled import query_fingerprint
    from repro.cq.query import ConjunctiveQuery
    from repro.persist import datalog_key
    from repro.structures.fingerprint import (
        canonical_fingerprint,
        instance_fingerprint,
    )
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    voc = Vocabulary.from_arities({"E": 2, "P": 1})
    a = Structure(
        voc,
        ["x", "y", "z"],
        {"E": [("x", "y"), ("y", "z"), ("z", "x")], "P": [("y",), ("x",)]},
    )
    b = Structure(
        voc,
        range(4),
        {
            "E": [(i, j) for i in range(4) for j in range(4) if i != j],
            "P": [(0,)],
        },
    )
    query = ConjunctiveQuery(
        ("X",),
        [("E", ("X", "Y")), ("E", ("Y", "Z")), ("P", ("Z",))],
    )
    expected = "\n".join(
        [
            canonical_fingerprint(a),
            canonical_fingerprint(b),
            instance_fingerprint(a, b),
            query_fingerprint(query),
            datalog_key(canonical_fingerprint(b), 3),
        ]
    )
    assert _fingerprints_under_seed("1").strip() == expected


# ---------------------------------------------------------------------------
# Pinned digests
# ---------------------------------------------------------------------------


def _mixed():
    """int/str/bool/float/tuple/frozenset elements, an isolated element
    and an empty relation."""
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    voc = Vocabulary.from_arities({"E": 2, "P": 1, "T": 3, "Z": 2})
    pair, small = ("t", 1), frozenset({1, 2})
    return Structure(
        voc,
        [0, "a", pair, small, True, 2.5, "isolated", -7],
        {
            "E": [(0, "a"), ("a", pair), (small, 0), (True, "a")],
            "P": [("a",), (2.5,), (pair,)],
            "T": [(0, 0, "a"), ("a", True, small)],
        },
    )


def _equal_but_differently_typed():
    """``True == 1``: the universe keeps ``1``, a fact keeps ``True``."""
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    voc = Vocabulary.from_arities({"P": 1, "Q": 1})
    return Structure(voc, [1, "1"], {"P": [(1,)], "Q": [(True,), ("1",)]})


def _empty():
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    return Structure(Vocabulary.from_arities({"E": 2, "U": 1}), [], {})


def _isolated():
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    voc = Vocabulary.from_arities({"E": 2})
    return Structure(voc, range(5), {"E": [(0, 1)]})


def _nullary():
    """A 0-ary relation holding ``()`` next to an empty one."""
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    voc = Vocabulary.from_arities({"Z": 0, "N": 0, "E": 2})
    return Structure(voc, ["b", "a"], {"Z": [()], "E": [("a", "b")]})


def _cycle5():
    from repro.structures.graphs import cycle

    return cycle(5)


def _clique3():
    from repro.structures.graphs import clique

    return clique(3)


#: Store keys are these digests: a change to the serialization behind
#: ``canonical_fingerprint`` turns every existing store cold.
GOLDEN_DIGESTS = {
    "mixed": (
        _mixed,
        "d834a8c82893f3cd21cc8508f91c6d458f18bdbb7dab5eabe882a248af547ed2",
    ),
    "equal_but_differently_typed": (
        _equal_but_differently_typed,
        "ee5b554eb427fc0779bac9016a87960b6d2fb78985f35dd27ced905ff712a82c",
    ),
    "empty": (
        _empty,
        "f7c873dcb35dbfc258bb21b69035179dd89bed08894368119773682465915f34",
    ),
    "isolated": (
        _isolated,
        "77e92e6b31b847939cb1f158612f2ba6ed455aa71b53c6a75d9804393df9cdb6",
    ),
    "nullary": (
        _nullary,
        "ed4c7c4b46cf339b13dd725e66f32d9e8bdea21df1a0e33244a07eeb52b18bda",
    ),
    "cycle5": (
        _cycle5,
        "d12cd4d836547ad0a525046bd88f18f4079943f0c06201c6f660bad1209684d4",
    ),
    "clique3": (
        _clique3,
        "81ad3b71efd1194cf5ea735ea578dd23e08a6c9f4be9684ab2dad50d773de025",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_canonical_fingerprint(name):
    from repro.structures.fingerprint import canonical_fingerprint

    build, digest = GOLDEN_DIGESTS[name]
    assert canonical_fingerprint(build()) == digest


def test_golden_instance_fingerprint():
    from repro.structures.fingerprint import instance_fingerprint

    assert instance_fingerprint(_cycle5(), _clique3()) == (
        "e872e612fb3e273a9d984be75e0d9ab3548e4162ad0c1dc43b91a127efeb9859"
    )



# ---------------------------------------------------------------------------
# Against a reference serializer
# ---------------------------------------------------------------------------


def _reference_fingerprint(structure) -> str:
    """The serialization the pinned digests were computed with.

    One ``(module.qualname, repr)`` token per value, hashed in
    ``Structure.sorted_universe`` and ``Structure.facts()`` order.
    """
    import hashlib

    def token(value) -> bytes:
        kind = f"{type(value).__module__}.{type(value).__qualname__}"
        text = repr(value)
        return f"{len(kind)}:{kind}{len(text)}:{text}".encode()

    digest = hashlib.sha256()
    for symbol in structure.vocabulary:
        digest.update(token(symbol.name))
        digest.update(token(symbol.arity))
    digest.update(b"|universe|")
    for element in structure.sorted_universe:
        digest.update(token(element))
    digest.update(b"|facts|")
    for name, fact in structure.facts():
        digest.update(token(name))
        for element in fact:
            digest.update(token(element))
        digest.update(b";")
    return digest.hexdigest()


class _First:
    class Tag:
        def __repr__(self) -> str:
            return "Tag"


class _Second:
    class Tag:
        def __repr__(self) -> str:
            return "Tag"


#: Values a random structure draws from.  Equal values of different
#: types or reprs (``1``/``True``/``1.0``, ``0.0``/``-0.0``,
#: ``(1,)``/``(True,)``) mix in the universe and the facts, and the two
#: ``Tag`` elements tie on the sort key yet differ in token, so the
#: order of ties must match too.
_POOL = [
    0, 1, 2, 7, -3, 10**20,
    True, False,
    0.0, -0.0, 1.0, 2.5, float("nan"),
    "", "a", "b", "ab", "1", "True",
    None,
    (1,), (True,), ("t", 1), (),
    frozenset(), frozenset({1, 2}), frozenset({"a"}),
    _First.Tag(), _Second.Tag(),
]


def _random_structure(rng):
    from repro.structures.structure import Structure
    from repro.structures.vocabulary import Vocabulary

    arities = {
        name: rng.randint(0, 3)
        for name in rng.sample(["E", "P", "R", "S"], rng.randint(1, 4))
    }
    universe = rng.sample(_POOL, rng.randint(0, 10))

    def occurrence(value):
        # An equal value, possibly another object, type or repr.
        if isinstance(value, str) and rng.random() < 0.5:
            return "".join([value, ""])
        aliases = [other for other in _POOL if other == value] or [value]
        return rng.choice(aliases)

    relations = {}
    for name, arity in arities.items():
        facts = []
        if universe or not arity:
            for _ in range(rng.randint(0, 8)):
                fact = [occurrence(rng.choice(universe)) for _ in range(arity)]
                facts.append(tuple(fact))
        relations[name] = facts
    return Structure(Vocabulary.from_arities(arities), universe, relations)


@pytest.mark.parametrize("seed", range(4))
def test_matches_reference_serializer(seed):
    """Random mixed-type structures hash exactly as the reference does."""
    import random

    from repro.structures.fingerprint import canonical_fingerprint

    rng = random.Random(seed)
    for _ in range(250):
        structure = _random_structure(rng)
        assert canonical_fingerprint(structure) == _reference_fingerprint(
            structure
        )
