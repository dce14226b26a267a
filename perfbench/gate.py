"""The correctness gate: expected answers from independently built copies.

* solve verdicts come from a direct ``repro.solve`` (the default,
  unplanned route order, so a planner mistake cannot agree with itself);
* containment verdicts from ``contains(engine="legacy")``;
* every "yes" witness is re-checked with ``is_homomorphism``;
* every ``canonical_refutes`` = True must meet a "no" from solve.

A mismatch raises :class:`~harness.CorrectnessError`, which aborts the
run with a non-zero exit; it is never counted as a failed request.
"""

from __future__ import annotations

from harness import CorrectnessError
from repro import contains, is_homomorphism, solve
from repro.cq.compiled import compile_query
from repro.cq.parser import parse_query


def expected_verdict(request) -> bool:
    """The reference answer for ``request`` (built from its own copy)."""
    if request.op == "containment":
        return contains(
            parse_query(request.q1), parse_query(request.q2), engine="legacy"
        )
    return solve(request.source, request.target).exists


def containment_instance(q1_text: str, q2_text: str):
    """``(D_{Q2}, D_{Q1})``: the homomorphism instance of ``Q1 ⊆ Q2``."""
    q1, q2 = parse_query(q1_text), parse_query(q2_text)
    union = q1.vocabulary.union(q2.vocabulary)
    return (
        compile_query(q2).canonical_for(union),
        compile_query(q1).canonical_for(union),
    )


def check_answer(request, verdict: bool, witness, expected: bool) -> None:
    """Raise unless ``verdict`` matches and a "yes" witness is valid.

    ``witness`` is a mapping, a list of ``[element, image]`` pairs (the
    edge's wire form), or ``None`` when the entry point returns none.
    """
    if verdict != expected:
        raise CorrectnessError(
            f"{request.label}/{request.op}: answered {verdict}, "
            f"expected {expected}"
        )
    if not verdict or witness is None:
        return
    mapping = dict(witness) if not isinstance(witness, dict) else witness
    if request.op == "containment":
        source, target = containment_instance(request.q1, request.q2)
    else:
        source, target = request.source, request.target
    if not is_homomorphism(mapping, source, target):
        raise CorrectnessError(
            f"{request.label}/{request.op}: witness is not a homomorphism"
        )


def check_refutation(request, refutes: bool, expected: bool) -> None:
    """A canonical-Datalog refutation must meet a "no" from solve."""
    if refutes and expected:
        raise CorrectnessError(
            f"{request.label}: canonical_refutes says no homomorphism, "
            "solve found one"
        )
