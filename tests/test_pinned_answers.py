"""The answers the workbench gives, pinned by SHA-256.

Each digest covers a text rendering of many answers at once: the order-4
census, seeded derivation searches, seeded counterexamples and the
``paper-verify --full`` report. A change that is meant to keep every answer
byte-identical must leave all four digests as they are. A change that
alters an answer on purpose updates the digest and says why.
"""

import hashlib
import random

from aisemiring.algebra import REGISTRY_NAMES, registry, serialize_algebra
from aisemiring.derivation import format_derivation, search_derivation
from aisemiring.enumeration import enumerate_ai_semirings
from aisemiring.satisfaction import holds_inequality
from aisemiring.verify import (SOUNDNESS_BOUNDS, _random_reachable_claim, _random_sigma,
                               random_inequality, run_claims)


def sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def census_lines():
    for S in enumerate_ai_semirings(4):
        yield serialize_algebra(S)


def search_lines(count=200, seed=15):
    """Reason, counters and derivation of searches drawn as the
    derivation-soundness claim draws them."""
    rng = random.Random(seed)
    for _ in range(count):
        sigma = _random_sigma(rng)
        claim = _random_reachable_claim(rng, sigma, SOUNDNESS_BOUNDS)
        result = search_derivation(sigma, claim, SOUNDNESS_BOUNDS)
        yield (f"{result.reason}; explored {result.explored}; pruned {result.pruned}; "
               f"frontier {result.frontier_sizes}")
        if result.found:
            yield format_derivation(result.derivation)


def counterexample_lines(count=2000, seed=15):
    """Verdict and counterexample of seeded inequalities, each checked on
    the registry algebras in turn."""
    rng = random.Random(seed)
    algebras = [registry(name) for name in REGISTRY_NAMES]
    for i in range(count):
        S = algebras[i % len(algebras)]
        q, u = random_inequality(rng)
        v = holds_inequality(S, q, u)
        line = f"{S.name}: {q} <= {u}: "
        if v.holds:
            yield line + "holds"
        else:
            c = v.counterexample
            yield line + f"{sorted(c.assignment.items())} {c.left_value} {c.right_value}"


def test_order_4_census():
    assert sha256(census_lines()) == (
        "d91feb08f7ebb9e033c2f93cf076f3c0362918f82c5469ae047c91cb769b6eda"
    )


def test_derivation_searches():
    assert sha256(search_lines()) == (
        "b9efee0a5a7c8b8e2de7c2349f6b016b293fc27b0fce2d20ebc27c0c2af10962"
    )


def test_counterexamples():
    assert sha256(counterexample_lines()) == (
        "b3149bc5cc654adb8a61f3e055ea299d22005aa3989d1141bfb93e08925a4c0d"
    )


def test_paper_verify_report():
    # the --json report without its "seconds" lines, the only part that
    # varies from run to run
    report = run_claims(full=True).to_json().splitlines()
    assert sha256(line for line in report if '"seconds"' not in line) == (
        "b8252f06d59eee665aae5b8be385c3d1849e031849e756aec05a27143449f169"
    )
