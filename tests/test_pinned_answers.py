"""The answers the workbench gives, pinned by SHA-256.

Each digest covers a text rendering of many answers at once: the order-4
census, seeded derivation searches, seeded counterexamples and the
``paper-verify --full`` report, which also has one digest per claim. A
change that is meant to keep every answer byte-identical must leave all the
digests as they are. A change that alters an answer on purpose updates the
digest and says why; a new claim adds its own pin and leaves the others'.
"""

import hashlib
import json
import random

import pytest

from aisemiring.algebra import REGISTRY_NAMES, registry, serialize_algebra
from aisemiring.derivation import format_derivation, search_derivation
from aisemiring.enumeration import enumerate_ai_semirings
from aisemiring.satisfaction import holds_inequality
from aisemiring.verify import (CLAIM_TABLE, OUT_OF_SCOPE, SOUNDNESS_BOUNDS,
                               _random_reachable_claim, _random_sigma, random_inequality,
                               run_claims)

#: claim id -> digest of its object in the --full --json report, without
#: its "seconds" field, in report order
CLAIM_PINS = {
    "registry-valid": "b482db36ce542df83298db1894ffb01024805eefb88940aa49b7446777e7ee2d",
    "profile-s4-124": "8196f194f70f4ca20f6fb14701cf3a8641893a753bd53f99fc39d33247cf465c",
    "structure-s4-124": "8fd2393069a2870157a86bce6d2116d749587ef0a04349658b77a32c3ebc4261",
    "subdirect-decompositions":
        "0380d6914966dabb760f4db03dbc7b01bbda39833a73e5f771cae1f95553ba46",
    "family-brute-force": "7d870a81156a59a70fd0a72d818e1de44d0fcabcd0718359e99317e3a901e17b",
    "decider-oracle": "b964afde300dc6137ab2ad5851f3fcfc7d4f09c4645e6559bd4673a6b26468ff",
    "delta-computation": "207a45556d9f9948910452f26387702568b3782a56d98481d23e00b4a788876b",
    "graph-bipartition": "353f7ace6fa4c79ba19e76dec2ea4a8a3433ede363531f58458be0c07b2e7a59",
    "census-order-3": "d217b95eae3499db6807606e001c9283d85f17e79db9c4b3643cf9172d29fe63",
    "census-order-4": "0d0c05a804b6f59096cb13ca7a54567ea9734dadc6e1ee52f17881800d198e2c",
    "screen-order-3": "f72203be7eb2b54288346b992a675940cf72287ad2909c1e4c35b1f3e03ea24c",
    "derivation-soundness":
        "0f5fd073589d848bb3cd50c1843350ea348645dcd837f9f8f97b875dd85ca273",
    "nonfinite-basis-meta":
        "21662bfc539895ab8aab4f2a4034f10c815d2f741b059ef6f2e83fc671d012b7",
}


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


@pytest.fixture(scope="module")
def report():
    """The --full --json report's text; one run serves every test here."""
    return run_claims(full=True).to_json()


def test_paper_verify_report(report):
    # the --json report without its "seconds" lines, the only part that
    # varies from run to run
    assert sha256(line for line in report.splitlines() if '"seconds"' not in line) == (
        "b8252f06d59eee665aae5b8be385c3d1849e031849e756aec05a27143449f169"
    )


def test_report_passes_as_paper_verify_full(report):
    payload = json.loads(report)
    assert (payload["command"], payload["ok"]) == ("paper-verify --full", True)


def test_every_claim_is_pinned_in_order(report):
    assert [*CLAIM_TABLE, *OUT_OF_SCOPE] == list(CLAIM_PINS)
    assert [claim["id"] for claim in json.loads(report)["claims"]] == list(CLAIM_PINS)


@pytest.mark.parametrize("claim_id", list(CLAIM_PINS))
def test_claim(report, claim_id):
    (claim,) = [c for c in json.loads(report)["claims"] if c["id"] == claim_id]
    del claim["seconds"]
    assert sha256(json.dumps(claim, indent=2).splitlines()) == CLAIM_PINS[claim_id]
