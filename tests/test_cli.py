import json

import pytest

from aisemiring.algebra import parse_algebra, registry, serialize_algebra
from aisemiring.cli import main
from aisemiring.structure import are_isomorphic
from aisemiring import verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAMILY_U1 = "x1x2 + x2x3 + x3x1 + y1y2 + y2y1 + y1"


class TestValidate:
    def test_registry_dump_passes(self, tmp_path, capsys):
        path = tmp_path / "s7.alg"
        path.write_text(serialize_algebra(registry("S7")))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "valid" in out

    def test_corrupted_table_fails_with_witness(self, tmp_path, capsys):
        text = serialize_algebra(registry("S7")).replace("0 a 0", "0 1 0", 1)
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "violation" in out

    def test_empty_file_is_a_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "empty.alg"
        path.write_text("")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "empty" in err


class TestHolds:
    def test_family_instance_in_s7(self, capsys):
        code, out, _ = run(capsys, "holds", "S7", "--ineq", f"y2 <= {FAMILY_U1}")
        assert code == 0 and "yes" in out

    def test_reflexive(self, capsys):
        code, _, _ = run(capsys, "holds", "S2", "--ineq", "x <= x")
        assert code == 0

    def test_failure_prints_counterexample(self, capsys):
        code, out, _ = run(capsys, "holds", "S2", "--ineq", "x <= y")
        assert code == 1
        assert "counterexample" in out

    def test_json_mirrors_text(self, capsys):
        code, out, _ = run(capsys, "holds", "S2", "--json", "--ineq", "x <= y")
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["counterexample"]["assignment"] == {"x": "1", "y": "2"}

    def test_identity(self, capsys):
        code, _, _ = run(capsys, "holds", "S4_124", "--id", "xy = yx")
        assert code == 0

    def test_usage_error_without_statement(self, capsys):
        code, _, err = run(capsys, "holds", "S2")
        assert code == 2 and "exactly one" in err

    def test_unknown_algebra(self, capsys):
        code, _, err = run(capsys, "holds", "NOPE", "--ineq", "x <= x")
        assert code == 2 and "registry" in err

    def test_algebra_loaded_from_file(self, tmp_path, capsys):
        path = tmp_path / "s53.alg"
        path.write_text(serialize_algebra(registry("S53")))
        code, out, _ = run(capsys, "holds", str(path), "--ineq", "x <= x + y")
        assert code == 0 and "yes" in out


class TestDecide:
    @pytest.mark.parametrize("which", ["s2", "s7", "s53"])
    def test_family_instance_with_oracle(self, which, capsys):
        code, out, _ = run(
            capsys, "decide", which, "--oracle", "--ineq", f"y2 <= {FAMILY_U1}"
        )
        assert code == 0
        assert "oracle agrees" in out

    def test_failing_inequality_exits_one(self, capsys):
        code, out, _ = run(capsys, "decide", "s53", "--oracle", "--ineq", "xz <= xy + z")
        assert code == 1


class TestFamily:
    def test_s4_124(self, capsys):
        code, out, _ = run(capsys, "family", "--algebra", "S4_124", "--nmax", "2")
        assert code == 0
        assert out.count("holds") == 2

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "family", "--algebra", "S53", "--nmax", "1", "--json"
        )
        assert code == 0
        assert json.loads(out)["results"] == [{"n": 1, "holds": True}]

    def test_guard_is_semantic_error(self, capsys):
        code, _, err = run(capsys, "family", "--algebra", "S2", "--nmax", "9")
        assert code == 1 and "force" in err


class TestStructureCommands:
    def test_quotient_output_parses_and_matches_s7(self, capsys):
        code, out, _ = run(capsys, "quotient", "S4_124", "--blocks", "1,2|3|4")
        assert code == 0
        assert are_isomorphic(parse_algebra(out), registry("S7"))

    def test_quotient_singletons_optional(self, capsys):
        _, full, _ = run(capsys, "quotient", "S4_124", "--blocks", "1,2|3|4")
        _, short, _ = run(capsys, "quotient", "S4_124", "--blocks", "1,2")
        assert full == short

    def test_quotient_non_congruence(self, capsys):
        code, _, err = run(capsys, "quotient", "S7", "--blocks", "0,1")
        assert code == 1 and "not a congruence" in err

    def test_subalgebra(self, capsys):
        code, out, _ = run(capsys, "subalgebra", "S4_124", "--subset", "1,2,4")
        assert code == 0
        assert are_isomorphic(parse_algebra(out), registry("S2"))

    def test_subalgebra_not_closed(self, capsys):
        code, _, err = run(capsys, "subalgebra", "S4_124", "--subset", "3,4")
        assert code == 1 and "not closed" in err

    def test_iso_found_and_not_found(self, capsys):
        code, out, _ = run(capsys, "iso", "S2", "S2")
        assert code == 0 and "isomorphic" in out
        code, out, _ = run(capsys, "iso", "S2", "S53")
        assert code == 1 and "not isomorphic" in out

    def test_subdirect(self, capsys):
        code, out, _ = run(
            capsys, "subdirect", "R6", "--theta1", "1,2,3,4", "--theta2", "1,6|2,5"
        )
        assert code == 0
        assert "injective: yes" in out and "surjective: yes" in out


class TestEnumerate:
    def test_census_records_parse_back(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "2")
        assert code == 0
        chunks = [c for c in out.split("---") if "algebra" in c]
        assert len(chunks) == 6
        for chunk in chunks:
            parse_algebra(chunk)

    def test_classify_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--order", "3", "--classify", "--json"
        )
        payload = json.loads(out)
        assert payload["classes"] == 61
        assert sum(t["count"] for t in payload["additive_types"]) == 61

    def test_screened_census_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "census3.txt"
        code, out, _ = run(
            capsys,
            "enumerate", "--order", "3", "--screen-family", "1",
            "--classify", "--out", str(out_file),
        )
        assert code == 0
        assert "32 classes" in out
        text = out_file.read_text()
        assert "# summary" in text
        assert len([c for c in text.split("---") if "algebra" in c]) == 32

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "enumerate", "--order", "9")
        assert code == 2


class TestDerive:
    def test_search_then_check(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        code, _, _ = run(
            capsys,
            "derive", "search", "--rule", "xy = yx",
            "--claim", "xy + z = yx + z", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "derive", "check", str(path))
        assert code == 0 and "valid" in out

    def test_corrupted_file_fails_check(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        run(
            capsys,
            "derive", "search", "--rule", "xy = yx",
            "--claim", "xy + z = yx + z", "--out", str(path),
        )
        assert "rest z" in path.read_text()
        path.write_text(path.read_text().replace("rest z", "rest zz"))
        code, out, _ = run(capsys, "derive", "check", str(path))
        assert code == 1 and "invalid" in out

    def test_search_exhausts(self, capsys):
        code, _, err = run(
            capsys, "derive", "search", "--rule", "x = xx", "--claim", "a = b"
        )
        assert code == 1 and "exhausted" in err

    def test_search_without_rules(self, capsys):
        code, _, err = run(capsys, "derive", "search", "--claim", "a = b")
        assert code == 2


class TestPaperVerify:
    def test_selected_claims_json(self, capsys, monkeypatch):
        # trim to the fast claims for the CLI-level smoke test; the full run
        # is exercised by the acceptance suite
        trimmed = {
            k: v
            for k, v in verify.CLAIM_TABLE.items()
            if k in ("registry-valid", "profile-s4-124", "census-order-4")
        }
        monkeypatch.setattr(verify, "CLAIM_TABLE", trimmed)
        code, out, _ = run(capsys, "paper-verify", "--json")
        assert code == 0
        payload = json.loads(out)
        statuses = {c["id"]: c["status"] for c in payload["claims"]}
        assert statuses["registry-valid"] == "pass"
        assert statuses["census-order-4"] == "skipped"
        assert statuses["nonfinite-basis-meta"] == "skipped"
        meta = [c for c in payload["claims"] if c["id"] == "nonfinite-basis-meta"]
        assert meta[0]["observed"] == "out of scope: not machine-checkable"

    def test_negative_control(self, capsys, monkeypatch):
        # a deliberately broken claim must fail the run and be named
        broken = dict(verify.CLAIM_TABLE)
        broken["registry-valid"] = (
            "reference Cayley tables satisfy all ai-semiring axioms",
            1.0,
            False,
            lambda threads: ("all pass", "S7 corrupted"),
        )
        trimmed = {k: broken[k] for k in ("registry-valid", "profile-s4-124")}
        monkeypatch.setattr(verify, "CLAIM_TABLE", trimmed)
        code, out, _ = run(capsys, "paper-verify")
        assert code == 1
        assert "FAIL" in out and "registry-valid" in out
