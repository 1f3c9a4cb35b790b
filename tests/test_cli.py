import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from aisemiring import cli
from aisemiring.algebra import parse_algebra, registry, serialize_algebra
from aisemiring.cli import build_parser, main
from aisemiring.enumeration import enumerate_ai_semirings
from aisemiring.structure import are_isomorphic
from aisemiring import verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """Exit code and stderr of a command line that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


FAMILY_U1 = "x1x2 + x2x3 + x3x1 + y1y2 + y2y1 + y1"


def readme_command_lines() -> list[str]:
    """The `aisemiring ...` lines of the README's "Command line" block, with
    `#` comments stripped and `[--flag]` written as `--flag`."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = []
    for raw in block.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("aisemiring "):
            lines.append(re.sub(r"\[(--[\w-]+)\]", r"\1", line))
    return lines


class TestReadme:
    def test_command_lines_parse(self):
        lines = readme_command_lines()
        assert lines
        parser = build_parser()
        for line in lines:
            argv = shlex.split(line)[1:]
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command line does not parse: {line}")


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

    def test_python_dash_m(self, tmp_path):
        # the package's __main__ runs the same CLI in a fresh interpreter
        good, bad = tmp_path / "s7.alg", tmp_path / "empty.alg"
        good.write_text(serialize_algebra(registry("S7")))
        bad.write_text("")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        results = [
            subprocess.run([sys.executable, "-m", "aisemiring", "validate", str(path)],
                           capture_output=True, text=True, env=env, timeout=60)
            for path in (good, bad)
        ]
        assert (results[0].returncode, results[0].stdout, results[0].stderr) == (
            0, "S7: valid ai-semiring of order 3\n", "")
        assert (results[1].returncode, results[1].stdout) == (2, "")
        assert results[1].stderr == f"error: {bad}: empty algebra file\n"


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

    def test_malformed_algebra_file_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.alg"
        path.write_text(serialize_algebra(registry("S2")).replace("mul", "mull"))
        code, out, err = run(capsys, "holds", str(path), "--ineq", "x <= x")
        assert code == 2 and out == ""
        assert f"{path}: line 7: expected 'mul', found 'mull'" in err

    def test_algebra_file_violating_the_axioms(self, tmp_path, capsys):
        text = serialize_algebra(registry("S7")).replace("0 a 0", "0 1 0", 1)
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, out, err = run(capsys, "holds", str(path), "--ineq", "x <= x")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ")

    def test_over_the_assignment_budget(self, capsys):
        ineq = "x1 <= " + " + ".join(f"x{i}" for i in range(1, 22))
        code, out, err = run(capsys, "holds", "S2", "--ineq", ineq)
        assert code == 1 and out == ""
        assert "3^21 assignments exceed the budget" in err


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

    def test_json_without_oracle(self, capsys):
        code, out, _ = run(capsys, "decide", "s2", "--json", "--ineq", "x <= x + y")
        assert code == 0
        assert json.loads(out) == {"algebra": "S2", "inequality": "x <= x + y",
                                   "decider": True}

    def test_mismatch_with_the_oracle(self, capsys, monkeypatch):
        # a decider that answers the opposite of brute force
        real = cli.DECIDERS["S2"]
        monkeypatch.setitem(cli.DECIDERS, "S2", lambda q, u: not real(q, u))
        argv = ["decide", "s2", "--oracle", "--ineq", "x <= x + y"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (1, "decider: False, oracle: True -- MISMATCH\n")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out) == {"algebra": "S2", "inequality": "x <= x + y",
                                   "decider": False, "oracle": True,
                                   "agreement": False}

    def test_oracle_over_the_budget_is_one_error_line(self, capsys):
        # 3^21 assignments pass the guard; decide has no --force, so the
        # error names the holds command that has one
        ineq = "x1 <= " + " + ".join(f"x{i}" for i in range(1, 22))
        code, out, err = run(capsys, "decide", "s2", "--oracle", "--ineq", ineq)
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith(
            "error: --oracle: 3^21 assignments exceed the budget of 4294967296; "
            "decide has no --force, run aisemiring holds S2 --ineq \"x1 <= x1 + x10 + "
        )
        assert line.endswith(" + x9\" --force")


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

    def test_failing_algebra(self, tmp_path, capsys):
        # the order-3 class A3_013 fails the family inequality at n=1
        [A] = [S for S in enumerate_ai_semirings(3) if S.name == "A3_013"]
        path = tmp_path / "a3_013.alg"
        path.write_text(serialize_algebra(A))
        code, out, _ = run(capsys, "family", "--algebra", str(path), "--nmax", "1")
        assert code == 1
        [line] = out.splitlines()
        assert line.startswith("n=1: fails at ")
        code, out, _ = run(capsys, "family", "--algebra", str(path), "--nmax", "1",
                           "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["algebra"] == "A3_013"
        [result] = payload["results"]
        assert result["n"] == 1 and result["holds"] is False
        binding = ", ".join(f"{x}={v}" for x, v in sorted(result["counterexample"].items()))
        assert line == f"n=1: fails at {binding}"

    def test_guard_is_semantic_error(self, capsys):
        code, _, err = run(capsys, "family", "--algebra", "S2", "--nmax", "9")
        assert code == 1 and "force" in err

    @pytest.mark.parametrize("nmax", ["0", "-2", "two"])
    def test_non_positive_nmax_is_a_usage_error(self, capsys, nmax):
        code, err = usage_error(capsys, "family", "--algebra", "S2", "--nmax", nmax)
        assert code == 2
        assert "usage:" in err and "--nmax" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("argv", [
        ("subalgebra", "S2", "--subset", "1,9"),
        ("quotient", "S2", "--blocks", "1,9"),
    ])
    def test_unknown_label_is_one_plain_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: S2 has no element labelled '9'\n"

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

    def test_subdirect_json(self, capsys):
        code, out, _ = run(
            capsys, "subdirect", "R6", "--theta1", "1,2,3,4", "--theta2", "1,6|2,5",
            "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "injective": True, "surjective": True, "meet_is_discrete": True,
            "factor1": {"name": "R6/{1,2,3,4}|{5}|{6}", "order": 3},
            "factor2": {"name": "R6/{1,6}|{2,5}|{3}|{4}", "order": 4},
        }

    def test_subdirect_non_congruence(self, capsys):
        code, out, err = run(capsys, "subdirect", "S7", "--theta1", "0,1",
                             "--theta2", "0,a")
        assert code == 1 and out == ""
        assert "not a congruence" in err


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

    def test_json_summary_with_out(self, tmp_path, capsys):
        # --out takes the records and --json still picks the summary's form
        out_file = tmp_path / "census2.txt"
        code, alone, _ = run(capsys, "enumerate", "--order", "2", "--classify", "--json")
        assert code == 0
        code, out, _ = run(capsys, "enumerate", "--order", "2", "--classify", "--json",
                           "--out", str(out_file))
        assert code == 0
        assert out == alone and json.loads(out)["classes"] == 6
        _, records, _ = run(capsys, "enumerate", "--order", "2")
        assert out_file.read_text() == records

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "enumerate", "--order", "9")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_non_positive_screen_family_is_a_usage_error(self, capsys, n):
        code, err = usage_error(capsys, "enumerate", "--order", "2", "--screen-family", n)
        assert code == 2
        assert "usage:" in err and "--screen-family" in err

    def test_screen_family_over_the_limit_is_a_usage_error(self, capsys):
        # enumerate has no --force, so N past the family guard is refused
        # before the census runs
        code, _, err = run(capsys, "enumerate", "--order", "2", "--screen-family", "4")
        assert code == 2
        assert "over the limit of 3" in err


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

    @pytest.mark.parametrize("sub,message", [
        ("sub 1x := y", "line 6: illegal variable name '1x'"),
        ("sub x := y, x := x", "line 6: duplicate binding for x"),
    ])
    def test_bad_substitution_is_a_syntax_error(self, tmp_path, capsys, sub, message):
        path = tmp_path / "d.txt"
        path.write_text(
            f"sigma:\nxy = yx\nchain:\nxy\nyx\nstep: rule 1 forward; {sub}\n"
        )
        code, _, err = run(capsys, "derive", "check", str(path))
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fields,message", [
        ("rule 1 forward; rset z", "line 6: unknown step field 'rset'"),
        ("rule 1 forward; rule 1 backward", "line 6: repeated step field 'rule'"),
        ("rule 1 forward; rest -; rest z", "line 6: repeated step field 'rest'"),
    ])
    def test_bad_step_field_is_a_syntax_error(self, tmp_path, capsys, fields, message):
        path = tmp_path / "d.txt"
        path.write_text(f"sigma:\nxy = yx\nchain:\nxy\nyx\nstep: {fields}\n")
        code, _, err = run(capsys, "derive", "check", str(path))
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    def test_search_stats_go_to_stderr(self, capsys):
        argv = ["derive", "search", "--rule", "xy = yx", "--claim", "xyz = zyx"]
        code, plain_out, plain_err = run(capsys, *argv)
        assert code == 0 and plain_err == ""
        code, out, err = run(capsys, *argv, "--stats")
        assert code == 0
        assert out == plain_out
        assert err == ("search: explored 28 terms, pruned 0 rewrites, "
                       "frontier sizes 1, 8\n")

    def test_search_stats_on_exhaustion(self, capsys):
        code, _, err = run(
            capsys, "derive", "search", "--rule", "x = xx", "--claim", "a = b",
            "--max-word-len", "3", "--max-summands", "3", "--stats",
        )
        assert code == 1
        assert err.splitlines()[0] == (
            "search: explored 7 terms, pruned 56 rewrites, frontier sizes 1, 2, 4"
        )

    def test_zero_bound_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "derive", "search", "--rule", "xy = yx",
                             "--claim", "xy = yx", "--max-chain", "0")
        assert code == 2 and out == ""
        assert err == "error: all search bounds must be positive\n"

    def test_search_without_rules(self, capsys):
        code, _, err = run(capsys, "derive", "search", "--claim", "a = b")
        assert code == 2


class TestFileErrors:
    """Files that cannot be read or written are usage errors (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ("holds", "{dir}", "--ineq", "x <= y"),
        ("iso", "{dir}", "S2"),
    ])
    def test_directory_as_algebra(self, tmp_path, capsys, argv):
        argv = [a.format(dir=tmp_path) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "Is a directory" in err

    @pytest.mark.parametrize("argv", [
        ("validate", "{file}"),
        ("derive", "check", "{file}"),
        ("holds", "{file}", "--ineq", "x <= y"),
    ])
    def test_non_utf8_file(self, tmp_path, capsys, argv):
        path = tmp_path / "latin1.alg"
        path.write_bytes(b"algebra caf\xe9\n")
        argv = [a.format(file=path) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"{path}: not UTF-8 text" in err

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--order", "1", "--out", "{out}"),
        ("derive", "search", "--rule", "xy = yx", "--claim", "xy + z = yx + z",
         "--out", "{out}"),
    ])
    def test_out_into_missing_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "out.txt"
        argv = [a.format(out=out) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "No such file or directory" in err
        assert not out.parent.exists()


class TestTruncatedFiles:
    """A file that ends too soon is a syntax error (exit 2) at its last
    content line."""

    @pytest.mark.parametrize("argv", [
        ("holds", "{file}", "--ineq", "x <= y"),
        ("validate", "{file}"),
    ])
    @pytest.mark.parametrize("text,message", [
        ("algebra S2\nelements 1 2\nadd\n1 1\n",
         "line 4: table/label arity mismatch: 'add' table needs 2 rows, found 1"),
        ("algebra S2\nelements 1 2\nadd\n1 1\n1 2\n\n# no mul\n",
         "line 5: unexpected end of file, expected 'mul'"),
    ])
    def test_algebra_file(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "cut.alg"
        path.write_text(text)
        code, out, err = run(capsys, *[a.format(file=path) for a in argv])
        assert code == 2 and out == ""
        assert f"{path}: {message}" in err

    @pytest.mark.parametrize("text,message", [
        ("sigma:\nxy = yx\n\n", "line 2: no chain section"),
        ("sigma:\nxy = yx\nchain:\nxy\nyx  # no steps\n",
         "line 5: 0 step lines for a chain of 2 terms"),
    ])
    def test_derivation_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "cut.txt"
        path.write_text(text)
        code, out, err = run(capsys, "derive", "check", str(path))
        assert code == 2 and out == ""
        assert f"{path}: {message}" in err


class TestBadArguments:
    """Malformed statements, blocks and subsets are usage errors (exit 2)
    with one error line."""

    @pytest.mark.parametrize("argv,message", [
        (("holds", "S2", "--ineq", "x + y"), "inequality needs '<=': 'x + y'"),
        (("holds", "S2", "--ineq", "x <= y +"), "empty summand in ' y +'"),
        (("holds", "S2", "--ineq", "<= x"), "empty word in ''"),
        (("holds", "S2", "--id", "x <= y"), "identity needs a single '=': 'x <= y'"),
        (("holds", "S2", "--id", "x = 1y"), "illegal identifier starting at '1y'"),
        (("quotient", "S2", "--blocks", "1|"), "empty block in '1|'"),
        (("quotient", "S2", "--blocks", "1|1,2"),
         "bad partition '1|1,2': blocks must be pairwise disjoint"),
        (("subalgebra", "S2", "--subset", ","), "empty subset"),
    ])
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


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
            lambda: ("all pass", "S7 corrupted"),
        )
        trimmed = {k: broken[k] for k in ("registry-valid", "profile-s4-124")}
        monkeypatch.setattr(verify, "CLAIM_TABLE", trimmed)
        code, out, _ = run(capsys, "paper-verify")
        assert code == 1
        assert "FAIL" in out and "registry-valid" in out

    def test_budget_overrun_fails(self, monkeypatch):
        # a claim whose answer is right but which runs past its budget fails,
        # and the overrun is named; within budget, observed is left as it is
        def slow():
            time.sleep(0.01)
            return "done", "done"

        monkeypatch.setattr(verify, "CLAIM_TABLE", {"slow": ("sleeps", 0.001, False, slow)})
        claim, _out_of_scope = verify.run_claims().claims
        assert claim.status == "fail"
        assert claim.observed.startswith("done (took ")
        assert claim.observed.endswith("s, over its 0.001s budget)")
        monkeypatch.setattr(verify, "CLAIM_TABLE", {"slow": ("sleeps", 60.0, False, slow)})
        claim, _out_of_scope = verify.run_claims().claims
        assert (claim.status, claim.observed) == ("pass", "done")
