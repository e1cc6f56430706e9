"""CLI surface: commands, machine reports, exit codes."""

from dataclasses import replace
from pathlib import Path

import pytest
from conftest import flat_free_instance

from socle import explorer, theorems
from socle.cli import main
from socle.instancefile import parse_instance, serialize_instance

FLAT_INSTANCE = """\
[ring]
field = GF(101)
vars = x y
rel = x^2
rel = x*y
rel = y^2
[module M]
row = x, y
"""


@pytest.fixture()
def flat_file(tmp_path):
    path = tmp_path / "flat.ring"
    path.write_text(FLAT_INSTANCE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_machine(capsys, flat_file):
    code, out = run(capsys, "invariants", flat_file, "--machine")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert lines["ring.e"] == "2"
    assert lines["ring.lambda"] == "3"
    assert lines["ring.gorenstein"] == "0"
    assert lines["module.M.length"] == "1"


def test_betti_of_k(capsys, flat_file):
    code, out = run(capsys, "betti", flat_file, "--module", "k",
                    "--to", "5", "--machine")
    assert code == 0
    vals = [int(l.split("=")[1]) for l in out.strip().splitlines()]
    assert vals == [1, 2, 4, 8, 16, 32]


def test_tor_pair(capsys, flat_file):
    code, out = run(capsys, "tor", flat_file, "--left", "M", "--right", "M",
                    "--to", "3", "--machine")
    assert code == 0
    vals = [int(l.split("=")[1]) for l in out.strip().splitlines()]
    assert len(vals) == 4 and all(v >= 0 for v in vals)


def test_ext_matches_tor_of_dual(capsys, flat_file):
    code, out = run(capsys, "ext", flat_file, "--left", "k", "--right", "k",
                    "--to", "3", "--machine")
    assert code == 0
    vals = [int(l.split("=")[1]) for l in out.strip().splitlines()]
    # Ext^i(k,k) has dimension b_i(k) * dim Soc... for m^2=0, e=2:
    # Ext^i(k,k) = Hom(F_i, k) = k^{b_i} since differentials vanish mod m
    assert vals == [1, 2, 4, 8]


def test_check_statement(capsys, flat_file):
    code, out = run(capsys, "check", flat_file, "--statement", "S3",
                    "--machine")
    assert code == 0
    assert "check.S3.status=PASS" in out


@pytest.fixture()
def flat_free_file(tmp_path):
    path = tmp_path / "flat_free.ring"
    path.write_text(flat_free_instance(["x", "y"]))
    return str(path)


def test_check_prints_verdict_data(capsys, flat_free_file):
    code, out = run(capsys, "check", flat_free_file, "--statement", "S1",
                    "--to", "12", "--machine")
    assert code == 0
    assert "check.S1.i=1" in out.splitlines()


def assert_dossier_parses_back(text):
    ring, mods = parse_instance(text)
    assert sorted(mods) == ["M", "N"]
    assert serialize_instance(ring, mods) == text


def test_check_fail_exits_one_with_a_dossier(capsys, flat_free_file,
                                             monkeypatch):
    forced = replace(theorems._BY_ID["S3"],
                     body=lambda inst, n, M: (False, "forced", {}))
    monkeypatch.setitem(theorems._BY_ID, "S3", forced)
    code, out = run(capsys, "check", flat_free_file, "--statement", "S3",
                    "--machine")
    assert code == 1
    lines = out.splitlines()
    assert "check.S3.status=FAIL" in lines
    assert "check.S3.counterexample=1" in lines
    code, out = run(capsys, "check", flat_free_file, "--statement", "S3")
    assert code == 1
    head, dossier = out.split("counterexample:\n")
    assert head == "S3: FAIL (forced)\n"
    assert_dossier_parses_back(dossier.removesuffix("\n"))


def test_explore_prints_confirmed_candidate_dossier(capsys, monkeypatch):
    monkeypatch.setattr(explorer, "tor_vanishes", lambda M, N, i: True)
    code, out = run(capsys, "explore", "--seed", "42", "--budget", "1",
                    "--to", "3")
    assert code == 1
    head, dossier = out.split("candidate at trial 0 (confirmed: True):\n")
    assert "explore.candidate.0.confirmed=1" in head.splitlines()
    assert_dossier_parses_back(dossier.removesuffix("\n"))


AGP_FILE = str(Path(__file__).resolve().parents[1] / "examples" / "agp.ring")


def test_check_unknown_statement_is_usage_error(capsys, flat_file):
    code, _ = run(capsys, "check", flat_file, "--statement", "S99")
    assert code == 2


@pytest.mark.parametrize("sid", ["S17.9", "S3.2", "S17.x"])
def test_check_rejects_unknown_statement_parts(capsys, sid):
    code = main(["check", AGP_FILE, "--statement", sid])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sid in err


def test_check_accepts_s17_parts(capsys):
    code, out = run(capsys, "check", AGP_FILE, "--statement", "S17.3",
                    "--to", "4", "--machine")
    assert code == 0
    assert "check.S17.3.status=PASS" in out.splitlines()


@pytest.mark.parametrize("command", ["check", "suite"])
def test_key_error_in_a_body_is_not_a_usage_error(capsys, flat_file,
                                                  monkeypatch, command):
    # only an unknown statement id is a usage error; a KeyError raised
    # inside a statement is an engine defect and must propagate
    def broken(inst, n, *modules):
        return {}["no such key"]

    monkeypatch.setitem(theorems._BY_ID, "S3",
                        replace(theorems._BY_ID["S3"], body=broken))
    with pytest.raises(KeyError, match="no such key"):
        main([command, flat_file, "--statement", "S3"])


@pytest.mark.parametrize("argv", [["--statement", "S99"],
                                  ["--statement", "S1,,S2"],
                                  ["--statement", "S3,S17.9", "FLAT"]])
def test_suite_rejects_unknown_statement_before_running(capsys, flat_file,
                                                        argv):
    argv = [flat_file if a == "FLAT" else a for a in argv]
    code = main(["suite", "--machine", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["betti", "--module", "Q"],
    ["tor", "--left", "Q", "--right", "M"],
    ["ext", "--left", "M", "--right", "Q"],
])
def test_unknown_module_is_usage_error(capsys, argv):
    code = main([argv[0], AGP_FILE, *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: instance 'file' has no module 'Q'\n"


def test_example_agp_machine(capsys):
    code, out = run(capsys, "example", "agp", "--to", "6", "--machine")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert lines["ring.lambda"] == "8"
    assert lines["ring.e"] == "4"
    assert all(lines[f"betti.M.{i}"] == "2" for i in range(7))
    assert all(lines[f"tor.M.omega.{i}"] == "0" for i in range(1, 7))


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("example_agp", ["example", "agp", "--machine"]),
    ("suite_to6", ["suite", "--to", "6", "--machine"]),
    ("explore_seed42_budget200",
     ["explore", "--seed", "42", "--budget", "200", "--machine"]),
    # the human report carries every verdict's clause text
    ("suite_to6_human", ["suite", "--to", "6"]),
    ("suite_to12", ["suite", "--to", "12", "--machine"]),
    ("suite_to12_human", ["suite", "--to", "12"]),
    ("suite_field_Q_to4_human", ["suite", "--field", "Q", "--to", "4"]),
])
def test_machine_output_matches_golden(capsys, name, argv):
    # every basis choice downstream of rref shows in these reports, so a
    # refactor that keeps them byte for byte keeps the engine's answers
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_example_unknown(capsys):
    code, _ = run(capsys, "example", "nope")
    assert code == 2


def test_example_has_no_field_option(capsys):
    # the canned example fixes its own field, so --field would be ignored
    code, out = run(capsys, "example", "agp", "--field", "Q")
    assert code == 2 and out == ""


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ring"
    bad.write_text("[ring]\nvars = x\nrel = x^\n")
    code, _ = run(capsys, "invariants", str(bad))
    assert code == 2
    # a row "2x" means 2*x, not the unit 2 + x: it must not parse
    bad.write_text("[ring]\nvars = x\nrel = x^3\n[module M]\nrow = 2x\n")
    code, out = run(capsys, "invariants", str(bad))
    assert code == 2 and out == ""


def test_missing_file_exit_code(capsys):
    code, _ = run(capsys, "invariants", "/nonexistent/path.ring")
    assert code == 2


def test_explore_cli_deterministic(capsys):
    code, out1 = run(capsys, "explore", "--seed", "4", "--budget", "6",
                     "--to", "5", "--machine")
    assert code == 0
    code, out2 = run(capsys, "explore", "--seed", "4", "--budget", "6",
                     "--to", "5", "--machine")
    assert out1 == out2


@pytest.mark.parametrize("argv", [["--p", "0"], ["--q", "-3"],
                                  ["--budget", "-1"], ["--to", "0"]])
def test_explore_bad_arguments_are_usage_errors(capsys, argv):
    code = main(["explore", "--budget", "1", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_explore_budget_zero(capsys):
    code, out = run(capsys, "explore", "--budget", "0", "--machine")
    assert code == 0
    assert "explore.candidates=0" in out
    assert "explore.note" not in out  # nothing was drawn, nothing rejected


@pytest.mark.parametrize("machine", [[], ["--machine"]])
def test_explore_says_why_no_trial_ran(capsys, machine):
    # p = q = 3 needs m^5 != 0, and no ring drawn at seed 0 qualifies
    code, out = run(capsys, "explore", "--seed", "0", "--budget", "5",
                    "--p", "3", "--q", "3", *machine)
    assert code == 0
    lines = out.splitlines()
    assert "explore.trials=0" in lines
    assert "explore.rejected_rings=5" in lines
    assert "explore.note=no ring reached Loewy length 5" in lines


def test_suite_single_statement(capsys, flat_file):
    code, out = run(capsys, "suite", flat_file, "--statement", "S3,S7",
                    "--to", "5", "--machine")
    assert code == 0
    assert "suite.count.FAIL=0" in out


def test_bad_cutoff(capsys, flat_file, monkeypatch):
    monkeypatch.setenv("SOCLE_CUTOFF", "banana")
    code, _ = run(capsys, "invariants", flat_file)
    assert code == 2
