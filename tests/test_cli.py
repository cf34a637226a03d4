import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cluster_logcc.cli import build_parser, main
from cluster_logcc.verify import _CHECKERS

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- verify ----


def test_verify_passing_claim(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "main1", "--rank", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["claim"] == "main1" and obj["status"] == "verified"
    assert "verify main1" in err  # timing goes to stderr, not into the JSON
    assert "s" in err


def test_verify_writes_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--claim", "coeff012", "--rank", "2", "--out", str(out_file)
    )
    assert code == 0 and out == ""
    obj = json.loads(out_file.read_text())
    assert obj["status"] == "verified"
    assert out_file.read_text().endswith("\n")


def test_verify_exploratory_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "conj1-a2", "--deg", "3")
    assert code == 0
    assert json.loads(out)["status"] == "exploratory"


def test_verify_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "verify", "--claim", "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify")
    assert code == 2
    code, _, _ = run_cli(capsys)
    assert code == 2


@pytest.mark.parametrize(
    "scope",
    [
        ("--claim", "a2-monomials", "--deg", "-1"),
        ("--claim", "conj-an", "--rank", "3", "--deg", "-2"),
        ("--claim", "conj1-a2", "--deg", "-1"),
    ],
)
def test_negative_degree_is_a_usage_error(capsys, scope):
    code, out, err = run_cli(capsys, "verify", *scope)
    assert code == 2
    assert out == ""
    assert "degree bound must be nonnegative" in err


def _verify_scope_flags():
    """The verify options that set a claim's scope: all but --claim and --out."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {f for a in commands.choices["verify"]._actions for f in a.option_strings}
    return sorted(f[2:] for f in options - {"-h", "--help", "--claim", "--out"})


def test_every_scope_flag_is_read_by_some_claim():
    assert _verify_scope_flags() == sorted({f for reads, _ in _CHECKERS.values() for f in reads})


@pytest.mark.parametrize(
    "claim,flag",
    [
        (claim, flag)
        for claim, (reads, _) in _CHECKERS.items()
        for flag in _verify_scope_flags()
        if flag not in reads
    ],
)
def test_a_flag_the_claim_never_reads_is_a_usage_error(capsys, claim, flag):
    # given beside the flags the claim does read, so only the unread one is named
    reads = _CHECKERS[claim][0]
    argv = [arg for f in (flag, *reads) for arg in (f"--{f}", "2")]
    code, out, err = run_cli(capsys, "verify", "--claim", claim, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: claim {claim} does not read --{flag}\n"


def test_readme_scope_flags_column_is_the_checker_table():
    section = README.read_text(encoding="utf-8").split("\n### verify\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| ([^|]*) \|", section, re.M)
    documented = {claim: tuple(re.findall(r"`--([a-z]+)`", flags)) for claim, flags in rows}
    assert documented == {claim: reads for claim, (reads, _) in _CHECKERS.items()}


def test_the_retired_budget_variable_changes_nothing(capsys, monkeypatch):
    # the sweep is bounded by the seed count it checks, not by the environment
    monkeypatch.delenv("CLUSTER_LOGCC_BUDGET", raising=False)
    code, want, _ = run_cli(capsys, "verify", "--claim", "main1", "--rank", "3")
    assert code == 0
    monkeypatch.setenv("CLUSTER_LOGCC_BUDGET", "2")
    code, got, _ = run_cli(capsys, "verify", "--claim", "main1", "--rank", "3")
    assert code == 0
    assert got == want


def test_rank_9_closes_without_a_budget_setting(capsys, monkeypatch):
    # 16,796 seeds: past the sweep's own DEFAULT_BUDGET of 10,000
    monkeypatch.delenv("CLUSTER_LOGCC_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--claim", "main1", "--rank", "9")
    assert code == 0
    assert json.loads(out)["stats"]["num_seeds"] == 16796


def test_a_sweep_past_its_seed_count_is_a_usage_error(capsys, monkeypatch):
    # rank 3 has 14 seed classes: a count of 13 stops the sweep, exit 2
    import cluster_logcc.verify as verify

    monkeypatch.setattr(verify, "_a_n_seeds", lambda n: 13)
    code, out, err = run_cli(capsys, "verify", "--claim", "main1", "--rank", "3")
    assert code == 2
    assert out == ""
    assert err == "error: exchange graph not closed within budget\n"


@pytest.mark.parametrize("rank", ["0", "-2"])
@pytest.mark.parametrize(
    "claim", [claim for claim, (reads, _) in _CHECKERS.items() if "rank" in reads]
)
def test_a_rank_below_one_is_a_usage_error(capsys, claim, rank):
    code, out, err = run_cli(capsys, "verify", "--claim", claim, "--rank", rank)
    assert code == 2
    assert out == ""
    assert err == "error: rank must be at least 1\n"


def test_jobs_is_not_an_option(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "main1", "--jobs", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --jobs 2" in err


def test_inexact_division_is_an_error_not_a_finding(capsys, monkeypatch):
    # A planted coefficient defect: each mutated seed gets y_k off by one, so
    # a later exchange binomial does not divide.  That must not read as
    # exit 1 ("witnesses found"), and no report is written.
    import cluster_logcc.pattern as pattern

    honest = pattern.mutate

    def corrupt_y(seed, k, *, memo=None, table=None):
        s = honest(seed, k, memo=memo, table=table)
        row = list(s.frozen[0])
        row[k - 1] += 1
        return pattern.Seed(s.B, (tuple(row),) + s.frozen[1:], s.cluster, s.history, s.labels)

    monkeypatch.setattr(pattern, "mutate", corrupt_y)
    code, out, err = run_cli(capsys, "verify", "--claim", "gyo21", "--rank", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not exact" in err


# ---- mutate ----


def test_mutate_free(capsys):
    code, out, _ = run_cli(capsys, "mutate", "--rank", "2", "--path", "1,2,1,2,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"] == "free"
    assert [s["direction"] for s in obj["states"]] == [None, 1, 2, 1, 2, 1]
    assert "C" not in obj["states"][0]
    # half period of the rank-2 pentagon recurrence swaps the variables
    last = obj["states"][-1]["seed"]["cluster"]
    assert last[0]["terms"] == [{"exp": [0, 1], "coeff": "1"}]
    assert last[1]["terms"] == [{"exp": [1, 0], "coeff": "1"}]


def test_mutate_principal_carries_companion_data(capsys):
    code, out, _ = run_cli(
        capsys, "mutate", "--rank", "2", "--coeff", "principal", "--path", "1,2"
    )
    assert code == 0
    obj = json.loads(out)
    t2 = obj["states"][2]
    assert t2["C"] == [[0, -1], [1, -1]]
    assert t2["D"] == [[1, 1], [0, 1]]
    assert t2["G"] == [[-1, -1], [1, 0]]
    assert t2["f_matrix"] == [[1, 1], [0, 1]]


def test_mutate_rejects_bad_path(capsys):
    code, _, err = run_cli(capsys, "mutate", "--rank", "2", "--path", "1,3")
    assert code == 2 and "out of range" in err
    code, _, _ = run_cli(capsys, "mutate", "--rank", "2", "--path", "1,x")
    assert code == 2


# ---- tpaths ----


def test_tpaths_hexagon(capsys):
    code, out, _ = run_cli(capsys, "tpaths", "--ngon", "6", "--from", "0", "--to", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["chord"] == [0, 3]
    assert len(obj["paths"]) == 5
    assert obj["paths"][0]["vertices"] == [0, 1, 4, 3]
    assert {tuple(t["exp"]) for t in obj["variable"]["terms"]} == {
        (0, -1, 0), (-1, 1, -1), (-1, 0, -1), (-1, -1, -1),
    }
    assert obj["variable_with_boundary"]["num_vars"] == 9


def test_tpaths_from_file(tmp_path, capsys):
    tri_file = tmp_path / "tri.json"
    tri_file.write_text(json.dumps({"ngon": 5, "diagonals": [[0, 2], [0, 3]]}))
    code, out, _ = run_cli(
        capsys, "tpaths", "--triangulation", str(tri_file), "--from", "1", "--to", "4"
    )
    assert code == 0
    assert json.loads(out)["triangulation"]["ngon"] == 5


@pytest.mark.parametrize(
    "content",
    [
        {"ngon": 6, "diagonals": [1, 2, 3]},
        {"ngon": 6, "diagonals": None},
        [1, 2],
    ],
    ids=["int-diagonals", "null-diagonals", "not-an-object"],
)
def test_tpaths_malformed_triangulation_file_is_a_usage_error(tmp_path, capsys, content):
    tri_file = tmp_path / "tri.json"
    tri_file.write_text(json.dumps(content))
    code, out, err = run_cli(
        capsys, "tpaths", "--triangulation", str(tri_file), "--from", "0", "--to", "3"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_tpaths_ngon_must_match_the_file(tmp_path, capsys):
    tri_file = tmp_path / "tri.json"
    tri_file.write_text(json.dumps({"ngon": 6, "diagonals": [[0, 2], [0, 3], [0, 4]]}))
    code, out, err = run_cli(
        capsys, "tpaths", "--triangulation", str(tri_file), "--ngon", "7", "--from", "0",
        "--to", "3",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --ngon 7 does not match the file's 6-gon\n"


def test_tpaths_usage_errors(capsys):
    code, _, err = run_cli(capsys, "tpaths", "--ngon", "6", "--from", "0", "--to", "1")
    assert code == 2 and "diagonal" in err
    code, _, _ = run_cli(capsys, "tpaths", "--from", "0", "--to", "2")
    assert code == 2  # built-in triangulation needs --ngon
    code, _, _ = run_cli(capsys, "tpaths", "--ngon", "3", "--from", "0", "--to", "2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "tpaths", "--triangulation", "/nonexistent.json", "--from", "0", "--to", "2"
    )
    assert code == 2 and "not found" in err


# ---- determinism and the installed entry point ----


def test_verify_output_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["verify", "--claim", "gyo21", "--rank", "3", "--out", str(target)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_module_runs_as_subprocess():
    # the child gets the package's src on its path, whether or not it is installed
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cluster_logcc.cli", "verify", "--claim", "separation", "--rank", "2"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "verified"
    assert "separation" in proc.stderr


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "verify", "--help")[0] == 0


def test_readme_names_exactly_the_parsed_flags():
    # an option that is parsed but undocumented, or documented but gone, fails here
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == parsed
