"""Command line front end: parsing, dispatch, formats and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scrollcoh.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_line_coh_pair_form(capsys):
    payload = run_json(capsys, "line-coh", "--scroll", "1,2", "--pair", "2,2")
    assert payload["command"] == "line-coh"
    assert payload["scroll"] == [1, 2]
    assert payload["result"]["h"][0] == 12
    assert sum(payload["result"]["h"][1:]) == 0


def test_divisor_forms_agree(capsys):
    a = run_json(capsys, "line-coh", "--scroll", "1,1,2", "--div", "2H-F")
    b = run_json(capsys, "line-coh", "--scroll", "1,1,2", "--pair", "1,2")
    assert a == b


def test_omega_coh(capsys):
    payload = run_json(capsys, "omega-coh", "--scroll", "1,1,1", "--p", "1",
                       "--pair", "1,2")
    assert payload["result"]["h"] == [6, 0, 0, 0]
    assert payload["result"]["chi"] == 6


def test_blocks(capsys):
    payload = run_json(capsys, "blocks", "--scroll", "1,2")
    rows = payload["result"]["blocks"]
    assert [r["ulrich"] for r in rows] == [True, True]
    assert [r["slope"] for r in rows] == ["2/1", "2/1"]


def test_classify_type(capsys):
    payload = run_json(capsys, "classify", "--scroll", "1,2", "--type", "1,1")
    assert payload["result"] == {"type": [1, 1], "rank": 2,
                                 "c1": {"h": 1, "f": 1}, "h0": 6,
                                 "slope": "2/1"}


def test_classify_profile(capsys, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(
        {"n": 2, "entries": [{"j": 1, "q": 1, "h": 1}, {"j": 4, "q": 4, "h": 2}]}))
    payload = run_json(capsys, "classify", "--scroll", "1,1,1",
                       "--profile", str(profile))
    assert payload["result"]["type"] == [1, 0, 2]


def test_enumerate(capsys):
    payload = run_json(capsys, "enumerate", "--scroll", "1,1,1", "--rank", "2")
    types = [r["type"] for r in payload["result"]["types"]]
    assert types == [[0, 0, 2], [0, 1, 0], [1, 0, 1], [2, 0, 0]]


def test_verify_suites_pass(capsys):
    for suite in ("duality", "blocks", "homvanish", "chi-oracle"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--scroll", "1,1,2")
        assert code == 0, (suite, err)
        assert json.loads(out)["result"]["passed"] is True


def test_beilinson_md_and_json_numerics_match(capsys):
    args = ("beilinson", "--scroll", "1,1,1", "--type", "1,1,0")
    payload = run_json(capsys, *args)
    entries = {(e["j"], e["q"]): e["h"] for e in payload["result"]["table"]["entries"]}
    code, md, _ = run(capsys, *args, "--format", "md")
    assert code == 0
    size = payload["result"]["table"]["size"]
    rows = md.splitlines()[2:2 + size]
    grid = [[int(x) for x in re.findall(r"-?\d+", row)] for row in rows]
    for (j, q), v in entries.items():
        assert grid[size - 1 - q][size - 1 - j] == v
    total = sum(sum(row) for row in grid)
    assert total == sum(entries.values())


def test_latex_output(capsys):
    code, out, _ = run(capsys, "beilinson", "--scroll", "1,2", "--type", "1,0",
                       "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    assert r"\Omega" in out or r"\mathcal{O}_S" in out


def test_veronese_cli(capsys):
    payload = run_json(capsys, "veronese", "--dim", "2", "--p", "1", "--twist", "1")
    assert payload["result"]["table"]["entries"] == [{"j": 1, "q": 1, "h": 1}]
    assert payload["result"]["table"]["diagonal"] is True


def test_determinism(capsys):
    first = run(capsys, "beilinson", "--scroll", "1,1,2", "--type", "0,1,1")
    second = run(capsys, "beilinson", "--scroll", "1,1,2", "--type", "0,1,1")
    assert first == second


def test_invalid_inputs_exit_one(capsys):
    code, _, err = run(capsys, "line-coh", "--scroll", "0,2", "--pair", "1,1")
    assert code == 1 and err
    code, _, err = run(capsys, "line-coh", "--scroll", "1,2", "--div", "2G")
    assert code == 1 and err
    code, _, err = run(capsys, "line-coh", "--scroll", "1,2")
    assert code == 1  # no divisor given
    code, _, err = run(capsys, "classify", "--scroll", "1,2",
                       "--profile", "/nonexistent/profile.json")
    assert code == 1 and err
    # a stray off-diagonal profile is a not-Ulrich report, also exit 1
    code, _, err = run(capsys, "classify", "--scroll", "1,2", "--type", "1,0",
                       "--profile", "/also/nonexistent.json")
    assert code == 1  # both inputs given at once


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["line-coh"])  # missing required --scroll
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


_BAD_PROFILES = {
    "not-an-object": [],
    "entries-not-a-list": {"entries": {"j": 1, "q": 1, "h": 1}},
    "record-not-an-object": {"entries": [[1, 1, 1]]},
    "n-bool": {"n": True, "entries": []},
    "n-float": {"n": 1.0, "entries": []},
    "n-string": {"n": "1", "entries": []},
    "j-float": {"entries": [{"j": 1.7, "q": 1, "h": 1}]},
    "q-string": {"entries": [{"j": 1, "q": "1", "h": 1}]},
    "h-bool": {"entries": [{"j": 1, "q": 1, "h": True}]},
    "h-float": {"entries": [{"j": 1, "q": 1, "h": 2.0}]},
    "j-and-h-coerced": {"entries": [{"j": 1.7, "q": 1, "h": True}]},
}


@pytest.mark.parametrize("command", ["classify", "beilinson", "veronese"])
@pytest.mark.parametrize("name", sorted(_BAD_PROFILES))
def test_malformed_profile_exits_one(capsys, tmp_path, command, name):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(_BAD_PROFILES[name]))
    where = ["--dim", "2"] if command == "veronese" else ["--scroll", "1,2"]
    code, out, err = run(capsys, command, *where, "--profile", str(profile))
    assert code == 1 and not out
    assert err.startswith("error: ") and "profile" in err and "Traceback" not in err


def test_output_is_identical_across_hash_seeds(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(
        {"n": 2, "entries": [{"j": 1, "q": 1, "h": 1}, {"j": 4, "q": 4, "h": 2}]}))
    commands = [["beilinson", "--scroll", "1,1,2", "--type", "0,1,1", "--format", "md"],
                ["classify", "--scroll", "1,1,1", "--profile", str(profile)],
                ["enumerate", "--scroll", "1,1,1,2", "--rank", "4"]]
    src = Path(__file__).resolve().parents[1] / "src"
    for argv in commands:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "scrollcoh.cli", *argv],
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0], argv
