"""Command line front end: parsing, dispatch, formats and exit codes."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from math import comb, prod
from pathlib import Path

import pytest

from scrollcoh import H, Scroll, cli, p1, ulrich
from scrollcoh.cli import EXIT_BROKEN_PIPE, MAX_PROFILE_CHARS, MAX_TYPES, main
from scrollcoh.p1 import MAX_SLOTS
from scrollcoh.verify import MAX_TWISTS, SUITES, koszul_grid


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
    code, _, err = run(capsys, "omega-coh", "--scroll", "1,2", "--div", "H")
    assert code == 1 and "--p" in err
    code, _, err = run(capsys, "classify", "--scroll", "1,2",
                       "--profile", "/nonexistent/profile.json")
    assert code == 1 and err
    # a stray off-diagonal profile is a not-Ulrich report, also exit 1
    code, _, err = run(capsys, "classify", "--scroll", "1,2", "--type", "1,0",
                       "--profile", "/also/nonexistent.json")
    assert code == 1  # both inputs given at once


def test_usage_errors_exit_one(capsys):
    assert main(["line-coh"]) == 1  # missing required --scroll
    assert main(["no-such-command"]) == 1


# One argv per kind of usage error: argparse refuses each, and main reports it
# as invalid input on its one error path.
@pytest.mark.parametrize("argv", [
    ["line-coh", "--div", "H"],
    ["line-coh", "--scroll", "1,2", "--div", "H", "--pair", "1,1"],
    ["line-coh", "--scroll", "1,2"],
    ["omega-coh", "--scroll", "1,2", "--div", "H", "--pair", "1,1", "--p", "1"],
    ["omega-coh", "--scroll", "1,2", "--p", "1"],
    ["omega-coh", "--scroll", "1,2", "--div", "H"],
    ["beilinson", "--scroll", "1,2", "--type", "1,1", "--profile", "p.json"],
    ["beilinson", "--scroll", "1,2"],
    ["classify", "--scroll", "1,2", "--type", "1,1", "--profile", "p.json"],
    ["classify", "--scroll", "1,2"],
    ["enumerate", "--scroll", "1,2", "--rank", "1", "--h0", "3"],
    ["enumerate", "--scroll", "1,2"],
    ["veronese", "--dim", "2", "--p", "1", "--profile", "p.json"],
    ["veronese", "--dim", "2", "--twist", "1"],
    ["no-such-command"],
    ["blocks", "--scroll", "1,2", "--no-such-flag"],
    ["enumerate", "--scroll", "1,2", "--rank", "x"],
    ["blocks", "--scroll", "1,2", "--format", "html"],
])
def test_usage_errors_take_the_one_error_path(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: scrollcoh") and "Traceback" not in err


@pytest.mark.parametrize("command,group", [
    (["line-coh"], "(--div DIV | --pair PAIR)"),
    (["omega-coh"], "(--div DIV | --pair PAIR)"),
    (["beilinson"], "(--type TYPE | --profile PROFILE)"),
    (["classify"], "(--type TYPE | --profile PROFILE)"),
    (["enumerate"], "(--rank RANK | --h0 H0)"),
    (["veronese"], "(--p P | --profile PROFILE)"),
])
def test_help_shows_each_exactly_one_group(capsys, monkeypatch, command, group):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, so the group is not wrapped
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert group in capsys.readouterr().out


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
    "h-missing": {"entries": [{"j": 1, "q": 1}]},
    # a misspelt key must not read as an absent one, that is, as an empty table
    "unknown-key": {"n": 1, "entires": []},
    "unknown-record-key": {"entries": [{"j": 1, "q": 1, "h": 1, "H": 2}]},
    # raw text, past the JSON decoder's nesting limit: json.dumps cannot write it
    "nested-too-deeply": "[" * 100_000 + "]" * 100_000,
    # raw text that is no JSON at all
    "empty-file": "",
    "not-json": "{",
}


@pytest.mark.parametrize("command", ["classify", "beilinson", "veronese"])
@pytest.mark.parametrize("name", sorted(_BAD_PROFILES))
def test_malformed_profile_exits_one(capsys, tmp_path, command, name):
    profile = tmp_path / "profile.json"
    bad = _BAD_PROFILES[name]
    profile.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    where = ["--dim", "2"] if command == "veronese" else ["--scroll", "1,2"]
    code, out, err = run(capsys, command, *where, "--profile", str(profile))
    assert code == 1 and not out
    assert err.startswith("error: ") and "profile" in err and "Traceback" not in err


def test_profile_that_is_not_utf8_names_the_profile(capsys, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_bytes(b"\xff{}")
    code, out, err = run(capsys, "classify", "--scroll", "1,2", "--profile", str(profile))
    assert code == 1 and not out
    assert err.startswith(f"error: profile {profile} is not readable JSON: ")


def test_classify_names_an_empty_profile_diagonal(capsys, tmp_path):
    # a profile with no weight is no Ulrich type; the refusal names the
    # profile's diagonal, not the rank-zero slope a type listing would take
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"entries": []}))
    code, out, err = run(capsys, "classify", "--scroll", "1,1,2", "--profile", str(profile))
    assert code == 1 and not out
    assert err == "error: the profile's diagonal is empty: no block has positive multiplicity\n"


def test_profile_length_limit(capsys, tmp_path):
    # a valid profile padded with spaces: at the limit it runs, and one
    # character past it exits 1 naming the limit
    profile = tmp_path / "profile.json"
    text = json.dumps({"entries": []})
    for extra, code in ((0, 0), (1, 1)):
        profile.write_text(text.ljust(MAX_PROFILE_CHARS + extra))
        got, out, err = run(capsys, "beilinson", "--scroll", "1,2", "--profile", str(profile))
        assert got == code, err
        assert ("above the limit MAX_PROFILE_CHARS = " in err) == bool(code)


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


# Exit code and sha256 of stdout, pinning the exact bytes every renderer
# prints: every command in every format, line-coh in the sections, trace,
# vanishing and dual regimes, and omega-coh at p = 0 and p = n.  PROFILE and
# VPROFILE stand for the profile files the test writes.
_GOLDEN_STDOUT = {
    ('line-coh --scroll 1,2 --pair 2,2', 'json'): (0, "4a5ed23dea85876c758ff90609448c4366f2d8d773e876d8b1f8c596679dd188"),
    ('line-coh --scroll 1,2 --pair 2,2', 'md'): (0, "9ed5dd14fe9fdad6cc1f014d2f20ec0e8bfcce6937550be97832de15f62b29fa"),
    ('line-coh --scroll 1,2 --pair 2,2', 'latex'): (0, "5ff10e9094251cc61c394f01a68e4d781ddd8dd1babe9e3827fe8e67ff530d1a"),
    ('omega-coh --scroll 1,1,1 --p 1 --pair 1,2', 'json'): (0, "20b2dc732d551e8a68e0d99d49143647f6548a8d98823fe083a7212f28920e97"),
    ('omega-coh --scroll 1,1,1 --p 1 --pair 1,2', 'md'): (0, "7cc22578d94cc7566978abc738b31990919785483a4610644b6bed606736d078"),
    ('omega-coh --scroll 1,1,1 --p 1 --pair 1,2', 'latex'): (0, "0314982ea0a377474e4908a8bf19c31ac8700202974998c64b2da84c4721ee06"),
    ('blocks --scroll 1,2,3', 'json'): (0, "de35923f40415824e36df5f4e4bfc11b75da41fcdb0186c8943fc3d7ae04f077"),
    ('blocks --scroll 1,2,3', 'md'): (0, "0f113b9bac2583939e0e045650e8fba1447756873cfc48c6bc925e692126dfc9"),
    ('blocks --scroll 1,2,3', 'latex'): (0, "edd218e9348c8a9fc69a1f1c2484ff7de7886284d3033585138eb7a0326d3b36"),
    ('beilinson --scroll 1,1,1 --type 1,0,1', 'json'): (0, "6e318b6a32d2ceb487693192950d363776f70146cfaa802237d36b24157a1b7c"),
    ('beilinson --scroll 1,1,1 --type 1,0,1', 'md'): (0, "8d036b2965464a47cdb6c945084f4e0d718209469ed1a7758b643b5b93e7612a"),
    ('beilinson --scroll 1,1,1 --type 1,0,1', 'latex'): (0, "abe5919dc52c4d6a132b9fab90946aa92a8810b3f2488cd552cc3f02984d1791"),
    ('classify --scroll 1,1,2 --type 1,1,0', 'json'): (0, "f70a03d2b140f51a589457383c4d638d70403fe3f1066f6c5ec197b6967689d7"),
    ('classify --scroll 1,1,2 --type 1,1,0', 'md'): (0, "757d8429859dcdca2c3cad768f3cb59f7fe27b2c01b7b085337ae053a3f50e71"),
    ('classify --scroll 1,1,2 --type 1,1,0', 'latex'): (0, "60dd110d123520a30dc208b3606009118271fc7064bca627382aa9df8be869ef"),
    ('enumerate --scroll 1,1,1 --rank 2', 'json'): (0, "cef2ddf745506866172bc4110b5eb687dfea91416e3819bdeebca59ccaa9c09b"),
    ('enumerate --scroll 1,1,1 --rank 2', 'md'): (0, "c58451746f625773242a8f0fef73f4b464ae4bd2f4be6aec48e40d56d110b4c4"),
    ('enumerate --scroll 1,1,1 --rank 2', 'latex'): (0, "184f09e662162275df5818791bc01246407b47613b25a7192cb1db265981dee8"),
    ('verify --suite duality --scroll 1,1,2', 'json'): (0, "2775a174f43ab31c855da7cb7ea811bb4970cbd32fbf1d8e05d0d7b1c7600838"),
    ('verify --suite duality --scroll 1,1,2', 'md'): (0, "4ff7c55efec374f0a4bd9ee769c024aaac423d929e23d5d77ed9c91a9c245ba6"),
    ('verify --suite duality --scroll 1,1,2', 'latex'): (0, "84d072b0ad69a84f7c63c797e9189e1f3c2c179b4b5954454a1764d81a0358b7"),
    ('veronese --dim 2 --p 1 --twist 1', 'json'): (0, "928fd48ef32f91d5358f6a5a5f9a8d5c7b92cfd25ca4641870116003407dcb62"),
    ('veronese --dim 2 --p 1 --twist 1', 'md'): (0, "a27584ca40bcf674617d06de2bbbe305671a378396011b8390d3e44838136517"),
    ('veronese --dim 2 --p 1 --twist 1', 'latex'): (0, "70f1fb9f5beefede8d7010066a4a3526c0cfabcad9455fcf182be273af594db5"),
    ('line-coh --scroll 1,2,3 --div 3H-2F', 'json'): (0, "b8dab13d0855e28a3126446411d5fd414a263d0ee6f58926947cac4cedb943c4"),
    ('line-coh --scroll 1,2,3 --div 3H-2F', 'md'): (0, "620a60e2218493d732eed7cdabfef3fa84159d61b97545f8b206c2e2b203f54e"),
    ('line-coh --scroll 1,2,3 --div 3H-2F', 'latex'): (0, "f188ee94a83ab65651524e72e3ecebf0304d8ac3a834d4e85016747f39fd1107"),
    ('line-coh --scroll 1,2,3 --div=-5F', 'json'): (0, "aab32bdf9e32fc387ac2c0cf374da40fe847df6bbff10df0bb6c500284a5c48e"),
    ('line-coh --scroll 1,2,3 --div=-5F', 'md'): (0, "9c3a167d7a3325638b184c650f3e5591d8157752f791f7f9b74540ed5544ac0c"),
    ('line-coh --scroll 1,2,3 --div=-5F', 'latex'): (0, "31810c85c5db0bf98612d903567f04bbf70bf71891b40eefd04c4044ca3da0a3"),
    ('line-coh --scroll 1,2,3 --div=-4H+3F', 'json'): (0, "0ac12164c225fea95f787bcfe5f5463adbb4e935b5903c476c2ddebf374e2fb1"),
    ('line-coh --scroll 1,2,3 --div=-4H+3F', 'md'): (0, "780c7d2de9587ff0ce4b8fdd1f38b7f33eb562631330eab3d343e4197b3de69f"),
    ('line-coh --scroll 1,2,3 --div=-4H+3F', 'latex'): (0, "45358eb1a0a905a2992723763e26dda97e1ba07d972e91e683acce11a15f38cf"),
    ('line-coh --scroll 1,2,3 --div=-2H+3F', 'json'): (0, "410aefc12fb1286b71fc2fde944b740b4239464d6051f8bac1f8cd2afafbdf8d"),
    ('line-coh --scroll 1,2,3 --div=-2H+3F', 'md'): (0, "3a2691a961aa3d0b066d719342a6fc1c9146a795aabebcd59cd7312bf2848135"),
    ('line-coh --scroll 1,2,3 --div=-2H+3F', 'latex'): (0, "181e590d0314fdb08322db6f9c9d35c4bbf4a9a7083e13389a1eb8fcda00a32c"),
    ('omega-coh --scroll 1,2,3 --p 0 --div 2H-F', 'json'): (0, "52bc77be222bbc140341a36ee6b4bdf8f82df97d16afd2cdf16d6b0462dbcd10"),
    ('omega-coh --scroll 1,2,3 --p 0 --div 2H-F', 'md'): (0, "2621bec398dc0b33dbfa340ba706cb1c531ba90d2d2b5fab4115880479db966c"),
    ('omega-coh --scroll 1,2,3 --p 0 --div 2H-F', 'latex'): (0, "c3dd3ccccfa575b63933776a72f4d5d6b1160d5a6f81bdb00e79a6ade04300dc"),
    ('omega-coh --scroll 1,2,3 --p 2 --div=-3H+F', 'json'): (0, "7b791acb41d574e367286816ca26e18dde1a39418170d747da34d8b10ba08bf2"),
    ('omega-coh --scroll 1,2,3 --p 2 --div=-3H+F', 'md'): (0, "57d9575639138143fd77097ad06a4a466e0cd12104992cb60cc208eaebb9f0b1"),
    ('omega-coh --scroll 1,2,3 --p 2 --div=-3H+F', 'latex'): (0, "65a57f27a75a367d6dd4785cd76226e2bc304c47fbd439c6bdb53707aad94e52"),
    ('omega-coh --scroll 1,2,3 --p 2 --div 4H+2F', 'json'): (0, "393126a5fe91d4e475f13763737c8c108faf9657e878cb1dbda14577f7d81f7d"),
    ('omega-coh --scroll 1,2,3 --p 2 --div 4H+2F', 'md'): (0, "24c3377cf10f3a3ccc6c27ba25764122598b23b5af08500e3d90571dd897a989"),
    ('omega-coh --scroll 1,2,3 --p 2 --div 4H+2F', 'latex'): (0, "f14e05a2880934c53bee449fb0b72ebcb4fe24f4204126d064e1865af57f2140"),
    ('classify --scroll 1,1,1 --profile PROFILE', 'json'): (0, "3c09fac5d68e86592df056b8e22791946b52d6264b01c7d7b178becb61b9ae23"),
    ('classify --scroll 1,1,1 --profile PROFILE', 'md'): (0, "db6d58b359859011829aa6361bdf16950e010c63f8162564ca29a71db8a25b5b"),
    ('classify --scroll 1,1,1 --profile PROFILE', 'latex'): (0, "a37cdf7cfb681eb63c16eec92b8ccd19ced372c69359f7732a479e886c4c8f72"),
    ('beilinson --scroll 1,1,1 --profile PROFILE', 'json'): (0, "8abd30a7865fb9e628e03a65ea5782f0edc9cdde5524f1817a5cd948afbc9730"),
    ('beilinson --scroll 1,1,1 --profile PROFILE', 'md'): (0, "701356fb277eb0b2f8ffe16a0197756622cae29baf4ee2061a84e763f4c32549"),
    ('beilinson --scroll 1,1,1 --profile PROFILE', 'latex'): (0, "51f92f15ec0ac8449d6a458d5a7dd0d87fa77fe3ac4d73a8efffab7e01171ba7"),
    ('veronese --dim 3 --profile VPROFILE', 'json'): (0, "b50dd82c7acce02a7fbba391b038acb28cb0ae462fc5098ab0d6010bbb40508e"),
    ('veronese --dim 3 --profile VPROFILE', 'md'): (0, "556b9345d21e63f7f582d1e5dcc8edf853014af084f4cb35a6d2485c0da3b7d6"),
    ('veronese --dim 3 --profile VPROFILE', 'latex'): (0, "7a302c19be34d32304e93c402cccbcf295ef782970560e2c5d15b144d4cca77d"),
    ('enumerate --scroll 1,2 --h0 6', 'json'): (0, "3b5d48b4e1164f1109e5e60cba6fb746dafea734a41d1f1b639ac6272b7c0a59"),
    ('enumerate --scroll 1,2 --h0 6', 'md'): (0, "f994a6851cd8ecb877a9298cdfc73466f16dd6eb4097e89a83ee822734c0dc22"),
    ('enumerate --scroll 1,2 --h0 6', 'latex'): (0, "647ad6ccabce788c2b5bf1fb7521f5ed516aaa57506de20c92926e8274491db3"),
}
_PROFILES = {
    "PROFILE": {"n": 2, "entries": [{"j": 1, "q": 1, "h": 1}, {"j": 4, "q": 4, "h": 2}]},
    "VPROFILE": {"entries": [{"j": 1, "q": 1, "h": 2}]},
}


@pytest.mark.parametrize("argv,fmt", sorted(_GOLDEN_STDOUT))
def test_stdout_matches_golden_digest(capsys, tmp_path, argv, fmt):
    paths = {}
    for name, profile in _PROFILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(profile))
    args = [str(paths.get(a, a)) for a in argv.split()] + ["--format", fmt]
    code, out, err = run(capsys, *args)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _GOLDEN_STDOUT[argv, fmt], err


@pytest.mark.parametrize("argv,allowed", [
    (["omega-coh", "--scroll", "1,2,3", "--p", "7", "--div", "H"], "0..n (0..2 here)"),
    (["omega-coh", "--scroll", "1,2,3", "--p", "-1", "--div", "H"], "0..n (0..2 here)"),
    (["omega-coh", "--scroll", "1,2", "--p", "2", "--pair", "1,1"], "0..n (0..1 here)"),
    (["veronese", "--dim", "2", "--p", "5"], "0..dim (0..2 here)"),
    (["veronese", "--dim", "3", "--p", "-1", "--twist", "1"], "0..dim (0..3 here)"),
])
def test_out_of_range_p_exits_one(capsys, argv, allowed):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: --p must lie in ") and allowed in err


def test_p_at_the_ends_of_its_range(capsys):
    # p = 0 is the line bundle itself, p = n its twist by K_rel = -3H+6F
    line = run_json(capsys, "line-coh", "--scroll", "1,2,3", "--div", "2H-F")
    low = run_json(capsys, "omega-coh", "--scroll", "1,2,3", "--p", "0", "--div", "2H-F")
    assert low["result"].pop("p") == 0
    assert low["result"] == line["result"] and "p" not in line["result"]
    top = run_json(capsys, "omega-coh", "--scroll", "1,2,3", "--p", "2", "--div", "5H-F")
    shifted = run_json(capsys, "line-coh", "--scroll", "1,2,3", "--div", "2H+5F")
    assert top["result"]["h"] == shifted["result"]["h"]
    assert run(capsys, "veronese", "--dim", "3", "--p", "3")[0] == 0


@pytest.mark.parametrize("div", ["HH", "2H3F", "F2H", "2H 3F", "H+", "+-H", "2"])
def test_divisor_terms_after_the_first_need_a_sign(capsys, div):
    code, out, err = run(capsys, "line-coh", "--scroll", "1,2", "--div", div)
    assert code == 1 and not out
    assert err.startswith("error: cannot parse divisor") and "aH+bF" in err


@pytest.mark.parametrize("div,pair", [("H+H", "2,2"), ("-F+2H", "1,2"), ("2H - 3F", "-1,2"),
                                      ("+H", "1,1"), ("0", "0,0")])
def test_divisor_grammar_accepts_signed_terms(capsys, div, pair):
    a = run_json(capsys, "line-coh", "--scroll", "1,2", f"--div={div}")
    b = run_json(capsys, "line-coh", "--scroll", "1,2", f"--pair={pair}")
    assert a == b


@pytest.mark.parametrize("pair", ["1", "1,2,3"])
def test_pair_needs_two_values(capsys, pair):
    code, out, err = run(capsys, "line-coh", "--scroll", "1,2", "--pair", pair)
    assert code == 1 and not out
    assert err.startswith("error: ") and "u,v" in err


# Integers are [+-]?[0-9]+: the underscores and non-ASCII digits that int()
# accepts are refused in every integer option and list item, and in --div.
@pytest.mark.parametrize("argv", [
    ["line-coh", "--scroll", "1_0,2", "--pair", "1_0,0"],
    ["line-coh", "--scroll", "1,2", "--pair", "1_0,0"],
    ["line-coh", "--scroll", "1,2", "--div", "1_0H"],
    ["line-coh", "--scroll", "1,2", "--div", "\u0661H"],
    ["classify", "--scroll", "1,2", "--type", "\u0661,1"],
    ["beilinson", "--scroll", "1,2", "--type", "1,\uff11"],
    ["omega-coh", "--scroll", "1,2", "--div", "H", "--p", "1_0"],
    ["omega-coh", "--scroll", "\uff11,2", "--div", "H", "--p", "1"],
    ["enumerate", "--scroll", "1,2", "--rank", "\u0662"],
    ["enumerate", "--scroll", "1,2", "--h0", "6_0"],
    ["veronese", "--dim", "\u0662", "--p", "1"],
    ["veronese", "--dim", "2", "--p", "1", "--twist", "1_0"],
])
def test_integers_are_ascii_digits(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err and "Traceback" not in err


def test_spaces_around_integers_are_allowed(capsys):
    spaced = run_json(capsys, "omega-coh", "--scroll", " 1, 2 ", "--pair", " -1 ,2",
                      "--p", " 1 ")
    assert spaced == run_json(capsys, "omega-coh", "--scroll", "1,2", "--pair", "-1,2",
                              "--p", "1")
    assert run_json(capsys, "classify", "--scroll", "1,2", "--type", "+1, 1") == \
        run_json(capsys, "classify", "--scroll", "1,2", "--type", "1,1")


def ones(k):
    return ",".join(["1"] * k)


def first_block(k):
    return ",".join(["1"] + ["0"] * (k - 1))


def run_refused(capsys, argv, limit):
    """Run argv, which must exit 1 within a second naming the limit."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error: ") and f"above the limit {limit} = " in err


# Each input is refused by the library from closed-form sizes before it
# convolves; unchecked they end in an OverflowError or MemoryError traceback,
# or run for minutes.  The top wedge on 8001 letters has rank 1 but convolved
# for 9.5 s.
@pytest.mark.parametrize("argv,limit", [
    (["line-coh", "--scroll", "1,2", "--div", "99999999999999999999H"], "MAX_SUMMANDS"),
    (["line-coh", "--scroll", "1,2", "--div", "100000H"], "MAX_SLOTS"),
    (["line-coh", "--scroll", "1,1,1,1,1", "--div", "200H"], "MAX_SUMMANDS"),
    (["omega-coh", "--scroll", "1,2,3", "--p", "1", "--div=-99999999999999999999H+F"], "MAX_SUMMANDS"),
    (["omega-coh", "--scroll", ones(8001), "--p", "8000", "--div", "8001H"], "MAX_WORK"),
    (["enumerate", "--scroll", "1,1,1,1,1,1", "--rank", "200"], "MAX_TYPES"),
    (["enumerate", "--scroll", "1,2", "--rank", "99999999999999999999"], "MAX_TYPES"),
    (["enumerate", "--scroll", "1,1", "--h0", "20002"], "MAX_TYPES"),
    (["enumerate", "--scroll", ",".join(["1"] * 2001), "--rank", "1999"], "MAX_SUMMANDS"),
])
def test_size_limits_exit_one(capsys, argv, limit):
    run_refused(capsys, argv, limit)


def test_sizes_at_the_limits_run(capsys):
    types = run_json(capsys, "enumerate", "--scroll", "1,1", "--rank", str(MAX_TYPES - 1))
    assert len(types["result"]["types"]) == MAX_TYPES
    scroll = Scroll((1, 2, 3, 4, 5))
    h = {a: run_json(capsys, "line-coh", "--scroll", "1,2,3,4,5", "--div", f"{a}H")["result"]["h"]
         for a in (40, 50)}
    assert h == {a: list(scroll.line_cohomology(a * H).values()) for a in (40, 50)}
    assert h[40][0] == 16425871


def test_enumerate_on_a_thousand_and_one_summands(capsys):
    # one recursion level per block used to end in a RecursionError traceback
    payload = run_json(capsys, "enumerate", "--scroll", ",".join(["1"] * 1001), "--rank", "1")
    types = [t["type"] for t in payload["result"]["types"]]
    assert types == [[0] * 1000 + [1], [1] + [0] * 1000]


def test_enumerate_on_six_thousand_and_one_summands(capsys):
    # the block ranks C(n, i) once took a math.comb each: 7 s here
    start = time.perf_counter()
    payload = run_json(capsys, "enumerate", "--scroll", ",".join(["1"] * 6001), "--rank", "1")
    assert time.perf_counter() - start < 2.0
    types = [t["type"] for t in payload["result"]["types"]]
    assert types == [[0] * 6000 + [1], [1] + [0] * 6000]


def test_enumerate_on_sixty_thousand_and_one_summands(capsys):
    # only blocks 0 and n have rank at most 1, so no larger binomial is formed;
    # a table of every C(n, i) held over 300 MB, and one that formed every
    # C(n, i) ran past 10 minutes; about 1 s under tracemalloc on 2 vCPUs
    start = time.perf_counter()
    tracemalloc.start()
    try:
        payload = run_json(capsys, "enumerate", "--scroll", ",".join(["1"] * 60001),
                           "--rank", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10.0
    assert peak < 50 * 2 ** 20
    types = [t["type"] for t in payload["result"]["types"]]
    assert types == [[0] * 60000 + [1], [1] + [0] * 60000]


def test_cli_names_the_library_type_limit():
    assert cli.MAX_TYPES is ulrich.MAX_TYPES


@pytest.mark.parametrize("argv", [
    ["line-coh", "--scroll", "1,2", "--div", "-1H"],
    ["line-coh", "--scroll", "1,2", "--pair", "-1,2"],
    ["line-coh", "--scroll", "1,1,2", "--div", "-F+2H", "--format", "md"],
    ["omega-coh", "--scroll", "1,1,1", "--pair", "-2,-1", "--p", "1"],
])
def test_negative_divisor_as_a_separate_word(capsys, argv):
    at = argv.index("--div") if "--div" in argv else argv.index("--pair")
    joined = argv[:at] + [f"{argv[at]}={argv[at + 1]}"] + argv[at + 2:]
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert (code, out, err) == run(capsys, *joined)


def test_closed_stdout_exits_quietly():
    # the read end is closed before the command writes, as `| head` leaves it
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "scrollcoh.cli", "enumerate",
                               "--scroll", "1,1,1", "--rank", "40", "--format", "md"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""


def test_the_entry_point_freezes_the_start_up_heap():
    # main_entry moves the start-up heap out of every collection, the full
    # ones at exit included; an atexit hook, which runs before those, reads
    # how many objects stayed frozen
    argv = ["line-coh", "--scroll", "1,2", "--div", "2H-F"]
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "from scrollcoh.cli import main_entry\n"
            f"sys.argv = ['scrollcoh', *{argv!r}]\n"
            "main_entry()\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) > 0
    assert proc.stdout == subprocess.run([sys.executable, "-m", "scrollcoh.cli", *argv],
                                         capture_output=True, text=True, env=env,
                                         timeout=120).stdout


def test_main_never_freezes(capsys):
    # main() runs many times in one process, in the tests and in perfbench's
    # in-process phases, where each call's garbage must stay collectable
    assert gc.get_freeze_count() == 0
    assert run(capsys, "line-coh", "--scroll", "1,2", "--div", "2H-F")[0] == 0
    assert run(capsys, "verify", "--suite", "homvanish", "--scroll", "1,1,2")[0] == 0
    assert gc.get_freeze_count() == 0


# blocks, beilinson, classify and verify build the middle wedge of the
# splitting bundle, C(n + 1, (n + 1) // 2) summands: 705432 at n = 21 and
# 1352078, above MAX_SUMMANDS, at n = 22, where the CLI refuses before any
# table is built.  homvanish reaches the library's MAX_SUMMANDS at once from
# n = 9.  verify.chi_oracle owns its two limits and checks both before its
# loop: its grid of n(2n+5)(2c+5) twists, 10003 on S(1, 711), against
# MAX_TWISTS, then the largest bundle the grid lists against MAX_SUMMANDS,
# 288288 at n = 8 and 1485120 at n = 9, refused at once.
@pytest.mark.parametrize("argv,limit", [
    (["blocks", "--scroll", ones(23)], "MAX_SUMMANDS"),
    (["blocks", "--scroll", ones(5001)], "MAX_SUMMANDS"),
    (["beilinson", "--scroll", ones(23), "--type", first_block(23)], "MAX_SUMMANDS"),
    (["beilinson", "--scroll", ones(23), "--profile", "missing.json"], "MAX_SUMMANDS"),
    (["classify", "--scroll", ones(23), "--type", first_block(23)], "MAX_SUMMANDS"),
    (["verify", "--suite", "duality", "--scroll", ones(23)], "MAX_SUMMANDS"),
    (["verify", "--suite", "blocks", "--scroll", ones(23)], "MAX_SUMMANDS"),
    (["verify", "--suite", "homvanish", "--scroll", ones(10)], "MAX_SUMMANDS"),
    (["verify", "--suite", "chi-oracle", "--scroll", ones(12)], "MAX_SUMMANDS"),
    (["verify", "--suite", "chi-oracle", "--scroll", "1,711"], "MAX_TWISTS"),
    (["verify", "--suite", "chi-oracle", "--scroll", ones(10)], "MAX_SUMMANDS"),
    (["verify", "--suite", "chi-oracle", "--scroll", ones(9) + ",12"], "MAX_SUMMANDS"),
])
def test_scroll_size_limits_exit_one(capsys, argv, limit):
    run_refused(capsys, argv, limit)


def test_scroll_sizes_at_the_limits_run(capsys):
    n = 21
    scroll = Scroll((1,) * (n + 1))
    rows = run_json(capsys, "blocks", "--scroll", ones(n + 1))["result"]["blocks"]
    assert [r["rank"] for r in rows] == [comb(n, i) for i in range(n + 1)]
    assert all(r["ulrich"] for r in rows)
    mults = run_json(capsys, "classify", "--scroll", ones(n + 1),
                     "--type", first_block(n + 1))["result"]["type"]
    assert mults == list(ulrich.classify(scroll, sheaf=ulrich.type_sheaf(scroll, mults)))
    assert run(capsys, "beilinson", "--scroll", ones(n + 1), "--type", first_block(n + 1))[0] == 0
    for degrees, suite in (((1,) * (n + 1), "duality"), ((1,) * (n + 1), "blocks"),
                           ((1,) * 9, "homvanish"), ((1,) * 8, "chi-oracle")):
        result = run_json(capsys, "verify", "--suite", suite, "--scroll",
                          ",".join(map(str, degrees)))["result"]
        passed, details = SUITES[suite](Scroll(degrees))
        assert result["passed"] and passed
        assert result["details"] == json.loads(json.dumps(details))
    # S(1, 710) passes the grid check; its chi-oracle run takes seconds
    assert prod(map(len, koszul_grid(Scroll((1, 710))))) <= MAX_TWISTS
    assert 7 * (2 * 711 + 5) <= MAX_TWISTS < 7 * (2 * 712 + 5)


# The packed convolution spans (m + r) * spread + 1 degrees per distribution,
# spread being the largest minus the least splitting degree, so a wide scroll
# is refused from its spread even where its hooks have few cells.
@pytest.mark.parametrize("argv", [
    ["line-coh", "--scroll", "1,3000000", "--div", "2H"],
    ["omega-coh", "--scroll", "1,2,3000000", "--p", "1", "--div=-3H"],
    ["blocks", "--scroll", "1,3000000"],
    ["classify", "--scroll", "1,3000000", "--type", "1,1"],
    ["verify", "--suite", "duality", "--scroll", "1,3000000"],
])
def test_wide_scrolls_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: ") and f"above the limit MAX_SLOTS = {MAX_SLOTS}" in err


def test_slot_limit_at_its_edge(capsys):
    # Sym^2 of O(1) + O(100001) has the degrees 2, 100002 and 200002
    h = run_json(capsys, "line-coh", "--scroll", "1,100001", "--div", "2H")["result"]["h"]
    assert h == [3 + 100003 + 200003, 0, 0]


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("scrollcoh."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


# The library refuses a hook from the sizes _check_slots forms before it is
# convolved; every hook the engines convolve for a command must have passed
# that check on its own letters, m, p and spread, or the limits let it through.
@pytest.mark.parametrize("degrees", [(1, 2), (1, 1, 2), (1, 2, 3), (1, 1, 2, 3), (2, 2, 3, 4),
                                     (1, 1, 1, 2, 5), (1, 1, 1, 1, 1, 1)])
def test_checked_hooks_cover_the_convolved_ones(monkeypatch, capsys, degrees):
    scroll = ",".join(map(str, degrees))
    ones = ",".join(["1"] * len(degrees))
    runs = [["blocks"], ["beilinson", "--type", ones], ["classify", "--type", ones],
            ["line-coh", "--div", "3H-F"], ["omega-coh", "--p", "1", "--div", "2H"]]
    runs += [["verify", "--suite", suite] for suite in SUITES]
    hook_sums, check_slots = p1._hook_sums, p1._check_slots
    for argv in runs:
        convolved, checked = set(), set()

        def recording_hook_sums(degs, m, p):
            if p < len(degs):  # p >= len(degs) is the zero bundle, no convolution
                convolved.add((len(degs), m, p, max(degs) - min(degs)))
            return hook_sums(degs, m, p)

        def recording_check_slots(letters, m, p, spread):
            checked.add((letters, m, p, spread))
            return check_slots(letters, m, p, spread)

        monkeypatch.setattr(p1, "_hook_sums", recording_hook_sums)
        monkeypatch.setattr(p1, "_check_slots", recording_check_slots)
        _clear_package_caches()
        hook_sums.cache_clear()
        code, _, err = run(capsys, argv[0], "--scroll", scroll, *argv[1:])
        assert code == 0, (argv, err)
        assert convolved, argv
        assert convolved <= checked, (argv, convolved - checked)
    _clear_package_caches()
