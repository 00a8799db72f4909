"""A fuzz property of the command line: argv drawn from the documented
grammar of the 8 commands, with malformed words mixed into it, run in
process through ``main``.  Every run ends in an exit code 0, 1 or 3
(argparse's usage errors count as 1) and no other exception escapes; exit 1
prints nothing to stdout, and exit 3, a failed verify suite, prints its
report."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scrollcoh.cli import SUITE_NAMES, main

# words that are no integer, or that only int() takes for one
_BAD = st.sampled_from(["", " ", "x", "-", "+", "1_0", "\u0661", "\uff12", "1.5",
                        "2H", "1,,2", "0x1", "1 2"])


def _mostly(good, bad=_BAD):
    # well-formed unless a digit draws 9
    return st.tuples(st.integers(0, 9), good, bad).map(lambda t: t[2] if t[0] == 9 else t[1])


def _csv(values):
    return ",".join(map(str, values))


def _lists(lo, hi, min_size, max_size):
    return st.lists(st.integers(lo, hi), min_size=min_size, max_size=max_size).map(_csv)


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi).map(str))


_TERM = st.tuples(st.sampled_from(["", "+", "-"]), st.sampled_from(["", "0", "1", "2", "5"]),
                  st.sampled_from("HF")).map("".join)
_DIV = _mostly(st.one_of(st.just("0"), st.lists(_TERM, min_size=1, max_size=3).map("".join)))
_PROFILE = st.sampled_from(["PROFILE", "VPROFILE", "NOT-A-PROFILE", "MISSING"])

# Each command's options as slots, after the README: a slot of several flags
# takes exactly one of them.  --format is a slot of every command.
_GRAMMAR = {
    "line-coh": [("--scroll",), ("--div", "--pair")],
    "omega-coh": [("--scroll",), ("--div", "--pair"), ("--p",)],
    "blocks": [("--scroll",)],
    "beilinson": [("--scroll",), ("--type", "--profile")],
    "classify": [("--scroll",), ("--type", "--profile")],
    "enumerate": [("--scroll",), ("--rank", "--h0")],
    "verify": [("--scroll",), ("--suite",)],
    "veronese": [("--dim",), ("--p", "--profile"), ("--twist",)],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    # n <= 3 and degrees <= 3 keep every command, the verify suites included,
    # well under a second
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n = len(degrees) - 1
    words = {
        "--scroll": _mostly(st.just(_csv(degrees)),
                            _BAD | st.sampled_from(["2", "0,2", "-1,1", "1,2,"])),
        "--div": _DIV,
        "--pair": _mostly(_lists(-5, 5, 2, 2), _BAD | _lists(-5, 5, 1, 3)),
        "--p": _ints(-1, 4 if command == "veronese" else n + 1),
        "--type": _mostly(_lists(0, 2, n + 1, n + 1), _BAD | _lists(0, 2, n, n + 2)),
        "--profile": _PROFILE,
        "--rank": _ints(-1, 6),
        "--h0": _ints(-1, 30),
        "--suite": _mostly(st.sampled_from(SUITE_NAMES)),
        "--dim": _mostly(st.sampled_from(["2", "3", "4"])),
        "--twist": _ints(-3, 3),
        "--format": _mostly(st.sampled_from(["json", "md", "latex"])),
    }
    argv = [command]
    for slot in _GRAMMAR[command] + [("--format",)]:
        # mostly one flag of the slot, now and then none or all of them
        flags = draw(_mostly(st.sampled_from(slot).map(lambda flag: (flag,)),
                             st.sampled_from([(), slot])))
        for flag in flags:
            argv += [flag, draw(words[flag])]
    return argv


@pytest.fixture(scope="module")
def profiles(tmp_path_factory):
    root = tmp_path_factory.mktemp("profiles")
    contents = {
        "PROFILE": {"n": 2, "entries": [{"j": 1, "q": 1, "h": 1}, {"j": 4, "q": 4, "h": 2}]},
        "VPROFILE": {"entries": [{"j": 1, "q": 1, "h": 2}]},
        "NOT-A-PROFILE": [],
    }
    paths = {name: root / f"{name}.json" for name in [*contents, "MISSING"]}
    for name, content in contents.items():
        paths[name].write_text(json.dumps(content))
    return {name: str(path) for name, path in paths.items()}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_ends_in_a_documented_exit(profiles, argv):
    argv = [profiles.get(word, word) for word in argv]
    code, out, err = _run(argv)
    assert code in (0, 1, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and err, argv
    elif code == 3:
        assert argv[0] == "verify" and out, argv
    elif "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        json.loads(out)
    else:
        assert out, argv
