"""Batch command line front end.

Scroll and divisor inputs are parsed from flags, dispatched to the exact
engines, and the results emitted as JSON (default), Markdown or LaTeX; the
numeric content is identical across formats and repeated invocations are
byte-identical.  Results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 invalid input, 2 an indeterminate interval where exactness was
required, 3 a verification suite failure, 141 a stdout closed early.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

# Every engine layer is imported here, not in the handlers: perfbench's tracer
# looks each one up in sys.modules after `from scrollcoh import cli`.  The
# suites are not a layer, so only the verify command imports scrollcoh.verify.
from .beilinson import atom_label, beilinson_table, beilinson_table_from_profile
from .p1 import MAX_SUMMANDS, _check_limit, hook_rank
from .relative import omega_cohomology
from .scroll import DivClass, H, Scroll
from .sheaves import deg_slope
from .tables import IndeterminateError, latex_table, md_table
from .ulrich import (MAX_TYPES, block, block_atom, classify, enumerate_types,
                     is_ulrich, type_info, type_sheaf, veronese_table)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2
EXIT_VERIFY_FAILED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal ends

# Size limits.  The library owns every limit on what a convolution costs
# (p1's MAX_SLOTS, MAX_WORK and MAX_SUMMANDS); its ValueError reaches main's
# one except.  enumerate_types keeps MAX_TYPES and verify.chi_oracle its grid
# limit MAX_TWISTS.  The CLI keeps two checks of its own: blocks, beilinson,
# classify and verify do Theta(n^2) work or more in tables of n + 2 entries
# before any convolution is large, so _check_scroll turns a large n away
# first, and a profile is read to at most MAX_PROFILE_CHARS characters, far
# above the ~60 KB of a full n = 20 profile.  Every limit refuses through
# p1._check_limit.
MAX_PROFILE_CHARS = 1_000_000

# the names of verify.SUITES, so that building the parser imports no suite
SUITE_NAMES = ("duality", "blocks", "homvanish", "chi-oracle")

# Integers are ASCII digits with an optional sign; the divisor patterns are
# compiled on first use (re caches them).
_INT = r"[+-]?[0-9]+"
_DIV_FORM = r"[+-]?[0-9]*[HF](?:[+-][0-9]*[HF])*"
_DIV_TERM = r"([+-]?)([0-9]*)([HF])"


class _Parser(argparse.ArgumentParser):
    # a usage error is invalid input: it raises into main's one except, which
    # exits 1; code 2 is reserved for indeterminate results
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _int(text: str) -> int:
    """One integer, [+-]?[0-9]+, with spaces around it allowed."""
    text = text.strip()
    if not re.fullmatch(_INT, text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its messages: "invalid int value"


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_int, text.split(",")))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _parse_div(text: str) -> DivClass:
    """aH+bF with optional coefficients; every term after the first starts
    with a sign, and spaces are ignored."""
    s = text.replace(" ", "")
    if s != "0" and not re.fullmatch(_DIV_FORM, s):
        raise ValueError(f"cannot parse divisor {text!r}; expected the form aH+bF")
    coeffs = {"H": 0, "F": 0}
    for sign, digits, basis in re.findall(_DIV_TERM, s):
        coeffs[basis] += int(sign + (digits or "1"))
    return DivClass(coeffs["H"], coeffs["F"])


def _check_p(p: int, top: int, name: str) -> None:
    if not 0 <= p <= top:
        raise ValueError(f"--p must lie in 0..{name} (0..{top} here), got {p}")


def _check_scroll(scroll: Scroll) -> None:
    """Refuse, before any table is built, a scroll too large for blocks,
    beilinson, classify or verify: each builds the middle wedge of the
    splitting bundle, the one of most summands, whose rank is checked against
    the library's own MAX_SUMMANDS."""
    n = scroll.n
    _check_limit("the middle wedge rank", hook_rank(n + 1, 1, (n + 1) // 2 - 1),
                 "MAX_SUMMANDS", MAX_SUMMANDS)


def _divisor_from(args) -> DivClass:
    if args.div is not None:
        return _parse_div(args.div)
    pair = _parse_ints(args.pair)
    if len(pair) != 2:
        raise ValueError(f"expected a divisor pair of the form u,v, got {args.pair!r}")
    return DivClass.from_pair(*pair)


def _load_profile(path: str) -> dict:
    import json  # here and in main: only JSON read or written loads it

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read(MAX_PROFILE_CHARS + 1)  # one past the limit, never the whole file
        _check_limit("the profile length", len(text), "MAX_PROFILE_CHARS", MAX_PROFILE_CHARS)
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested past the decoder's limit
        raise ValueError(f"profile {path} is not readable JSON: {exc}") from None


def _frac(x) -> str:
    """A fractions.Fraction as "p/q"."""
    return f"{x.numerator}/{x.denominator}"


def _div_payload(div: DivClass) -> dict:
    return {"h": div.h, "f": div.f}


# Each command maps (args, scroll) to (result, md, latex); md or latex is
# None where the command has no table of its own for that format.

def _cmd_coh(args, scroll: Scroll):
    """line-coh and omega-coh: a line bundle is the case p = 0."""
    result = {}
    if args.command == "omega-coh":
        _check_p(args.p, scroll.n, "n")
        result["p"] = args.p
    div = _divisor_from(args)
    table = omega_cohomology(scroll, result.get("p", 0), div)
    h = list(table.values())
    result.update(div=_div_payload(div), pair=list(div.pair()), h=h, chi=table.chi)
    header = [f"h^{i}" for i in range(len(h))] + ["chi"]
    tex_header = [f"$h^{{{i}}}$" for i in range(len(h))] + [r"$\chi$"]
    return result, md_table(header, [h + [table.chi]]), latex_table([tex_header, h + [table.chi]])


def _cmd_blocks(args, scroll: Scroll):
    _check_scroll(scroll)
    rows = []
    for i in range(scroll.n + 1):
        sheaf = block(scroll, i)
        verdict = is_ulrich(scroll, sheaf)
        rank, c1, deg, slope = deg_slope(scroll, sheaf)
        rows.append({"i": i, "atom": atom_label(block_atom(scroll, i)),
                     "rank": rank, "c1": _div_payload(c1), "deg": deg,
                     "slope": _frac(slope), "h0": verdict.h0,
                     "ulrich": verdict.passed})
    header = ["i", "atom", "rank", "deg", "slope", "h0", "ulrich"]
    return {"blocks": rows}, md_table(header, [[r[k] for k in header] for r in rows]), None


def _cmd_beilinson(args, scroll: Scroll):
    _check_scroll(scroll)
    if args.type is not None:
        sheaf = type_sheaf(scroll, _parse_ints(args.type))
        table = beilinson_table(scroll, sheaf.twist(-H))
    else:
        table = beilinson_table_from_profile(scroll, _load_profile(args.profile))
    return {"table": table.to_payload()}, table.render_md(), table.render_latex()


def _type_payload(info) -> dict:
    return {"type": list(info.multiplicities), "rank": info.rank,
            "c1": _div_payload(info.c1), "h0": info.h0, "slope": _frac(info.slope)}


def _cmd_classify(args, scroll: Scroll):
    _check_scroll(scroll)
    if args.type is not None:
        mults = classify(scroll, sheaf=type_sheaf(scroll, _parse_ints(args.type)))
    else:
        mults = classify(scroll, profile=_load_profile(args.profile))
    info = type_info(scroll, mults)
    result = _type_payload(info)
    row = [",".join(str(a) for a in info.multiplicities), info.rank, info.c1,
           info.h0, result["slope"]]
    return result, md_table(["type", "rank", "c1", "h0", "slope"], [row]), None


def _cmd_enumerate(args, scroll: Scroll):
    target = "rank" if args.rank is not None else "h0"
    rows = [dict(_type_payload(t), line_blocks=list(t.line_block_positions))
            for t in enumerate_types(scroll, rank=args.rank, h0=args.h0)]
    result = {"target": {target: getattr(args, target)}, "types": rows}
    md_rows = [[",".join(str(a) for a in r["type"]), r["rank"], r["h0"], r["slope"],
                r["line_blocks"]] for r in rows]
    return result, md_table(["type", "rank", "h0", "slope", "line blocks"], md_rows), None


def _cmd_verify(args, scroll: Scroll):
    from .verify import SUITES

    _check_scroll(scroll)
    passed, details = SUITES[args.suite](scroll)
    result = {"suite": args.suite, "passed": passed, "details": details}
    return result, f"suite {args.suite}: {'pass' if passed else 'FAIL'}", None


def _cmd_veronese(args, scroll: None):
    if args.p is not None:
        _check_p(args.p, args.dim, "dim")
        table = veronese_table(args.dim, atom=(args.p, args.twist))
    else:
        table = veronese_table(args.dim, profile=_load_profile(args.profile))
    return {"dim": args.dim, "table": table.to_payload()}, table.render_md(), table.render_latex()


def _build_parser() -> _Parser:
    parser = _Parser(prog="scrollcoh",
                     description="Exact cohomology and Ulrich classification "
                                 "on rational normal scrolls.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, scroll=True):
        p = sub.add_parser(name, help=summary)
        if scroll:
            p.add_argument("--scroll", required=True,
                           help="splitting degrees, e.g. 1,2")
        p.add_argument("--format", choices=("json", "md", "latex"),
                       default="json")
        p.set_defaults(handler=handler)
        return p

    def divisor(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--div", help="divisor as aH+bF, e.g. 2H-F")
        group.add_argument("--pair", help="divisor in pair form u,v")

    def type_or_profile(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--type", help="block multiplicities a0,...,an")
        group.add_argument("--profile", help="path to a profile JSON file")

    divisor(command("line-coh", _cmd_coh, "cohomology of a line bundle"))

    p = command("omega-coh", _cmd_coh, "cohomology of twisted relative differentials")
    divisor(p)
    p.add_argument("--p", type=_int, required=True, help="exterior power index, 0..n")

    command("blocks", _cmd_blocks, "the building blocks and their invariants")

    type_or_profile(command("beilinson", _cmd_beilinson, "Beilinson table of a block "
                                                         "sum (after the -H twist) or a profile"))

    type_or_profile(command("classify", _cmd_classify,
                            "filtration multiplicities of an Ulrich bundle"))

    p = command("enumerate", _cmd_enumerate, "all Ulrich types of a given rank or h0")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rank", type=_int)
    group.add_argument("--h0", type=_int)

    p = command("verify", _cmd_verify, "run a verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)

    p = command("veronese", _cmd_veronese, "Beilinson table on P^2 or P^3 with the "
                                           "degree-two polarisation", scroll=False)
    p.add_argument("--dim", type=_int, choices=(2, 3), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=_int, help="differential index of the input atom, 0..dim")
    group.add_argument("--profile", help="path to a profile JSON file")
    p.add_argument("--twist", type=_int, default=0, help="twist of the input atom")

    return parser


def _join_divisors(argv: list[str]) -> list[str]:
    """Each --div and --pair joined with the word after it, as in --div=-1H,
    so that argparse does not take a negative divisor for an option."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in ("--div", "--pair"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_join_divisors(sys.argv[1:] if argv is None else argv))
        text = getattr(args, "scroll", None)
        scroll = None if text is None else Scroll(_parse_ints(text))
        result, md, latex = args.handler(args, scroll)
        payload = {"command": args.command,
                   "scroll": None if scroll is None else list(scroll.degrees),
                   "result": result}
        out = {"md": md, "latex": latex}.get(args.format)
        if out is None:
            import json  # here and in _load_profile: only JSON read or written loads it

            if args.format == "json":
                out = json.dumps(payload, sort_keys=True)
            else:
                dump = json.dumps(payload, sort_keys=True, indent=2)
                out = (f"```json\n{dump}\n```" if args.format == "md"
                       else f"\\begin{{verbatim}}\n{dump}\n\\end{{verbatim}}")
    except (IndeterminateError, ValueError, OSError) as exc:
        # a usage error (_Parser.error) is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE if isinstance(exc, IndeterminateError) else EXIT_INVALID
    print(out)  # outside the try: a closed stdout is not an invalid input
    if args.command == "verify" and not result["passed"]:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main_entry() -> None:
    # The start-up heap (the interpreter's, argparse's and the package's
    # objects) lives until exit, so move it out of every collection,
    # the full ones at exit included.  Only here: main() is also called many
    # times in one process, where each call's garbage must stay collectable.
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does: point stdout at
        # devnull, so the flush at exit stays quiet, and stop without a word.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
