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
import json
import os
import re
import sys
from math import comb

# Every engine layer is imported here, not in the handlers: perfbench's tracer
# looks each one up in sys.modules after `from scrollcoh import cli`.  The
# suites are not a layer, so only _cmd_verify imports scrollcoh.verify.
from .beilinson import atom_label, beilinson_table, beilinson_table_from_profile
from .p1 import MAX_SLOTS, MAX_SUMMANDS, _check_slots, hook_rank
from .relative import _bott, omega_cohomology
from .scroll import DivClass, H, Scroll
from .sheaves import deg_slope
from .tables import IndeterminateError, latex_table, md_table
from .ulrich import (_block_ranks, block, block_atom, classify, enumerate_types,
                     is_ulrich, type_info, type_sheaf, veronese_table)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2
EXIT_VERIFY_FAILED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal ends

# Size limits, checked before any convolution runs.  A cohomology query
# reduces to the hook (m, 1^r) of its Bott regime: hook_rank(n + 1, m, r)
# summands, and at most C(n + m, n + 1) * sum_{j <= r} C(n + 1, j) nonzero
# counts in the convolution.  The convolution packs each of its m + r + 2
# degree distributions into one integer with a slot per degree; the library's
# own check, p1._check_slots(m, r, spread), refuses more than MAX_SLOTS slots,
# spread being the largest minus the least splitting degree.  Below
# MAX_SUMMANDS a slot takes at most three bytes.  The library keeps
# MAX_SUMMANDS too, when a distribution is expanded; the CLI checks it first,
# in closed form.  blocks, beilinson, classify and verify check the widest
# hooks they run the same way (_check_scroll), the chi-oracle suite counts
# its twists, and enumerate the types it would list.
MAX_CELLS = 2_000_000
MAX_TYPES = 10_000
MAX_TWISTS = 10_000

# the names of verify.SUITES, so that building the parser imports no suite
SUITE_NAMES = ("duality", "blocks", "homvanish", "chi-oracle")

# Integers are ASCII digits with an optional sign; the divisor patterns are
# compiled on first use (re caches them).
_INT = r"[+-]?[0-9]+"
_DIV_FORM = r"[+-]?[0-9]*[HF](?:[+-][0-9]*[HF])*"
_DIV_TERM = r"([+-]?)([0-9]*)([HF])"


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1; code 2 is reserved for indeterminate results
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


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


def _one_of(args, what: str, *names: str) -> str:
    """The one option among ``names`` that was given; ValueError otherwise."""
    given = [name for name in names if getattr(args, name) is not None]
    if len(given) != 1:
        flags = " or ".join(f"--{name}" for name in names)
        raise ValueError(f"give the {what} exactly once, via {flags}")
    return given[0]


def _check_p(p: int, top: int, name: str) -> None:
    if not 0 <= p <= top:
        raise ValueError(f"--p must lie in 0..{name} (0..{top} here), got {p}")


def _check_limit(what: str, count: int, name: str, limit: int) -> None:
    if count > limit:
        raise ValueError(f"{what} is at least {count}, above the limit {name} = {limit}")


def _check_hook(n: int, m: int, r: int, spread: int = 0) -> None:
    _check_limit("the pushforward rank", hook_rank(n + 1, m, r), "MAX_SUMMANDS", MAX_SUMMANDS)
    # the terms C(n + m, n + 1) * C(n + 1, j), summed until past the limit
    cells = term = comb(n + m, n + 1)
    for j in range(1, r + 1):
        if cells > MAX_CELLS:
            break
        term = term * (n + 2 - j) // j
        cells += term
    _check_limit("the convolution size", cells, "MAX_CELLS", MAX_CELLS)
    _check_slots(m, r, spread)


def _spread(scroll: Scroll) -> int:
    return scroll.degrees[-1] - scroll.degrees[0]


def _check_size(scroll: Scroll, p: int, div: DivClass) -> None:
    regime = _bott(scroll.n, p, div.h)
    if regime is not None and regime[1]:
        _check_hook(scroll.n, regime[1], regime[2], _spread(scroll))


def _check_scroll(scroll: Scroll, command: str) -> None:
    """Check the hooks, in closed form, among which is the widest convolution
    that ``command`` (or the verify suite of that name) runs on ``scroll``.

    Each runs wedges of the splitting bundle: the top one, (1, 1^n), has the
    widest convolution and goes first, so a large n is turned away at once;
    the middle one has the most summands.  homvanish adds the hooks of its
    Koszul chases, and chi-oracle those of its twists (m + r = n + 2) and of
    its line bundles down to -(2n + 3)H, besides its own grid of twists.
    """
    n = scroll.n
    hooks = [(1, n), (1, (n + 1) // 2 - 1)]
    if command == "homvanish" and n > 1:
        hooks += [(n - 1, 1)] + [(n, r) for r in range(2, n)]
    elif command == "chi-oracle":
        hooks += [(n + 3, n)] + [(n + 2 - r, r) for r in range(n + 1)]
        # the suite's Koszul grid: p < n, |a| <= n + 2, |b| <= c + 2
        twists = n * (2 * n + 5) * (2 * scroll.c + 5)
        _check_limit("the chi-oracle grid", twists, "MAX_TWISTS", MAX_TWISTS)
    for m, r in hooks:
        _check_hook(n, m, r, _spread(scroll))


def _check_types(scroll: Scroll, rank: int) -> None:
    # ways[t] counts the a_0..a_n with sum a_i C(n, i) = t; as a_0 + a_n = rank
    # alone gives rank + 1 types, a rank of MAX_TYPES or more is over at once
    ways = [1] + [0] * min(rank, MAX_TYPES)
    for w in _block_ranks(scroll.n):
        for t in range(w, len(ways)):
            ways[t] += ways[t - w]
    count = rank + 1 if rank >= MAX_TYPES else ways[rank]
    _check_limit("the number of types", count, "MAX_TYPES", MAX_TYPES)


def _divisor_from(args) -> DivClass:
    if _one_of(args, "divisor", "div", "pair") == "div":
        return _parse_div(args.div)
    pair = _parse_ints(args.pair)
    if len(pair) != 2:
        raise ValueError(f"expected a divisor pair of the form u,v, got {args.pair!r}")
    return DivClass.from_pair(*pair)


def _load_profile(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"profile {path} is nested too deeply to parse") from None


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
        if args.p is None:
            raise ValueError("omega-coh needs --p")
        _check_p(args.p, scroll.n, "n")
        result["p"] = args.p
    div = _divisor_from(args)
    p = result.get("p", 0)
    _check_size(scroll, p, div)
    table = omega_cohomology(scroll, p, div)
    h = list(table.values())
    result.update(div=_div_payload(div), pair=list(div.pair()), h=h, chi=table.chi)
    header = [f"h^{i}" for i in range(len(h))] + ["chi"]
    tex_header = [f"$h^{{{i}}}$" for i in range(len(h))] + [r"$\chi$"]
    return result, md_table(header, [h + [table.chi]]), latex_table([tex_header, h + [table.chi]])


def _cmd_blocks(args, scroll: Scroll):
    _check_scroll(scroll, args.command)
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
    _check_scroll(scroll, args.command)
    if _one_of(args, "input", "type", "profile") == "type":
        sheaf = type_sheaf(scroll, _parse_ints(args.type))
        table = beilinson_table(scroll, sheaf.twist(-H))
    else:
        table = beilinson_table_from_profile(scroll, _load_profile(args.profile))
    return {"table": table.to_payload()}, table.render_md(), table.render_latex()


def _type_payload(info) -> dict:
    return {"type": list(info.multiplicities), "rank": info.rank,
            "c1": _div_payload(info.c1), "h0": info.h0, "slope": _frac(info.slope)}


def _cmd_classify(args, scroll: Scroll):
    _check_scroll(scroll, args.command)
    if _one_of(args, "input", "type", "profile") == "type":
        mults = classify(scroll, sheaf=type_sheaf(scroll, _parse_ints(args.type)))
    else:
        mults = classify(scroll, profile=_load_profile(args.profile))
    info = type_info(scroll, mults)
    result = _type_payload(info)
    row = [",".join(str(a) for a in info.multiplicities), info.rank, info.c1,
           info.h0, result["slope"]]
    return result, md_table(["type", "rank", "c1", "h0", "slope"], [row]), None


def _cmd_enumerate(args, scroll: Scroll):
    target = _one_of(args, "target", "rank", "h0")
    rank = args.rank if target == "rank" else args.h0 // scroll.c
    if rank >= 1 and (target == "rank" or args.h0 % scroll.c == 0):
        _check_types(scroll, rank)
    rows = [dict(_type_payload(t), line_blocks=list(t.line_block_positions))
            for t in enumerate_types(scroll, rank=args.rank, h0=args.h0)]
    result = {"target": {target: getattr(args, target)}, "types": rows}
    md_rows = [[",".join(str(a) for a in r["type"]), r["rank"], r["h0"], r["slope"],
                r["line_blocks"]] for r in rows]
    return result, md_table(["type", "rank", "h0", "slope", "line blocks"], md_rows), None


def _cmd_verify(args, scroll: Scroll):
    from .verify import SUITES

    _check_scroll(scroll, args.suite)
    passed, details = SUITES[args.suite](scroll)
    result = {"suite": args.suite, "passed": passed, "details": details}
    return result, f"suite {args.suite}: {'pass' if passed else 'FAIL'}", None


def _cmd_veronese(args, scroll: None):
    if _one_of(args, "input", "p", "profile") == "p":
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
        p.add_argument("--div", help="divisor as aH+bF, e.g. 2H-F")
        p.add_argument("--pair", help="divisor in pair form u,v")

    def type_or_profile(p):
        p.add_argument("--type", help="block multiplicities a0,...,an")
        p.add_argument("--profile", help="path to a profile JSON file")

    divisor(command("line-coh", _cmd_coh, "cohomology of a line bundle"))

    p = command("omega-coh", _cmd_coh, "cohomology of twisted relative differentials")
    divisor(p)
    p.add_argument("--p", type=_int, help="exterior power index, 0..n")

    command("blocks", _cmd_blocks, "the building blocks and their invariants")

    type_or_profile(command("beilinson", _cmd_beilinson, "Beilinson table of a block "
                                                         "sum (after the -H twist) or a profile"))

    type_or_profile(command("classify", _cmd_classify,
                            "filtration multiplicities of an Ulrich bundle"))

    p = command("enumerate", _cmd_enumerate, "all Ulrich types of a given rank or h0")
    p.add_argument("--rank", type=_int)
    p.add_argument("--h0", type=_int)

    p = command("verify", _cmd_verify, "run a verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)

    p = command("veronese", _cmd_veronese, "Beilinson table on P^2 or P^3 with the "
                                           "degree-two polarisation", scroll=False)
    p.add_argument("--dim", type=_int, choices=(2, 3), required=True)
    p.add_argument("--p", type=_int, help="differential index of the input atom, 0..dim")
    p.add_argument("--twist", type=_int, default=0, help="twist of the input atom")
    p.add_argument("--profile", help="path to a profile JSON file")

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
    args = _build_parser().parse_args(_join_divisors(sys.argv[1:] if argv is None else argv))
    try:
        text = getattr(args, "scroll", None)
        scroll = None if text is None else Scroll(_parse_ints(text))
        result, md, latex = args.handler(args, scroll)
        payload = {"command": args.command,
                   "scroll": None if scroll is None else list(scroll.degrees),
                   "result": result}
        out = {"json": json.dumps(payload, sort_keys=True), "md": md, "latex": latex}[args.format]
        if out is None:
            dump = json.dumps(payload, sort_keys=True, indent=2)
            out = (f"```json\n{dump}\n```" if args.format == "md"
                   else f"\\begin{{verbatim}}\n{dump}\n\\end{{verbatim}}")
    except (IndeterminateError, ValueError, KeyError, OSError) as exc:
        # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE if isinstance(exc, IndeterminateError) else EXIT_INVALID
    print(out)  # outside the try: a closed stdout is not an invalid input
    if args.command == "verify" and not result["passed"]:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main_entry() -> None:
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
