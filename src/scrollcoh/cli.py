"""Batch command line front end.

Scroll and divisor inputs are parsed from flags, dispatched to the exact
engines, and the results emitted as JSON (default), Markdown or LaTeX; the
numeric content is identical across formats and repeated invocations are
byte-identical.  Results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 invalid input, 2 an indeterminate interval where exactness was
required, 3 a verification suite failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import comb

from .beilinson import (atom_label, beilinson_table, beilinson_table_from_profile,
                        build_collections, verify_duality)
from .homext import hom_upper_bound
from .relative import (koszul_resolution, omega_cohomology, sheaf_chi)
from .scroll import DivClass, H, Scroll
from .sheaves import deg_slope, omega_atom
from .tables import IndeterminateError
from .ulrich import (block, block_atom, classify, enumerate_types, is_ulrich,
                     type_info, type_sheaf, veronese_table)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2
EXIT_VERIFY_FAILED = 3

_DIV_TERM = re.compile(r"([+-]?\d*)([HF])")


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1; code 2 is reserved for indeterminate results
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _parse_div(text: str) -> DivClass:
    s = text.replace(" ", "")
    if s == "0":
        return DivClass(0, 0)
    matched = "".join(m.group(0) for m in _DIV_TERM.finditer(s))
    if not s or matched != s:
        raise ValueError(f"cannot parse divisor {text!r}; expected the form aH+bF")
    h = f = 0
    for coeff, basis in _DIV_TERM.findall(s):
        k = 1 if coeff in ("", "+") else -1 if coeff == "-" else int(coeff)
        if basis == "H":
            h += k
        else:
            f += k
    return DivClass(h, f)


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


def _divisor_from(args) -> DivClass:
    if _one_of(args, "divisor", "div", "pair") == "div":
        return _parse_div(args.div)
    u, v = _parse_ints(args.pair)
    return DivClass.from_pair(u, v)


def _load_profile(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _div_payload(div: DivClass) -> dict:
    return {"h": div.h, "f": div.f}


def _emit(args, payload: dict, md: str | None = None, latex: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "md":
        print(md if md is not None else _fallback_md(payload))
    else:
        print(latex if latex is not None else _fallback_latex(payload))


def _fallback_md(payload: dict) -> str:
    return "```json\n" + json.dumps(payload, sort_keys=True, indent=2) + "\n```"


def _fallback_latex(payload: dict) -> str:
    return ("\\begin{verbatim}\n"
            + json.dumps(payload, sort_keys=True, indent=2)
            + "\n\\end{verbatim}")


def _md_table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines)


def _h_table_latex(values, chi) -> str:
    cols = "c|" * (len(values) + 1)
    header = " & ".join(f"$h^{{{i}}}$" for i in range(len(values))) + r" & $\chi$ \\"
    row = " & ".join(str(v) for v in values) + rf" & {chi} \\"
    return "\n".join([r"\begin{tabular}{|" + cols + "}", r"\hline", header,
                      r"\hline", row, r"\hline", r"\end{tabular}"])


def _cmd_coh(args) -> int:
    """line-coh and omega-coh: a line bundle is the case p = 0."""
    scroll = Scroll(_parse_ints(args.scroll))
    result = {}
    if args.command == "omega-coh":
        if args.p is None:
            raise ValueError("omega-coh needs --p")
        _check_p(args.p, scroll.n, "n")
        result["p"] = args.p
    div = _divisor_from(args)
    table = omega_cohomology(scroll, result.get("p", 0), div)
    h = list(table.values())
    result.update(div=_div_payload(div), pair=list(div.pair()), h=h, chi=table.chi)
    payload = {"command": args.command, "scroll": list(scroll.degrees), "result": result}
    header = [f"h^{i}" for i in range(len(h))] + ["chi"]
    _emit(args, payload, _md_table(header, [h + [table.chi]]),
          _h_table_latex(h, table.chi))
    return EXIT_OK


def _cmd_blocks(args) -> int:
    scroll = Scroll(_parse_ints(args.scroll))
    rows = []
    for i in range(scroll.n + 1):
        sheaf = block(scroll, i)
        verdict = is_ulrich(scroll, sheaf)
        rank, c1, deg, slope = deg_slope(scroll, sheaf)
        rows.append({"i": i, "atom": atom_label(block_atom(scroll, i)),
                     "rank": rank, "c1": _div_payload(c1), "deg": deg,
                     "slope": _frac(slope), "h0": verdict.h0,
                     "ulrich": verdict.passed})
    payload = {"command": "blocks", "scroll": list(scroll.degrees),
               "result": {"blocks": rows}}
    header = ["i", "atom", "rank", "deg", "slope", "h0", "ulrich"]
    _emit(args, payload, _md_table(header, [[r[k] for k in header] for r in rows]))
    return EXIT_OK


def _table_for(args, scroll: Scroll):
    if _one_of(args, "input", "type", "profile") == "type":
        sheaf = type_sheaf(scroll, _parse_ints(args.type))
        return beilinson_table(scroll, sheaf.twist(-H))
    return beilinson_table_from_profile(scroll, _load_profile(args.profile))


def _cmd_beilinson(args) -> int:
    scroll = Scroll(_parse_ints(args.scroll))
    table = _table_for(args, scroll)
    payload = {"command": "beilinson", "scroll": list(scroll.degrees),
               "result": {"table": table.to_payload()}}
    _emit(args, payload, table.render_md(), table.render_latex())
    return EXIT_OK


def _cmd_classify(args) -> int:
    scroll = Scroll(_parse_ints(args.scroll))
    if _one_of(args, "input", "type", "profile") == "type":
        mults = classify(scroll, sheaf=type_sheaf(scroll, _parse_ints(args.type)))
    else:
        mults = classify(scroll, profile=_load_profile(args.profile))
    info = type_info(scroll, mults)
    result = {"type": list(info.multiplicities), "rank": info.rank,
              "c1": _div_payload(info.c1), "h0": info.h0,
              "slope": _frac(info.slope)}
    payload = {"command": "classify", "scroll": list(scroll.degrees), "result": result}
    row = [",".join(str(a) for a in info.multiplicities), info.rank, info.c1,
           info.h0, result["slope"]]
    _emit(args, payload, _md_table(["type", "rank", "c1", "h0", "slope"], [row]))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    scroll = Scroll(_parse_ints(args.scroll))
    target = _one_of(args, "target", "rank", "h0")
    infos = enumerate_types(scroll, rank=args.rank, h0=args.h0)
    rows = [{"type": list(t.multiplicities), "rank": t.rank,
             "c1": _div_payload(t.c1), "h0": t.h0, "slope": _frac(t.slope),
             "line_blocks": list(t.line_block_positions)} for t in infos]
    payload = {"command": "enumerate", "scroll": list(scroll.degrees),
               "result": {"target": {target: getattr(args, target)}, "types": rows}}
    md_rows = [[",".join(str(a) for a in r["type"]), r["rank"], r["h0"], r["slope"],
                r["line_blocks"]] for r in rows]
    _emit(args, payload, _md_table(["type", "rank", "h0", "slope", "line blocks"], md_rows))
    return EXIT_OK


def _suite_duality(scroll: Scroll):
    report = verify_duality(scroll)
    return report.passed, {"violations": [list(v) for v in report.violations]}


def _suite_blocks(scroll: Scroll):
    failures = []
    for i in range(scroll.n + 1):
        verdict = is_ulrich(scroll, block(scroll, i))
        expected = scroll.c * comb(scroll.n, i)
        if not verdict.passed or verdict.h0 != expected:
            failures.append({"i": i, "h0": verdict.h0, "expected": expected,
                             "failures": list(verdict.failures)})
    return not failures, {"failures": failures}


def _required_hom_pairs(scroll: Scroll):
    n = scroll.n
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                x = omega_atom(scroll, i, DivClass(i, 0))
                y = omega_atom(scroll, j, DivClass(j, 0))
                yield x, y, f"Hom(Omega^{i}({i}H), Omega^{j}({j}H))"
    _, f = build_collections(scroll)
    members = [1] + [2 * t for t in range(1, n + 1)]
    for i in members:
        for j in members:
            if i > j:
                yield f[i].atom, f[j].atom, f"Hom(F_{i}, F_{j})"


def _suite_homvanish(scroll: Scroll):
    failures = []
    checked = 0
    for x, y, tag in _required_hom_pairs(scroll):
        checked += 1
        table = hom_upper_bound(scroll, x, y)
        if table.hi(0) != 0:
            failures.append({"pair": tag, "bound": list(table.bound(0))})
    return not failures, {"checked": checked, "failures": failures}


def _suite_chi_oracle(scroll: Scroll):
    failures = []
    n, c = scroll.n, scroll.c
    for p in range(n):
        for a in range(-n - 2, n + 3):
            for b in range(-c - 2, c + 3):
                div = DivClass(a, b)
                res = koszul_resolution(scroll, p, div)
                alt = sum((-1) ** idx * sheaf_chi(scroll, t)
                          for idx, t in enumerate(res))
                want = (-1) ** (len(res) - 1) * omega_cohomology(scroll, p, div).chi
                if alt != want:
                    failures.append({"p": p, "div": _div_payload(div),
                                     "alternating": alt, "expected": want})
    for p in range(n + 1):
        for b in range(-3, 4):
            got = omega_cohomology(scroll, p, DivClass(0, b)).chi
            if got != (-1) ** p * (b + 1):
                failures.append({"p": p, "b": b, "chi": got})
    return not failures, {"failures": failures}


_SUITES = {"duality": _suite_duality, "blocks": _suite_blocks,
           "homvanish": _suite_homvanish, "chi-oracle": _suite_chi_oracle}


def _cmd_verify(args) -> int:
    scroll = Scroll(_parse_ints(args.scroll))
    passed, details = _SUITES[args.suite](scroll)
    result = {"suite": args.suite, "passed": passed, "details": details}
    payload = {"command": "verify", "scroll": list(scroll.degrees), "result": result}
    _emit(args, payload, f"suite {args.suite}: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _cmd_veronese(args) -> int:
    if _one_of(args, "input", "p", "profile") == "p":
        _check_p(args.p, args.dim, "dim")
        table = veronese_table(args.dim, atom=(args.p, args.twist))
    else:
        table = veronese_table(args.dim, profile=_load_profile(args.profile))
    payload = {"command": "veronese", "scroll": None,
               "result": {"dim": args.dim, "table": table.to_payload()}}
    _emit(args, payload, table.render_md(), table.render_latex())
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="scrollcoh",
                     description="Exact cohomology and Ulrich classification "
                                 "on rational normal scrolls.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scroll=True):
        if scroll:
            p.add_argument("--scroll", required=True,
                           help="splitting degrees, e.g. 1,2")
        p.add_argument("--format", choices=("json", "md", "latex"),
                       default="json")

    def divisor(p):
        p.add_argument("--div", help="divisor as aH+bF, e.g. 2H-F")
        p.add_argument("--pair", help="divisor in pair form u,v")

    p = sub.add_parser("line-coh", help="cohomology of a line bundle")
    common(p); divisor(p)
    p.set_defaults(handler=_cmd_coh)

    p = sub.add_parser("omega-coh",
                       help="cohomology of twisted relative differentials")
    common(p); divisor(p)
    p.add_argument("--p", type=int, help="exterior power index, 0..n")
    p.set_defaults(handler=_cmd_coh)

    p = sub.add_parser("blocks", help="the building blocks and their invariants")
    common(p)
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("beilinson", help="Beilinson table of a block sum "
                                         "(after the -H twist) or a profile")
    common(p)
    p.add_argument("--type", help="block multiplicities a0,...,an")
    p.add_argument("--profile", help="path to a profile JSON file")
    p.set_defaults(handler=_cmd_beilinson)

    p = sub.add_parser("classify", help="filtration multiplicities of an "
                                        "Ulrich bundle")
    common(p)
    p.add_argument("--type", help="block multiplicities a0,...,an")
    p.add_argument("--profile", help="path to a profile JSON file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("enumerate", help="all Ulrich types of a given rank or h0")
    common(p)
    p.add_argument("--rank", type=int)
    p.add_argument("--h0", type=int)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("veronese", help="Beilinson table on P^2 or P^3 with "
                                        "the degree-two polarisation")
    common(p, scroll=False)
    p.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p.add_argument("--p", type=int, help="differential index of the input atom, 0..dim")
    p.add_argument("--twist", type=int, default=0, help="twist of the input atom")
    p.add_argument("--profile", help="path to a profile JSON file")
    p.set_defaults(handler=_cmd_veronese)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except IndeterminateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
