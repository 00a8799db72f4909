"""Seeded workloads: operation streams, executors and output checks.

Every workload is an infinite stream of plain-data operations drawn from a
``random.Random`` seeded by the benchmark seed, so the same seed replays the
same sequence.  Streams are built in blocks of fixed composition (each block
holds the same mix of scrolls, regimes and twist bands, shuffled), which keeps
the cost of a run nearly the same from seed to seed while the inputs differ.

The program under test only ever sees the generated inputs.  Executors go
through attributes of the ``scrollcoh`` package and its modules at call time,
so a tracer that rebinds those names sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from math import comb

import scrollcoh as sc
from scrollcoh import cli as sc_cli


def digest(reprs) -> str:
    """sha256 of the canonical JSON of a list of result representations."""
    blob = json.dumps(list(reprs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """One operation stream.  Subclasses set the sizes and define ``blocks``,
    ``execute`` (op -> raw result) and ``check`` (op, raw -> problem or None)."""

    digest_prefix: int  # operations whose results the digest covers
    trace_ops: int      # operations replayed by each phase of a traced run
    check_sample: int   # operations of a pass checked, spread evenly over it
    pass_blocks = 1     # blocks of the stream in one timed pass
    group = 1           # operations timed after one reference-kernel measurement
    runs_subprocesses = False

    def __init__(self, rng, workdir):
        self.rng = rng
        self.workdir = os.path.relpath(workdir)

    @classmethod
    def execute_in_process(cls, op):
        return cls.execute(op)

    @staticmethod
    def result_repr(raw):
        return raw

    def after_timed(self, ops, raws, errors):
        """Extra checks after a timed run; returns known defects to report."""
        return []


# -- pushforward --------------------------------------------------------------
# Distinct omega_cohomology / line_cohomology queries on scrolls with n = 2..5.
# A block enumerates every (p, m) up to the pool's twist bound in the sections
# and the dual regime, and every p at twist 0 (the trace regime), each on a
# scroll drawn from the pool; every such (scroll, p, a) is queried twice with
# two fibre twists b, so half the queries reuse an earlier (scroll, p, a).
# The split-bundle ranks, and so the cost, depend on n, p and the twist only,
# so the cost of a block hardly depends on the seed; the seed draws the
# scrolls, the fibre twists and the order.

_PUSH_SCROLLS = ((((1, 2, 3), (1, 1, 2), (2, 3, 3)), 60),
                 (((1, 1, 2, 3), (1, 2, 2, 2), (1, 1, 1, 3)), 30),
                 (((1, 2, 3, 4, 5), (1, 1, 2, 2, 3), (1, 1, 1, 2, 4)), 20),
                 (((1, 1, 1, 2, 2, 3), (1, 1, 1, 1, 2, 2), (1, 1, 2, 2, 3, 3)), 12))


class Pushforward(Workload):
    name = "pushforward"
    digest_prefix = 300
    trace_ops = 1000
    check_sample = 300
    group = 10

    def _pair(self, degs, p, a):
        span = 3 * sum(degs)
        return [{"kind": "line" if p == 0 and self.rng.random() < 0.5 else "omega",
                 "scroll": degs, "p": p, "a": a, "b": b}
                for b in self.rng.sample(range(-span, span + 1), 2)]

    def blocks(self):
        while True:
            block = []
            for pool, amax in _PUSH_SCROLLS:
                n = len(pool[0]) - 1
                for p in range(n + 1):
                    for m in range(1, amax + 1):
                        block += self._pair(self.rng.choice(pool), p, m + p)
                        block += self._pair(self.rng.choice(pool), p, -m - (n - p))
                    for degs in pool:
                        block += self._pair(degs, p, 0)
            self.rng.shuffle(block)
            yield block

    @staticmethod
    def execute(op):
        scroll = sc.Scroll(op["scroll"])
        div = sc.DivClass(op["a"], op["b"])
        if op["kind"] == "line":
            table = sc.line_cohomology(scroll, div)
        else:
            table = sc.omega_cohomology(scroll, op["p"], div)
        return list(table.values())

    @staticmethod
    def check(op, raw):
        # Serre duality: h^i(Omega^p(D)) = h^{n+1-i}(Omega^{n-p}(-D-2F)).
        scroll = sc.Scroll(op["scroll"])
        n, p = scroll.n, op["p"]
        dual = sc.omega_cohomology(scroll, n - p, sc.DivClass(-op["a"], -op["b"] - 2))
        want = [dual.h(n + 1 - i) for i in range(n + 2)]
        if raw != want:
            return f"Serre duality fails: {raw} vs {want}"
        if op["kind"] == "line":
            other = list(sc.omega_cohomology(scroll, 0, sc.DivClass(op["a"], op["b"])).values())
            if other != raw:
                return f"line_cohomology {raw} differs from omega_cohomology p=0 {other}"
        return None


# -- chase ---------------------------------------------------------------------
# hom_upper_bound between twisted relative differentials (1 <= p <= n-1) with
# |a| <= 1, plus line-bundle pairs and identity pairs, on n = 3..5.

_CHASE_SCROLLS = {3: ((1, 1, 2, 3), (1, 2, 2, 3), (2, 2, 2, 3)),
                  4: ((1, 1, 2, 2, 3), (1, 2, 2, 2, 3), (1, 1, 1, 2, 3)),
                  5: ((1, 1, 1, 2, 2, 3), (1, 1, 2, 2, 2, 2), (1, 1, 1, 1, 2, 3))}


class Chase(Workload):
    name = "chase"
    digest_prefix = 300
    trace_ops = 3000
    check_sample = 3000
    pass_blocks = 80
    group = 10

    def _atom(self, degs, line):
        n, c = len(degs) - 1, sum(degs)
        p = 0 if line else self.rng.randint(1, n - 1)
        return (p, self.rng.randint(-1, 1), self.rng.randint(-c, c))

    def _op(self, degs, shape):
        source = self._atom(degs, shape == "line-source")
        target = source if shape == "identity" else self._atom(degs, shape == "line-target")
        return {"scroll": degs, "source": source, "target": target}

    def blocks(self):
        shapes = ("omega",) * 6 + ("identity", "line-source", "line-target")
        while True:
            block = []
            for n in (3, 4, 5):
                for shape in shapes:
                    block.append(self._op(self.rng.choice(_CHASE_SCROLLS[n]), shape))
            self.rng.shuffle(block)
            yield block

    @staticmethod
    def _atoms(op):
        return tuple(sc.Atom(p, sc.DivClass(a, b)) for p, a, b in (op["source"], op["target"]))

    @classmethod
    def execute(cls, op):
        source, target = cls._atoms(op)
        table = sc.hom_upper_bound(sc.Scroll(op["scroll"]), source, target)
        return {"bounds": [list(b) for b in table.bounds], "chi": table.chi}

    @classmethod
    def check(cls, op, raw):
        scroll = sc.Scroll(op["scroll"])
        source, target = cls._atoms(op)
        bounds = raw["bounds"]
        if len(bounds) != scroll.n + 2 or any(not 0 <= lo <= hi for lo, hi in bounds):
            return f"malformed intervals {bounds}"
        if all(lo == hi for lo, hi in bounds):
            alt = sum((-1) ** i * lo for i, (lo, _) in enumerate(bounds))
            if alt != raw["chi"]:
                return f"exact entries {bounds} disagree with chi {raw['chi']}"
        if (source.is_line or target.is_line) and any(lo != hi for lo, hi in bounds):
            return f"line-bundle pair left intervals {bounds}"
        if source == target and bounds[0][0] < 1:
            return f"identity lower bound missing: {bounds[0]}"
        want = cls._chi(scroll, source, target)
        if raw["chi"] != want:
            return f"chi {raw['chi']} differs from the Koszul Euler sum {want}"
        return None

    @staticmethod
    def _chi(scroll, source, target):
        # chi(source^v x target) from the Euler characteristics of the terms of
        # the target's Koszul resolution twisted by the source's dual.
        sd = sc.dual_atom(scroll, source)
        if target.is_line:
            return sc.omega_cohomology(scroll, sd.p, sd.twist + target.twist).chi
        terms = sc.koszul_resolution(scroll, target.p, target.twist)
        if not terms:
            return sc.omega_cohomology(scroll, sd.p, sd.twist + target.twist).chi
        total = 0
        for idx, piece in enumerate(terms):
            twisted = sc.FormalSheaf(tuple((sc.Atom(sd.p, sd.twist + atom.twist), m)
                                           for atom, m in piece.terms))
            total += (-1) ** (len(terms) - 1 - idx) * sc.sheaf_chi(scroll, twisted)
        return total


# -- ulrich ----------------------------------------------------------------------
# classify(type_sheaf(...)) round trips, verify_duality, enumerate_types and
# non-Ulrich negative controls on random scrolls with n = 2..6.

class Ulrich(Workload):
    name = "ulrich"
    digest_prefix = 200
    trace_ops = 1500
    check_sample = 3000
    pass_blocks = 40
    group = 10

    def _scroll(self, n):
        return tuple(sorted(self.rng.randint(1, 3) for _ in range(n + 1)))

    def _type(self, n):
        while True:
            mults = tuple(self.rng.randint(0, 2) for _ in range(n + 1))
            if any(mults):
                return mults

    def blocks(self):
        while True:
            block = []
            for n in range(2, 7):
                block.append({"kind": "roundtrip", "scroll": self._scroll(n), "type": self._type(n)})
                block.append({"kind": "roundtrip", "scroll": self._scroll(n), "type": self._type(n)})
                block.append({"kind": "negative", "scroll": self._scroll(n), "type": self._type(n),
                              "spoil": self.rng.choice(("H", "F", "O"))})
                block.append({"kind": "duality", "scroll": self._scroll(n)})
                block.append({"kind": "enumerate", "scroll": self._scroll(n),
                              "rank": self.rng.randint(1, 2 * n)})
            self.rng.shuffle(block)
            yield block

    @staticmethod
    def execute(op):
        scroll = sc.Scroll(op["scroll"])
        kind = op["kind"]
        if kind == "roundtrip":
            return list(sc.classify(scroll, sheaf=sc.type_sheaf(scroll, op["type"])))
        if kind == "negative":
            sheaf = sc.type_sheaf(scroll, op["type"])
            if op["spoil"] == "H":
                sheaf = sheaf.twist(sc.H)
            elif op["spoil"] == "F":
                sheaf = sheaf.twist(sc.F)
            else:
                sheaf = sheaf + sc.FormalSheaf.of(sc.line_atom(sc.DivClass(0, 0)))
            try:
                return ["ulrich", list(sc.classify(scroll, sheaf=sheaf))]
            except sc.NotUlrichError as exc:
                return ["not-ulrich", exc.verdict.rank, exc.verdict.h0]
        if kind == "duality":
            report = sc.verify_duality(scroll)
            return [report.passed, len(report.violations)]
        infos = sc.enumerate_types(scroll, rank=op["rank"])
        return [[list(t.multiplicities), t.rank] for t in infos]

    @staticmethod
    def check(op, raw):
        kind = op["kind"]
        if kind == "roundtrip":
            return None if raw == list(op["type"]) else f"round trip gave {raw}"
        if kind == "negative":
            return None if raw[0] == "not-ulrich" else f"negative control classified as {raw}"
        if kind == "duality":
            return None if raw == [True, 0] else f"duality report {raw}"
        n, rank = len(op["scroll"]) - 1, op["rank"]
        weights = [comb(n, i) for i in range(n + 1)]
        types = [t for t, _ in raw]
        if any(r != rank or len(t) != n + 1 or sum(w * a for w, a in zip(weights, t)) != rank
               for t, r in raw):
            return "enumerated type with the wrong rank"
        if types != sorted(types) or len(set(map(tuple, types))) != len(types):
            return "enumerated types not strictly ascending"
        want = _count_types(weights, rank)
        return None if len(types) == want else f"{len(types)} types, expected {want}"


def _count_types(weights, rank):
    ways = [1] + [0] * rank
    for w in weights:
        for r in range(w, rank + 1):
            ways[r] += ways[r - w]
    return ways[rank]


# -- cli ------------------------------------------------------------------------
# One `python -m scrollcoh.cli` subprocess per operation: every command in
# every format on small inputs, plus malformed inputs that must exit 1.

_FORMATS = ("json", "md", "latex")
_CLI_SCROLLS = ((1, 1), (1, 2), (2, 3), (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 1, 1), (1, 1, 2, 2))
_VERIFY_SCROLLS = ((1, 1), (1, 2), (1, 1, 1), (1, 1, 2))
_SUITES = ("duality", "blocks", "homvanish", "chi-oracle")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


class Cli(Workload):
    name = "cli"
    digest_prefix = 24
    trace_ops = 600
    check_sample = 10 ** 9
    runs_subprocesses = True
    hashseed_sample = 6  # valid operations re-run under two PYTHONHASHSEED values

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.profiles = 0

    def _profile(self, payload) -> str:
        path = os.path.join(self.workdir, f"profile{self.profiles}.json")
        self.profiles += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def _div(self, argv):
        a, b = self.rng.randint(-6, 6), self.rng.randint(-6, 6)
        if self.rng.random() < 0.5:
            return argv + [f"--pair={a + b},{a}"]
        return argv + [f"--div={a}H{b:+d}F"]

    def _type(self, n):
        while True:
            mults = [self.rng.randint(0, 2) for _ in range(n + 1)]
            if any(mults):
                return mults

    def _diagonal_profile(self, n) -> str:
        slots = [1] + [2 * i for i in range(1, n + 1)]
        mults = self._type(n)
        return self._profile({"n": n, "entries": [{"j": j, "q": j, "h": a}
                                                  for j, a in zip(slots, mults) if a]})

    def _valid(self, command, fmt):
        degs = self.rng.choice(_CLI_SCROLLS)
        n = len(degs) - 1
        scroll = ["--scroll", _csv(degs)]
        if command == "line-coh":
            argv = self._div(["line-coh"] + scroll)
        elif command == "omega-coh":
            argv = self._div(["omega-coh"] + scroll + ["--p", str(self.rng.randint(0, n))])
        elif command == "blocks":
            argv = ["blocks"] + scroll
        elif command in ("beilinson", "classify"):
            if self.rng.random() < 0.5:
                argv = [command] + scroll + ["--type", _csv(self._type(n))]
            else:
                argv = [command] + scroll + ["--profile", self._diagonal_profile(n)]
        elif command == "enumerate":
            argv = ["enumerate"] + scroll + ["--rank", str(self.rng.randint(1, 2 * n + 2))]
        elif command == "verify":
            argv = ["verify", "--scroll", _csv(self.rng.choice(_VERIFY_SCROLLS)),
                    "--suite", self.rng.choice(_SUITES)]
        else:
            dim = self.rng.randint(2, 3)
            if self.rng.random() < 0.5:
                argv = ["veronese", "--dim", str(dim), "--p", str(self.rng.randint(0, dim)),
                        f"--twist={self.rng.randint(-3, 3)}"]
            else:
                argv = ["veronese", "--dim", str(dim), "--profile",
                        self._profile({"entries": [{"j": 1, "q": 1, "h": self.rng.randint(1, 3)}]})]
        return {"argv": argv + ["--format", fmt], "expect": 0}

    def _malformed(self):
        degs = self.rng.choice(_CLI_SCROLLS)
        n = len(degs) - 1
        scroll = ["--scroll", _csv(degs)]
        choice = self.rng.randrange(8)
        if choice == 0:
            argv = ["line-coh", "--scroll", f"{degs[0]},x", "--div", "H"]
        elif choice == 1:
            argv = ["line-coh", "--scroll", f"0,{degs[-1]}", "--div", "H"]
        elif choice == 2:
            argv = ["line-coh"] + scroll + ["--div", f"{self.rng.randint(1, 5)}Q"]
        elif choice == 3:
            argv = ["omega-coh"] + scroll + ["--pair", "1,1"]
        elif choice == 4:
            argv = ["classify"] + scroll + ["--type", _csv([1] * (n + 2))]
        elif choice == 5:
            argv = ["classify"] + scroll + ["--profile", os.path.join(self.workdir, "missing.json")]
        elif choice == 6:
            argv = ["beilinson"] + scroll + ["--profile", self._profile(
                {"entries": [{"j": 2 * n + 2, "q": 0, "h": 1}]})]
        else:
            argv = ["classify"] + scroll + ["--profile", self._profile(
                {"entries": [{"j": 1, "q": 0, "h": 1}]})]
        return {"argv": argv, "expect": 1}

    def blocks(self):
        commands = ("line-coh", "omega-coh", "blocks", "beilinson", "classify",
                    "enumerate", "verify", "veronese")
        while True:
            block = [self._valid(c, f) for c in commands for f in _FORMATS]
            block += [self._malformed() for _ in range(4)]
            self.rng.shuffle(block)
            yield block

    @staticmethod
    def execute(op, hashseed=None):
        env = dict(os.environ)
        if hashseed is not None:
            env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run([sys.executable, "-m", "scrollcoh.cli", *op["argv"]],
                              capture_output=True, text=True, env=env, timeout=120)
        return [proc.returncode, proc.stdout, proc.stderr]

    @staticmethod
    def execute_in_process(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sc_cli.main(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code
        return [code, out.getvalue(), err.getvalue()]

    @staticmethod
    def result_repr(raw):
        return [raw[0], hashlib.sha256(raw[1].encode()).hexdigest()]

    @staticmethod
    def check(op, raw):
        code, out, err = raw
        if "Traceback" in err:
            return "printed a traceback: " + err.strip().splitlines()[-1]
        if code != op["expect"]:
            return f"exit code {code}, expected {op['expect']}"
        if code != 0:
            return None if err and not out else "malformed input without a clean error"
        argv = op["argv"]
        if argv[-1] == "json":
            try:
                payload = json.loads(out)
            except json.JSONDecodeError:
                return "stdout is not JSON"
            if payload.get("command") != argv[0]:
                return f"payload names command {payload.get('command')!r}"
        elif not out.strip():
            return "empty output"
        return None

    def after_timed(self, ops, raws, errors):
        """Byte-identical stdout under two PYTHONHASHSEED values for the first
        valid operations; then the known defect, kept outside the stream: a
        profile JSON that is a list should exit 1 cleanly."""
        valid = [i for i, op in enumerate(ops) if op["expect"] == 0 and i not in errors]
        for i in valid[:self.hashseed_sample]:
            for seed in ("0", "1"):
                if self.execute(ops[i], hashseed=seed)[1] != raws[i][1]:
                    errors[i] = f"stdout differs under PYTHONHASHSEED={seed}"
        defect = {"argv": ["classify", "--scroll", "1,2", "--profile", self._profile([])],
                  "expect": 1}
        return [{"argv": defect["argv"], "problem": self.check(defect, self.execute(defect))}]


WORKLOADS = {w.name: w for w in (Pushforward, Chase, Ulrich, Cli)}
