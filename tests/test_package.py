"""The package namespace: lazy exports, what each import path loads, the
layers a tracer finds after the CLI import, the caches the benchmark clears,
and first use from threads.

Every check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = sorted(p.stem for p in (SRC / "scrollcoh").glob("[!_]*.py"))


def fresh(code, *args):
    """Run ``code`` in a fresh interpreter; its last line of output, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


ADDED = """
import json, sys
bare = set(sys.modules)
{}
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


def test_package_import_loads_no_submodule():
    assert fresh(ADDED.format("import scrollcoh")) == ["scrollcoh"]


def test_cli_without_slopes_loads_no_fractions():
    run = ("import scrollcoh.cli\n"
           "scrollcoh.cli.main(['line-coh', '--scroll', '1,2', '--div', '2H'])")
    added = fresh(ADDED.format(run))
    assert "scrollcoh.cli" in added and "scrollcoh.relative" in added
    assert not set(added) & {"fractions", "decimal", "numbers"}


def test_cli_loads_verify_only_for_the_verify_command():
    run = ("import scrollcoh.cli\n"
           "scrollcoh.cli.main(['line-coh', '--scroll', '1,2', '--div', '2H'])")
    assert "scrollcoh.verify" not in fresh(ADDED.format(run))
    run = ("import scrollcoh.cli\n"
           "scrollcoh.cli.main(['verify', '--suite', 'blocks', '--scroll', '1,2'])")
    assert "scrollcoh.verify" in fresh(ADDED.format(run))


def test_exports_are_the_defining_modules_objects():
    code = """
import importlib, json, scrollcoh
listed = dir(scrollcoh)
wrong = [name for name in scrollcoh.__all__
         if getattr(importlib.import_module(getattr(scrollcoh, name).__module__), name)
         is not getattr(scrollcoh, name)]
owners = {getattr(scrollcoh, name).__module__ for name in scrollcoh.__all__}
print(json.dumps([wrong, [n for n in scrollcoh.__all__ if n not in listed], sorted(owners)]))
"""
    wrong, unlisted, owners = fresh(code)
    assert not wrong and not unlisted
    assert all(owner.startswith("scrollcoh.") for owner in owners)


def test_submodules_resolve_as_attributes():
    code = """
import json, sys, scrollcoh
names = sys.argv[1:]
print(json.dumps([[getattr(scrollcoh, n) is sys.modules["scrollcoh." + n], n in dir(scrollcoh)]
                  for n in names]))
"""
    assert fresh(code, *SUBMODULES) == [[True, True]] * len(SUBMODULES)
    assert {"cli", "p1", "verify"} <= set(SUBMODULES)


def test_star_import_and_unknown_names():
    code = """
import json, scrollcoh
ns = {}
exec("from scrollcoh import *", ns)
try:
    scrollcoh.no_such_name
    raised = False
except AttributeError:
    raised = True
try:
    exec("from scrollcoh import no_such_name", {})
    refused = False
except ImportError:
    refused = True
print(json.dumps([sorted(set(scrollcoh.__all__) - set(ns)), len(scrollcoh.__all__),
                  raised, refused]))
"""
    missing, count, raised, refused = fresh(code)
    assert missing == [] and count == 57
    assert raised and refused


def test_tracer_finds_every_layer_after_the_cli_import():
    # perfbench/tracer.py reads each layer from sys.modules after the worker's
    # imports; a name resolved afterwards is the tracer's wrapped function
    code = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
from tracer import LAYERS, Tracer
import scrollcoh
from scrollcoh import p1, relative, scroll, cli
missing = [layer for layer in LAYERS if "scrollcoh." + layer not in sys.modules]
tracer = Tracer()
tracer.install()
scrollcoh.omega_cohomology(scrollcoh.Scroll((1, 2)), 1, scrollcoh.DivClass(2, 1))
print(json.dumps([missing, tracer.calls["relative"]]))
"""
    missing, relative_calls = fresh(code)
    assert missing == []
    assert relative_calls >= 1


def test_benchmark_caches_are_functools_caches():
    # perfbench/worker.py clears these before every timed pass and reports
    # their counters; a cache renamed or dropped would break only that run
    code = f"""
import functools, json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import run, worker
bad = [name for name, fn in worker.CACHES.items()
       if not (isinstance(fn, functools._lru_cache_wrapper)
               and callable(getattr(fn, "cache_info", None))
               and callable(getattr(fn, "cache_clear", None)))]
print(json.dumps([bad, sorted(worker.CACHES), sorted(run.CACHES)]))
"""
    bad, names, reported = fresh(code)
    assert bad == []
    assert names == reported


def test_benchmark_clears_every_cache_of_the_package():
    # a functools cache that worker.CACHES misses survives the per-pass
    # cache_clear, so every timed pass after the first would run warm
    code = f"""
import functools, importlib, json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import worker
found = {{}}
for name in {SUBMODULES!r}:
    module = importlib.import_module("scrollcoh." + name)
    for obj in vars(module).values():
        if isinstance(obj, functools._lru_cache_wrapper):
            found[id(obj)] = obj.__module__ + "." + obj.__qualname__
named = {{id(fn): name for name, fn in worker.CACHES.items()}}
print(json.dumps([sorted(found[k] for k in found.keys() - named.keys()),
                  sorted(named[k] for k in named.keys() - found.keys())]))
"""
    unnamed, unfound = fresh(code)
    assert unnamed == [] and unfound == []


CONCURRENT = """
import json, sys, threading
import scrollcoh as sc

OMEGA = [(degs, p, a, b) for degs in ((1, 2), (1, 1, 2), (1, 2, 3), (2, 2, 3, 3))
         for p in range(len(degs)) for a in (-3, 0, 2, 4) for b in (-2, 1)]
TYPES = [((1, 2), (1, 1)), ((1, 1, 2), (1, 1, 0)), ((1, 1, 2), (0, 2, 1)),
         ((1, 2, 3), (2, 0, 1)), ((1, 1, 1, 2), (1, 0, 1, 1))]
QUERIES = [("omega", q) for q in OMEGA] + [("classify", q) for q in TYPES]


def answer(kind, query):
    if kind == "omega":
        degs, p, a, b = query
        return list(sc.omega_cohomology(sc.Scroll(degs), p, sc.DivClass(a, b)).values())
    degs, mults = query
    scroll = sc.Scroll(degs)
    return list(sc.classify(scroll, sheaf=sc.type_sheaf(scroll, mults)))


def work(k, barrier, results, resolved, errors):
    try:
        barrier.wait(timeout=60)
        resolved[k] = [id(getattr(sc, name)) for name in sc.__all__]
        order = list(range(len(QUERIES)))
        order = order[k * 7:] + order[:k * 7]
        results[k] = {i: answer(*QUERIES[i]) for i in order}
    except BaseException as exc:
        errors.append(repr(exc))
        raise


threads = int(sys.argv[1])
barrier = threading.Barrier(threads)
results, resolved, errors = [None] * threads, [None] * threads, []
sys.setswitchinterval(1e-5)
workers = [threading.Thread(target=work, args=(k, barrier, results, resolved, errors))
           for k in range(threads)]
for t in workers:
    t.start()
for t in workers:
    t.join(timeout=120)
alive = sum(t.is_alive() for t in workers)
same_objects = all(r == resolved[0] for r in resolved)
print(json.dumps({"alive": alive, "errors": errors, "same_objects": same_objects,
                  "results": [[r[i] for i in range(len(QUERIES))] if r else None
                              for r in results]}))
"""


def test_first_use_from_four_threads_matches_a_serial_run():
    serial = fresh(CONCURRENT, "1")
    concurrent = fresh(CONCURRENT, "4")
    assert serial["errors"] == [] and concurrent["errors"] == []
    assert concurrent["alive"] == 0 and concurrent["same_objects"]
    (expected,) = serial["results"]
    assert expected and len(concurrent["results"]) == 4
    for got in concurrent["results"]:
        assert got == expected
