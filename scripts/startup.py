#!/usr/bin/env python3
"""Start-up cost of the idseval CLI: per verb, and the parts of its import.

    python3 scripts/startup.py --runs 9

Runs ``python -B -m idseval.cli VERB --help`` (the package under ``src/`` of
this checkout) ``--runs`` times per verb, verbs taken in turn, each a fresh
process, and prints one JSON line per verb with the median wall time. Then
it starts ``--runs`` fresh processes that import numpy and time an
in-process ``import idseval.cli``, and prints one JSON line of medians split
into three parts:

- ``compile_ms``: compiling idseval's sources, which every start-up pays
  while no bytecode is written (``-B``, as under ``PYTHONDONTWRITEBYTECODE``);
- ``classes_ms``: creating the classes idseval defines, metaclasses such as
  ``NamedTuple``'s and ``Enum``'s included, plus ``dataclasses`` generating
  methods for a class that uses it;
- ``rest_ms``: the remainder, mostly module bodies and the standard modules
  they import.

Last it prints ``teardown_ms``, the cost of the interpreter's finalization
(module teardown, the last garbage collection) after ``import idseval.cli``:
the median wall time of ``--runs`` fresh ``python -B -c "import idseval.cli"``
processes that end normally, minus that of ``--runs`` that end with
``os._exit(0)``, the two kinds started in turn. The CLI's own runs skip this
cost (``idseval.cli.run``).

A ``__pycache__`` under ``src/idseval`` would hide the compile cost, so the
script says so on stderr when it finds one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VERBS = ("evaluate", "compare", "timeline", "roc", "baseline")

# Run in a fresh interpreter with the package directory as argv[1]; prints
# the import's parts in seconds as one JSON object.
PROBE = r"""
import builtins, importlib.machinery, importlib.util, json, sys, time
import numpy

PACKAGE = sys.argv[1]
spent = {"compile": 0.0, "classes": 0.0}
active = set()


def timed(part, function, ours):
    def wrapper(*args, **kwargs):
        if part in active or not ours(*args):
            return function(*args, **kwargs)
        active.add(part)
        began = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[part] += time.perf_counter() - began
            active.discard(part)
    return wrapper


def ours_class(first, *rest):
    return getattr(first, "__module__", "").startswith("idseval")


class PatchDataclasses:
    # Times dataclasses._process_class once something imports dataclasses.
    def find_spec(self, name, path=None, target=None):
        if name != "dataclasses":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def run(module):
            exec_module(module)
            module._process_class = timed("classes", module._process_class, ours_class)

        spec.loader.exec_module = run
        return spec


loader = importlib.machinery.SourceFileLoader
loader.source_to_code = timed(
    "compile", loader.source_to_code, lambda self, data, path, *rest: str(path).startswith(PACKAGE)
)
builtins.__build_class__ = timed("classes", builtins.__build_class__, ours_class)
sys.meta_path.insert(0, PatchDataclasses())
began = time.perf_counter()
import idseval.cli
total = time.perf_counter() - began
print(json.dumps({"import": total, **spent}))
"""


def _median_ms(values: list[float]) -> float:
    return round(statistics.median(values) * 1000.0, 1)


def _run(argv: list[str]) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    began = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - began
    if done.returncode != 0:
        raise SystemExit(f"startup: {' '.join(argv)} exited {done.returncode}\n{done.stderr}")
    return wall, done.stdout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh processes per median")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if (SRC / "idseval" / "__pycache__").exists():
        print("startup: src/idseval/__pycache__ exists; compile times read low", file=sys.stderr)

    walls: dict[str, list[float]] = {verb: [] for verb in VERBS}
    for _ in range(args.runs):
        for verb in VERBS:
            walls[verb].append(_run([sys.executable, "-B", "-m", "idseval.cli", verb, "--help"])[0])
    for verb in VERBS:
        row = {"verb": verb, "help_wall_ms": _median_ms(walls[verb]), "runs": args.runs}
        print(json.dumps(row))

    parts: dict[str, list[float]] = {"import": [], "compile": [], "classes": [], "rest": []}
    package = str(SRC / "idseval")
    for _ in range(args.runs):
        probe = json.loads(_run([sys.executable, "-B", "-c", PROBE, package])[1])
        probe["rest"] = probe["import"] - probe["compile"] - probe["classes"]
        for part, values in parts.items():
            values.append(probe[part])
    split = {f"{part}_ms": _median_ms(values) for part, values in parts.items()}
    print(json.dumps({"import_idseval_cli_after_numpy": split, "runs": args.runs}))

    endings = {"normal": "import idseval.cli", "os_exit": "import os, idseval.cli; os._exit(0)"}
    walls = {ending: [] for ending in endings}
    for run in range(args.runs):
        for ending in sorted(endings, reverse=run % 2 == 1):  # alternate which goes first
            walls[ending].append(_run([sys.executable, "-B", "-c", endings[ending]])[0])
    teardown = _median_ms(walls["normal"]) - _median_ms(walls["os_exit"])
    print(json.dumps({"teardown_ms": round(teardown, 1), "runs": args.runs}))


if __name__ == "__main__":
    main()
