#!/usr/bin/env python3
"""idseval benchmark: the CLI end to end, and a traced in-process run per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --selfcheck --seeds 1,2,3 --seconds S
    python3 benchmarks/run.py --workload NAME --smoke ...   (tiny inputs, for tests)

Run from anywhere; paths resolve from this file. The program under test is
``src/idseval`` of the same checkout.

``--trace 0`` generates the workload's seeded inputs, then runs the real
``idseval`` CLI as a subprocess, one run at a time, for ``--seconds``. Each
run is checked against references computed without the program
(``checks.py``); a run that exits non-zero, prints a traceback or fails a
check counts as failed. CPU time and peak RSS come from the rusage of that
child alone (``os.wait4`` in ``launch.py``). ``setup_s`` is the median wall
time of ``python -m idseval.cli <verb> --help``, which every invocation pays.

The speed of a core on a shared machine drifts by tens of percent within
minutes. ``launch.py`` therefore times a fixed loop around every child, and
the reported ``wall_s``, ``cpu_s``, ``points_per_s`` and ``setup_s`` are the
child's times restated at the speed where that loop takes ``PROBE_REF_S``.
The figures as measured are printed too. ``failed_frac`` is printed but is
not a BENCHMARK.json metric: it is 0 whenever the program is correct, and the
JSON line carries it as ``failed`` / ``attempted``.

``--trace 1`` calls ``idseval.cli.main(argv)`` in-process, alternating an
untraced and a traced run for ``--seconds``, and reports the per-layer spans
and counts of ``spans.py`` (medians over the traced runs) plus the tracing
overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people. Metric names,
units and bounds are those of ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
SETUP_RUNS = 5
# Seconds launch.py's probe takes on an unloaded core of the reference machine
# (2.1 GHz x86-64, Python 3.11); reported times are restated at that speed.
PROBE_REF_S = 0.015
SMOKE_SIZE = (6000, 12)


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    points: int
    scenarios: int
    detector_file: str  # generated alert file: "lagged" or "scored"
    baselines: tuple[str, ...] = ()
    options: tuple[str, ...] = ()

    @property
    def lanes(self) -> int:
        return 1 + len(self.baselines)


# Sizes and why each workload exists are recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("evaluate-sparse-1m", "evaluate", 1_000_000, 200, "lagged"),
        Workload(
            "compare-dense-300k", "compare", 300_000, 60, "lagged",
            baselines=("baseline:random:p=0.5:seed=7", "baseline:never"),
            options=("--metrics", "f1,etapr,affiliation,detection-delay", "--rank-by", "etaf1"),
        ),
        Workload("roc-scored-300k", "roc", 300_000, 60, "scored", options=("--auto",)),
        Workload(
            "timeline-dense-300k", "timeline", 300_000, 60, "lagged",
            baselines=("baseline:random:p=0.5:seed=7",),
            options=("--min-width", "60s"),
        ),
    )
}


def cli_argv(workload: Workload, inputs, outdir: Path) -> list[str]:
    argv = [workload.verb, "--labels", str(inputs.labels_path),
            "--alerts", str(inputs.alerts_path(workload.detector_file))]
    for baseline in workload.baselines:
        argv += ["--detector", baseline]
    return argv + list(workload.options) + ["--out", str(outdir)]


# -- references and checks ----------------------------------------------------


def _cached_cells(inputs, key: str, compute) -> dict[str, object]:
    """Reference cells for this seed, computed once and kept with the inputs."""
    path = inputs.directory / f"expected-{key}.json"
    if path.exists():
        raw = json.loads(path.read_text())
        return {k: Fraction(v) if isinstance(v, str) else v for k, v in raw.items()}
    cells = compute()
    encoded = {k: str(v) if isinstance(v, Fraction) else v for k, v in cells.items()}
    path.write_text(json.dumps(encoded, sort_keys=True))
    return cells


class Checker:
    """Checks every run of one workload against references and the first run's bytes."""

    def __init__(self, workload: Workload, inputs) -> None:
        import checks
        import gen
        import numpy as np

        self.workload, self.inputs = workload, inputs
        self.source_sha = checks.sha256(inputs.alerts_path(workload.detector_file))
        self.first: tuple[dict[str, str], str] | None = None
        codes = inputs.codes
        lanes = {workload.detector_file: inputs.detectors[workload.detector_file]}
        for baseline in workload.baselines:
            lanes[baseline] = (
                gen.random_baseline(len(codes)) if baseline == gen.RANDOM_BASELINE
                else np.zeros(len(codes), dtype=bool)
            )
        self.lanes = lanes
        if workload.verb == "evaluate":
            values = lanes[workload.detector_file]
            self.expected = {
                workload.detector_file: {
                    **checks.point_cells(codes, values),
                    **checks.undetected_cells(codes, values),
                }
            }
        elif workload.verb == "compare":
            self.expected = {}
            for name, values in lanes.items():
                slow = _cached_cells(
                    inputs, name.replace(":", "_"),
                    lambda values=values: checks.time_aware_cells(codes, values),
                )
                cells = {"f1": checks.point_cells(codes, values)["f1"], **slow}
                cells["undetected-scenarios"] = checks.undetected_cells(codes, values)[
                    "undetected-scenarios"
                ]
                self.expected[name] = cells
            self.order = checks.rank_order(list(lanes), self.expected, "etaf1")
        elif workload.verb == "roc":
            self.reference = checks.roc_reference(codes, lanes[workload.detector_file])
        else:
            runs = {name: gen.runs_of(values) for name, values in lanes.items()}
            # --min-width 60s at one-second ticks widens every run shorter than 60 ticks.
            self.widened = sum(1 for lane in runs.values() for s, e in lane if e - s + 1 < 60)
            self.rects = 1 + (1 + len(lanes)) + len(checks.scenario_runs(codes)) + sum(
                len(lane) for lane in runs.values()
            )

    def problems(self, outdir: Path, stdout: str) -> list[str]:
        import checks

        hashes = checks.artifact_hashes(outdir)
        if self.first is not None:
            if (hashes, stdout) != self.first:
                return ["artifacts or stdout differ from the first run of this seed"]
            return []
        copy = f"alerts/{self.workload.detector_file}.jsonl"
        problems = []
        if hashes.get(copy) != self.source_sha:
            problems.append(f"{copy} is not a byte-identical copy of the input")
        verb = self.workload.verb
        if verb in ("evaluate", "compare"):
            target = outdir / ("report.md" if verb == "evaluate" else "comparison.md")
            text = target.read_text(encoding="utf-8")
            if text != stdout:
                problems.append(f"stdout differs from {target.name}")
            order = list(self.expected) if verb == "evaluate" else self.order
            problems += checks.table_problems(text, self.expected, order)
        elif verb == "roc":
            text = (outdir / "roc.csv").read_text(encoding="utf-8")
            problems += checks.roc_problems(stdout, text, self.reference)
        else:
            want = (f"wrote {outdir / 'timeline.svg'} ({1 + len(self.lanes)} lanes, "
                    f"{self.widened} alarms widened)\n")
            if stdout != want:
                problems.append(f"timeline stdout {stdout!r} != {want!r}")
            rects = (outdir / "timeline.svg").read_text(encoding="utf-8").count("<rect")
            if rects != self.rects:
                problems.append(f"timeline.svg has {rects} rects, expected {self.rects}")
        if not problems:
            self.first = (hashes, stdout)
        return problems


# -- end-to-end runs ----------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    probe_s: float  # launch.py's speed probe around this child
    ok: bool
    stdout: str
    why: str = ""

    @property
    def scale(self) -> float:
        """Factor that restates this child's times at the reference machine speed."""
        return PROBE_REF_S / self.probe_s


class Launcher:
    """The small helper process (launch.py) that spawns and reaps every measured child."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def close(self) -> None:
        self.process.stdin.close()
        self.process.stdout.close()
        self.process.wait(timeout=60)

    def run(self, argv: list[str], scratch: Path) -> Sample:
        """Run ``python -m idseval.cli ARGV`` to completion and check how it ended."""
        out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
        job = {"argv": [sys.executable, "-m", "idseval.cli", *argv],
               "stdout": str(out_path), "stderr": str(err_path)}
        self.process.stdin.write(json.dumps(job) + "\n")
        self.process.stdin.flush()
        reply = json.loads(self.process.stdout.readline())
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        why = ""
        if reply["exit_code"] != 0:
            why = f"exit code {reply['exit_code']}: {stderr.strip()[-300:]}"
        elif "Traceback (most recent call last)" in stderr:
            why = "traceback on stderr"
        return Sample(
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            peak_rss_mb=reply["maxrss_kib"] / 1024.0,  # ru_maxrss is in KiB on Linux
            probe_s=reply["probe_s"],
            ok=not why,
            stdout=stdout,
            why=why,
        )


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def make_checker(workload: Workload, inputs, log) -> Checker:
    began = time.perf_counter()
    checker = Checker(workload, inputs)
    log(f"references ready in {time.perf_counter() - began:.2f} s (not a metric)")
    return checker


def end_to_end(
    workload: Workload, inputs, seconds: float, log, launcher: Launcher
) -> tuple[dict, int, int]:
    checker = make_checker(workload, inputs, log)
    scratch = _fresh(CACHE / "run" / workload.name)
    outdir = scratch / "out"
    attempted = failed = 0

    def record(sample: Sample, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not sample.ok:
            failed += 1
            log(f"FAILED {what}: {sample.why}")

    launcher.run([workload.verb, "--help"], scratch)  # compiles bytecode; not timed
    setup: list[Sample] = []
    for _ in range(SETUP_RUNS):
        sample = launcher.run([workload.verb, "--help"], scratch)
        if sample.ok and not sample.stdout.startswith("usage:"):
            sample.ok, sample.why = False, "--help printed no usage"
        record(sample, "--help")
        setup.append(sample)

    samples: list[Sample] = []
    began = time.perf_counter()
    while not samples or time.perf_counter() - began < seconds:
        _fresh(outdir)
        sample = launcher.run(cli_argv(workload, inputs, outdir), scratch)
        if sample.ok:
            problems = checker.problems(outdir, sample.stdout)
            if problems:
                sample.ok, sample.why = False, "; ".join(problems[:5])
        record(sample, f"run {len(samples) + 1}")
        samples.append(sample)

    points = inputs.points * (workload.lanes if workload.verb != "roc" else 1)
    probes = [s.probe_s for s in setup + samples]
    log(f"{len(samples)} runs in {time.perf_counter() - began:.1f} s, "
        f"{points} labeled points x detectors per run; setup: {SETUP_RUNS} --help runs; "
        f"speed probe {min(probes) * 1e3:.1f}-{max(probes) * 1e3:.1f} ms "
        f"(reference {PROBE_REF_S * 1e3:.0f} ms)")
    log("every run (wall s as measured / probe ms): " + ", ".join(
        f"{s.wall_s:.3f}/{s.probe_s * 1e3:.1f}" for s in samples))
    metrics = {}
    for scaled in (False, True):
        def times(group: list[Sample], field: str) -> list[float]:
            return [getattr(s, field) * (s.scale if scaled else 1.0) for s in group]

        walls = times(samples, "wall_s")
        series = {
            "wall_s": walls,
            "points_per_s": [points / w for w in walls],
            "cpu_s": times(samples, "cpu_s"),
            "peak_rss_mb": [s.peak_rss_mb for s in samples],
            "setup_s": times(setup, "wall_s"),
        }
        log("at the reference speed (reported):" if scaled else "as measured:")
        for name, values in series.items():
            q1, q2, q3 = quartiles(values)
            log(f"  {name:<13} {q2:14.4f} {UNITS[name]:<9} q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
            if scaled:
                metrics[name] = q2
    log(f"  {'failed_frac':<13} {failed / attempted:14.4f} {'ratio':<9} ({failed} of {attempted} runs)")
    return metrics, attempted, failed


# -- traced in-process runs ---------------------------------------------------


def traced(workload: Workload, inputs, seconds: float, log) -> tuple[dict, int, int]:
    from idseval import cli

    from spans import Tracer

    checker = make_checker(workload, inputs, log)
    outdir = CACHE / "run" / workload.name / "out"
    attempted = failed = 0
    plain: list[float] = []
    layers: list[dict[str, float]] = []
    tracer = None

    def one_run(run_tracer: Tracer | None) -> float:
        nonlocal attempted, failed
        _fresh(outdir)
        argv = cli_argv(workload, inputs, outdir)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            began = time.perf_counter()
            if run_tracer is None:
                code = cli.main(argv)
            else:
                with run_tracer.installed():
                    code = run_tracer.wrap("cli.main", cli.main)(argv)
            wall = time.perf_counter() - began
        attempted += 1
        problems = [f"exit code {code}: {stderr.getvalue()[-300:]}"] if code else []
        problems = problems or checker.problems(outdir, stdout.getvalue())
        if problems:
            failed += 1
            log(f"FAILED {'traced' if run_tracer else 'untraced'} run: {'; '.join(problems[:5])}")
        return wall

    began = time.perf_counter()
    while not layers or time.perf_counter() - began < seconds:
        plain.append(one_run(None))
        tracer = Tracer()
        one_run(tracer)
        layers.append(tracer.layer_metrics())

    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name != "trace.overhead_frac":
            metrics[name] = statistics.median(run.get(name, 0.0) for run in layers)
    untraced = statistics.median(plain)
    metrics["trace.overhead_frac"] = (metrics["cli.main.s"] - untraced) / untraced

    trace_file = _fresh(CACHE / "trace" / workload.name) / f"spans-seed{inputs.seed}.json"
    trace_file.write_text(json.dumps(tracer.dump()))
    log(f"{len(layers)} traced + {len(plain)} untraced in-process runs; "
        f"untraced median {untraced:.4f} s; last run's spans in {trace_file}")
    per_detector = {k: v for k, v in layers[-1].items() if k.startswith("model.alert_runs[")}
    log(f"  alert runs by detector: {per_detector}")
    for name, value in metrics.items():
        log(f"  {name:<36} {value:16.6f} {UNITS[name]}")
    return metrics, attempted, failed


# -- stability self-check -----------------------------------------------------


def selfcheck(names: list[str], seeds: list[int], seconds: float, log) -> int:
    """Two independent sets of runs, workload order alternating; do the medians agree?"""
    values: dict[tuple[int, str, str], list[float]] = {}
    all_correct = True
    for index in range(2):
        order = names if index == 0 else names[::-1]
        for seed in seeds:
            for name in order:
                seed_used = seed if index == 0 else seed + 1000
                command = [sys.executable, str(Path(__file__)), "--workload", name,
                           "--seed", str(seed_used), "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(command, capture_output=True, text=True, timeout=900)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                log(f"set {index + 1} seed {seed_used} {name}: correct={result['correct']} "
                    + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()))
                for metric, entry in result["metrics"].items():
                    values.setdefault((index, name, metric), []).append(entry["value"])
                all_correct = all_correct and result["correct"]
            order = order[::-1]
    agree = all_correct
    for name in names:
        log(f"{name}:")
        for spec in SPEC["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            a, b = values[(0, name, metric)], values[(1, name, metric)]
            qa, qb, both = quartiles(a), quartiles(b), quartiles(a + b)
            spread = (both[2] - both[0]) / both[1]
            drift = abs(qb[1] - qa[1]) / qa[1]
            ok = drift <= bound and (metric == "setup_s" or spread <= bound)
            agree = agree and ok
            log(f"  {metric:<13} set1 {qa[1]:.4f} [{qa[0]:.4f}, {qa[2]:.4f}]  "
                f"set2 {qb[1]:.4f} [{qb[0]:.4f}, {qb[2]:.4f}]  drift {drift:.3f} "
                f"spread {spread:.3f} bound {bound}  {'ok' if ok else 'DISAGREE'}")
    return 0 if agree else 1


# -- entry point ---------------------------------------------------------------


def measure(workload: Workload, args, seconds: float, log, launcher: Launcher | None):
    import gen

    points, scenarios = SMOKE_SIZE if args.smoke else (workload.points, workload.scenarios)
    inputs = gen.ensure_inputs(CACHE / "inputs", args.seed, points, scenarios,
                               (workload.detector_file,))
    log(f"{workload.name} seed {args.seed}: inputs {'cached' if inputs.cache_hit else 'generated'} "
        f"in {inputs.gen_s:.2f} s (not a metric): {json.dumps(inputs.properties())}")
    if launcher is None:
        return traced(workload, inputs, seconds, log)
    return end_to_end(workload, inputs, seconds, log, launcher)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of --trace 0 runs over --seeds; compare their medians")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="seeds for --selfcheck")
    args = parser.parse_args(argv)

    if not (SRC / "idseval").is_dir() or not (ROOT / "tests" / "oracles").is_dir():
        print(f"error: no idseval checkout at {ROOT} (src/idseval and tests/oracles needed)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(HERE)]
    seconds = args.seconds if args.seconds is not None else SPEC["run_seconds"]

    def log(line: str) -> None:
        print(line, flush=True)

    if args.selfcheck:
        return selfcheck(sorted(WORKLOADS), [int(s) for s in args.seeds.split(",")], seconds, log)
    if args.workload is None:
        parser.error("--workload is required")

    # Start the launcher before numpy, the inputs or the references are loaded.
    launcher = None if args.trace else Launcher()
    try:
        metrics, attempted, failed = measure(WORKLOADS[args.workload], args, seconds, log, launcher)
    finally:
        if launcher is not None:
            launcher.close()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}
UNITS = {m["name"]: m["unit"] for m in SPEC.get("end_to_end", []) + SPEC.get("per_layer", [])}

if __name__ == "__main__":
    raise SystemExit(main())
