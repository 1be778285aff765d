"""Expected outputs computed without the program under test, and the checks.

Counts and point-based ratios come from numpy over the generated arrays.
eTaPR and affiliation come from the brute-force references in
``tests/oracles``. The affiliation reference integrates every alert piece of
a zone in exact rationals, which takes minutes per zone on a dense lane, so
``affiliation_reference`` feeds the same reference integrands only what each
integral depends on (see its docstring); on sparse lanes the smoke tests
require it to equal ``affiliation_oracle`` exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from gen import runs_of

UNDEFINED = "—"
# Tables print three decimals; a cell may differ from the reference by half a unit.
CELL_TOL = 5e-4 + 1e-9


def scenario_runs(codes: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of one attack type, as inclusive index intervals."""
    edges = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges - 1, [len(codes) - 1]))
    return [(int(s), int(e)) for s, e in zip(starts, ends) if codes[s] > 0]


def detected_flags(scenarios: list[tuple[int, int]], alerts: np.ndarray) -> list[bool]:
    return [bool(alerts[s : e + 1].any()) for s, e in scenarios]


def point_cells(codes: np.ndarray, alerts: np.ndarray) -> dict[str, object]:
    """Confusion counts by numpy, and the ratios the brute-force oracle derives from them."""
    from oracles.brute import brute_auc_single, brute_ratios

    attack = codes > 0
    counts = {
        "tp": int(np.count_nonzero(attack & alerts)),
        "tn": int(np.count_nonzero(~attack & ~alerts)),
        "fp": int(np.count_nonzero(~attack & alerts)),
        "fn": int(np.count_nonzero(attack & ~alerts)),
    }
    return {**counts, **brute_ratios(counts), "auc-single": brute_auc_single(counts)}


def _span(interval: tuple[int, int]) -> tuple[Fraction, Fraction]:
    return Fraction(interval[0]), Fraction(interval[1] + 1)


def _linear_integral(f, r0: Fraction, r1: Fraction, starts: np.ndarray, ends: np.ndarray):
    """Exact integral of f and the alert mass over [r0, r1), f linear there."""
    j0 = int(np.searchsorted(ends, float(r0), side="right"))
    j1 = int(np.searchsorted(starts, float(r1), side="left"))
    if j0 >= j1:
        return Fraction(0), Fraction(0)
    first = (max(Fraction(int(starts[j0])), r0), min(Fraction(int(ends[j0])), r1))
    pieces = [first]
    if j1 - 1 > j0:
        pieces.append((Fraction(int(starts[j1 - 1])), min(Fraction(int(ends[j1 - 1])), r1)))
    middle = slice(j0 + 1, j1 - 1)
    mass = Fraction(int(np.sum(ends[middle] - starts[middle])))
    moment = Fraction(int(np.sum(ends[middle] ** 2 - starts[middle] ** 2)), 2)
    for s, e in pieces:
        mass += e - s
        moment += (e * e - s * s) / 2
    p, q = r0 + (r1 - r0) / 4, r0 + 3 * (r1 - r0) / 4
    slope = (f(q) - f(p)) / (q - p)
    intercept = f(p) - slope * p
    mid = (r0 + r1) / 2
    if f(mid) != intercept + slope * mid:
        raise AssertionError(f"precision integrand is not linear on ({r0}, {r1})")
    return intercept * mass + slope * moment, mass


def affiliation_reference(
    scenarios: list[tuple[int, int]], alerts: list[tuple[int, int]], points: int
) -> tuple[Fraction | None, Fraction | None, Fraction | None]:
    """``affiliation_oracle`` over index intervals of a series with ticks 0..n-1.

    Zones, integrands and the exact piecewise-linear integration are the
    oracle's. Two shortcuts keep the cost linear in the number of alerts:
    the precision integrand depends on the zone only, so its integral over
    the alert pieces is summed in closed form between its kinks; and the
    recall integrand depends on the distance to the nearest piece, which for
    instants of the event is always a piece that overlaps the event or the
    last piece before it or the first after it.
    """
    from oracles.affiliation_oracle import (
        _precision_integrand,
        _recall_candidates,
        _recall_integrand,
        integrate_linear_pieces,
    )

    if not scenarios:
        return None, None, None
    events = [_span(s) for s in scenarios]
    starts = np.array([s for s, _ in alerts], dtype=np.int64)
    ends = np.array([e + 1 for _, e in alerts], dtype=np.int64)
    bounds = [Fraction(0)]
    bounds += [(prev[1] + cur[0]) / 2 for prev, cur in zip(events, events[1:])]
    bounds.append(Fraction(points))

    precisions: list[Fraction] = []
    recalls: list[Fraction] = []
    for (a, b), z0, z1 in zip(events, bounds, bounds[1:]):
        lo = int(np.searchsorted(ends, float(z0), side="right"))
        hi = int(np.searchsorted(starts, float(z1), side="left"))
        if lo >= hi:
            recalls.append(Fraction(0))
            continue
        zone = (z0, z1)
        integrand = _precision_integrand((a, b), zone)
        cuts = sorted({z0, z1} | {k for k in (a, b, a + b - z0, a + b - z1) if z0 < k < z1})
        total = mass = Fraction(0)
        for r0, r1 in zip(cuts, cuts[1:]):
            part, part_mass = _linear_integral(integrand, r0, r1, starts, ends)
            total += part
            mass += part_mass
        precisions.append(total / mass)

        first = max(lo, int(np.searchsorted(ends, float(a), side="right")) - 1)
        last = min(hi, int(np.searchsorted(starts, float(b), side="left")) + 1)
        pieces = [
            (max(Fraction(int(starts[i])), z0), min(Fraction(int(ends[i])), z1))
            for i in range(first, last)
        ]
        candidates = _recall_candidates(pieces, (a, b), zone)
        area = integrate_linear_pieces(_recall_integrand(pieces, zone), a, b, candidates)
        recalls.append(area / (b - a))

    precision = sum(precisions) / len(precisions) if precisions else None
    recall = sum(recalls) / len(recalls)
    if precision is None:
        f1 = None
    elif precision + recall == 0:
        f1 = Fraction(0)
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def time_aware_cells(codes: np.ndarray, alerts: np.ndarray) -> dict[str, object]:
    from oracles.eta_oracle import eta_oracle

    scenarios = scenario_runs(codes)
    alert_runs = runs_of(alerts)
    etap, etar, etaf1 = eta_oracle(scenarios, alert_runs)
    aff_p, aff_r, aff_f1 = affiliation_reference(scenarios, alert_runs, len(codes))
    return {
        "etap": etap, "etar": etar, "etaf1": etaf1,
        "affiliation-precision": aff_p,
        "affiliation-recall": aff_r,
        "affiliation-f1": aff_f1,
    }


def undetected_cells(codes: np.ndarray, alerts: np.ndarray) -> dict[str, object]:
    scenarios = scenario_runs(codes)
    flags = detected_flags(scenarios, alerts)
    return {
        "detected-scenarios": Fraction(sum(flags), len(scenarios)),
        "undetected-scenarios": len(flags) - sum(flags),
    }


def roc_reference(codes: np.ndarray, scores: np.ndarray):
    """Thresholds (descending), FPR, TPR and trapezoid AUC by one sort and cumulative sums.

    The curve includes the (0, 0) point at +inf and (1, 1) at -inf, and the
    alert rule is score >= threshold.
    """
    attack = codes > 0
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(attack[order])
    fp = np.cumsum(~attack[order])
    last_of_tie = np.flatnonzero(np.diff(ranked) != 0)
    last_of_tie = np.append(last_of_tie, len(ranked) - 1)
    thresholds = ranked[last_of_tie]
    fpr = np.concatenate(([0.0], fp[last_of_tie] / fp[-1], [1.0]))
    tpr = np.concatenate(([0.0], tp[last_of_tie] / tp[-1], [1.0]))
    return thresholds, fpr, tpr, float(np.trapezoid(tpr, fpr))


# -- comparing program output with the references ---------------------------


def parse_markdown(text: str) -> tuple[list[str], dict[str, dict[str, str]], list[str]]:
    """Columns, cells by detector and row order of a rendered comparison table."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    split = [[cell.strip() for cell in line.strip("|").split(" | ")] for line in lines]
    header, rows = split[0], split[2:]
    cells = {row[0]: dict(zip(header[1:], row[1:])) for row in rows}
    return header[1:], cells, [row[0] for row in rows]


def cell_problem(where: str, cell: str | None, expected) -> str | None:
    """A description of the mismatch, or None when the cell shows ``expected``."""
    if cell is None:
        return f"{where}: column missing"
    if expected is None:
        return None if cell == UNDEFINED else f"{where}: expected undefined, got {cell!r}"
    if isinstance(expected, int):
        return None if cell == str(expected) else f"{where}: expected {expected}, got {cell!r}"
    try:
        shown = float(cell)
    except ValueError:
        return f"{where}: expected {float(expected):.6f}, got {cell!r}"
    if abs(shown - float(expected)) > CELL_TOL:
        return f"{where}: expected {float(expected):.6f}, got {cell!r}"
    return None


def table_problems(text: str, expected: dict[str, dict[str, object]], order: list[str]) -> list[str]:
    _, cells, rows = parse_markdown(text)
    problems = []
    if rows != order:
        problems.append(f"row order {rows} != expected {order}")
    for detector, wanted in expected.items():
        row = cells.get(detector, {})
        for column, value in wanted.items():
            problem = cell_problem(f"{detector}/{column}", row.get(column), value)
            if problem:
                problems.append(problem)
    return problems


def rank_order(detectors: list[str], expected: dict[str, dict[str, object]], column: str) -> list[str]:
    """Best-first by ``column``, undefined last, ties in input order."""

    def key(name: str):
        value = expected[name][column]
        return (True, 0.0) if value is None else (False, -float(value))

    return sorted(detectors, key=key)


def roc_problems(stdout: str, csv_text: str, reference) -> list[str]:
    thresholds, fpr, tpr, area = reference
    problems = []
    match = re.search(r"^auc: (\S+)$", stdout, re.MULTILINE)
    if not match:
        return ["no 'auc:' line on stdout"]
    if abs(float(match.group(1)) - area) > 5e-7 + 1e-9:
        problems.append(f"auc {match.group(1)} != reference {area:.9f}")
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["threshold", "fpr", "tpr"] or len(rows) != len(thresholds) + 3:
        return problems + [f"roc.csv has {len(rows)} rows, expected {len(thresholds) + 3}"]
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    if not np.array_equal(got[1:-1, 0], thresholds):
        problems.append("roc.csv thresholds differ from the distinct scores")
    if not (np.allclose(got[:, 1], fpr, rtol=0, atol=1e-12) and np.allclose(got[:, 2], tpr, rtol=0, atol=1e-12)):
        problems.append("roc.csv coordinates differ from the reference curve")
    csv_area = float(np.trapezoid(got[:, 2], got[:, 1]))
    if abs(csv_area - area) > 1e-9:
        problems.append(f"trapezoid over roc.csv {csv_area!r} != reference {area!r}")
    return problems


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_hashes(outdir: Path) -> dict[str, str]:
    return {
        str(path.relative_to(outdir)): sha256(path)
        for path in sorted(outdir.rglob("*"))
        if path.is_file()
    }

