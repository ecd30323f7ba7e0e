"""Output checks behind the benchmark's ``failed`` count.

A command's outputs pass when:

- every trace CSV round-trips: ``trace_to_csv(read_trace_csv(path))`` gives
  the file's bytes back;
- the SHA-256 of every trace CSV with the ``loop_cost_us`` (wall clock) and
  ``lateral_dev_m`` columns removed matches the stored reference for the
  input variant, which pins ``op_count`` and the record count exactly;
- ``lateral_dev_m`` agrees, record by record, with an independent reference:
  the signed distance from the follower to the leader script's own polyline,
  extended backward from the leader's start by ``BACK_EXTENSION`` and cut off
  at the leader's current arc length. The tolerance is half the leader's
  travel in one frame plus 1e-6 m: the runner measures against a track
  sampled once per frame, whose chords cut corners by less than that;
- a ``compare`` report names the stored winner for every metric except the
  wall-clock ``mean_loop_cost`` row;
- a ``tune`` command wrote one CSV per grid candidate and a
  ``tune_results.csv`` byte-identical to the stored one.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

from workloads import BACK_EXTENSION, FRAME_DT, Command, LeaderPath

UNHASHED_COLUMNS = ("loop_cost_us", "lateral_dev_m")
UNCHECKED_WINNERS = ("mean_loop_cost",)


def trace_digest(text: str) -> str:
    """SHA-256 of a trace CSV without its unhashed columns."""
    lines = text.split("\n")
    header = lines[0].split(",")
    keep = [i for i, c in enumerate(header) if c not in UNHASHED_COLUMNS]
    h = hashlib.sha256()
    for line in lines:
        cells = line.split(",")
        h.update(",".join(cells[i] for i in keep if i < len(cells)).encode())
        h.update(b"\n")
    return h.hexdigest()


def report_winners(text: str) -> dict[str, str]:
    """Metric -> winner from a compare report's markdown table."""
    winners = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[0] not in ("metric", "---"):
            winners[cells[0]] = cells[4]
    return winners


def _reference_polyline(leader: LeaderPath, t: float) -> list[tuple[float, float]]:
    verts = leader.vertices
    x0, y0 = verts[0]
    if len(verts) > 1:
        dx, dy = verts[1][0] - x0, verts[1][1] - y0
        norm = math.hypot(dx, dy)
        ux, uy = dx / norm, dy / norm
    else:
        ux, uy = 1.0, 0.0  # parked leaders in the generated files face +x
    pts = [(x0 - BACK_EXTENSION * ux, y0 - BACK_EXTENSION * uy), (x0, y0)]
    remaining = leader.speed * t
    for (px, py), (qx, qy) in zip(verts, verts[1:]):
        if remaining <= 0.0:
            break
        seg = math.hypot(qx - px, qy - py)
        if remaining >= seg:
            pts.append((qx, qy))
        else:
            u = remaining / seg
            pts.append((px + u * (qx - px), py + u * (qy - py)))
        remaining -= seg
    return pts


def _signed_distance(x: float, y: float, pts: list[tuple[float, float]]) -> float:
    best_d2, best_sign = math.inf, 1.0
    for (px, py), (qx, qy) in zip(pts, pts[1:]):
        vx, vy = qx - px, qy - py
        norm2 = vx * vx + vy * vy
        if norm2 == 0.0:
            continue
        u = min(max(((x - px) * vx + (y - py) * vy) / norm2, 0.0), 1.0)
        cx, cy = px + u * vx, py + u * vy
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        if d2 < best_d2:
            best_d2 = d2
            best_sign = -1.0 if vx * (y - cy) - vy * (x - cx) < 0.0 else 1.0
    return best_sign * math.sqrt(best_d2)


def lateral_problems(text: str, leader: LeaderPath) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    it, ix, iy, idev = (header.index(c) for c in ("t", "follower_x", "follower_y", "lateral_dev_m"))
    tol = 0.5 * leader.speed * FRAME_DT + 1e-6
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        t, x, y, dev = (float(cells[i]) for i in (it, ix, iy, idev))
        ref = _signed_distance(x, y, _reference_polyline(leader, t))
        if abs(dev - ref) > tol:
            return [f"line {lineno}: lateral_dev_m {dev!r} vs reference {ref!r} (tol {tol:g})"]
    return []


def check_command(command: Command, out: Path, reference: dict, followsim) -> list[str]:
    """Problems found in one command's output directory (empty when correct)."""
    problems = []
    csvs = sorted(p for p in out.glob("*.csv") if p.name != "tune_results.csv")
    digests = hashlib.sha256()
    for path in csvs:
        text = path.read_text(encoding="utf-8")
        try:
            again = followsim.traceio.trace_to_csv(followsim.read_trace_csv(path))
        except ValueError as exc:
            problems.append(f"{path.name}: does not read back: {exc}")
            continue
        if again != text:
            problems.append(f"{path.name}: does not round-trip through read_trace_csv")
        digests.update(f"{path.name}:{trace_digest(text)}\n".encode())
        problems += [f"{path.name}: {p}" for p in lateral_problems(text, command.leader)]
    if len(csvs) != reference["csv_files"]:
        problems.append(f"{len(csvs)} trace CSVs, expected {reference['csv_files']}")
    if digests.hexdigest() != reference["traces"]:
        problems.append("trace CSV contents differ from the reference")

    if command.kind == "compare":
        reports = list(out.glob("*_report.md"))
        svgs = list(out.glob("*.svg"))
        if len(reports) != 1 or len(svgs) != 2:
            problems.append(f"{len(reports)} reports and {len(svgs)} plots, expected 1 and 2")
        else:
            winners = report_winners(reports[0].read_text(encoding="utf-8"))
            for metric, expected in reference["winners"].items():
                if winners.get(metric) != expected:
                    problems.append(f"winner of {metric}: {winners.get(metric)!r}, expected {expected!r}")
    else:
        results = out / "tune_results.csv"
        digest = hashlib.sha256(results.read_bytes()).hexdigest() if results.exists() else None
        if digest != reference["tune_results"]:
            problems.append("tune_results.csv differs from the reference")
    return problems


def reference_of(command: Command, out: Path) -> dict:
    """The reference entry for golden.json, taken from a known-good output."""
    csvs = sorted(p for p in out.glob("*.csv") if p.name != "tune_results.csv")
    digests = hashlib.sha256()
    for path in csvs:
        digests.update(f"{path.name}:{trace_digest(path.read_text(encoding='utf-8'))}\n".encode())
    entry = {"csv_files": len(csvs), "traces": digests.hexdigest()}
    if command.kind == "compare":
        (report,) = out.glob("*_report.md")
        winners = report_winners(report.read_text(encoding="utf-8"))
        entry["winners"] = {m: w for m, w in winners.items() if m not in UNCHECKED_WINNERS}
    else:
        entry["tune_results"] = hashlib.sha256((out / "tune_results.csv").read_bytes()).hexdigest()
    return entry
