"""Correctness checks shared by the CLI runs, the traced run and recording.

Each check returns a list of failure messages; an empty list means the
output is correct.  Golden digests are SHA-256 of the exact bytes the
reference commit produced for the same workload variant.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import workloads as W

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def real(value: float) -> str:
    """The report's six-significant-digit rendering of a real."""
    return "%.6g" % value


def load_golden(workload: str, variant: int) -> dict | None:
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["variants"].get(str(variant))


def mal_digest(mals: dict[str, str]) -> str:
    return sha256("".join(f"{name} {mal}\n" for name, mal in sorted(mals.items())))


def check_analysis(workload: W.Workload, name: str, mal: float, lower: int, greedy: float) -> list[str]:
    """MAL within [max row marks, greedy average], bounds as the model derives them."""
    steps = workload.route
    want_lower = W.max_row_marks(steps)
    want_greedy = W.greedy_average(W.forbidden(steps), len(steps))
    errors = []
    if lower != want_lower:
        errors.append(f"{name}: lower bound {lower}, model says {want_lower}")
    if real(greedy) != real(want_greedy):
        errors.append(f"{name}: greedy average {greedy}, model says {want_greedy}")
    # The report prints six significant digits; allow for that rounding.
    if not want_lower * (1 - 1e-5) <= mal <= float(want_greedy) * (1 + 1e-5):
        errors.append(f"{name}: MAL {mal} outside [{want_lower}, {want_greedy}]")
    return errors


def check_analysis_mapping(workload: W.Workload, pipelines: dict) -> tuple[list[str], dict[str, str]]:
    """Checks every pipeline of an analysis mapping; also returns each MAL."""
    errors: list[str] = []
    mals = {}
    for name, entry in pipelines.items():
        errors += check_analysis(
            workload, name, entry["mal"], entry["mal_lower_bound"], entry["greedy_cycle"]["average"]
        )
        mals[name] = real(entry["mal"])
    if set(pipelines) != {W.MAIN}:
        errors.append(f"analysis covers {sorted(pipelines)}, the file defines only {W.MAIN!r}")
    return errors, mals


def check_conservation(stats: dict) -> list[str]:
    if stats["injected"] != stats["exited"] + stats["dropped"] + stats["in_flight"]:
        return [f"conservation broken: {stats}"]
    return []


def expected_data(workload: W.Workload) -> list[float]:
    return [W.fold(workload, float(v)) for v in workload.inputs]


def check_csv(workload: W.Workload, text: str, expected: list[float]) -> list[str]:
    """The trace CSV: one exited row per input, data equal to the model's fold."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(workload.inputs):
        return [f"trace has {len(rows)} rows for {len(workload.inputs)} inputs"]
    for i, (row, orig, data) in enumerate(zip(rows, workload.inputs, expected)):
        if row["id"] != str(i) or row["orig"] != real(orig) or not row["exit_ns"]:
            return [f"trace row {i} is {row}"]
        if row["data"] != real(data):
            return [f"transaction {i}: data {row['data']}, model says {real(data)}"]
    return []


def check_run_report(workload: W.Workload, text: str) -> tuple[list[str], dict]:
    """A json-like run report: conservation and the analysis bounds."""
    doc = json.loads(text)
    errors = check_conservation(doc["stats"])
    if doc["stats"]["injected"] != len(workload.inputs) or doc["stats"]["exited"] != len(workload.inputs):
        errors.append(f"{doc['stats']['exited']} of {len(workload.inputs)} transactions exited")
    more, mals = check_analysis_mapping(workload, {W.MAIN: doc["analysis"]})
    return errors + more, mals


def check_cli_op(workload: W.Workload, golden: dict, outputs: list[tuple[int, bytes]],
                 csv_text: str | None, expected: list[float]) -> list[str]:
    """Everything one CLI operation printed and wrote, against the model and
    the golden digests.  ``csv_text`` is None when no trace file was written."""
    errors: list[str] = []
    mals: dict[str, str] = {}
    for argv, (code, stdout), digest in zip(workload.commands, outputs, golden["stdout"]):
        what = " ".join(argv[:1] + argv[2:])
        if code != 0:
            errors.append(f"{what}: exit code {code}")
            continue
        if sha256(stdout) != digest:
            errors.append(f"{what}: stdout differs from the recorded digest")
        try:
            text = stdout.decode("utf-8")
            if argv[0] == "run":
                more, found = check_run_report(workload, text)
            else:
                more, found = check_analysis_mapping(workload, json.loads(text)["pipelines"])
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"{what}: unreadable report ({exc!r})")
            continue
        errors += more
        mals.update(found)
    if mal_digest(mals) != golden["mal"]:
        errors.append("MAL values differ from the recorded ones")
    # Every workload's run command writes a trace; a missing file is a failure.
    if csv_text is None:
        errors.append("no trace CSV was written")
    else:
        if sha256(csv_text) != golden["csv"]:
            errors.append("trace CSV differs from the recorded digest")
        errors += check_csv(workload, csv_text, expected)
    return errors
