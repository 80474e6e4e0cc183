"""Record the golden data the benchmark checks against.

Run from the root of a pipesim checkout at the reference commit:

    python3 perfbench/record.py

For each workload variant this runs the CLI operation twice, under two
different hash seeds, and one in-process pass of the traced run.  It
records the SHA-256 of every stdout, of the trace CSV and of every
in-process rendering, the MAL values and the deterministic counts.  It
refuses to record output that fails the model checks, that depends on the
hash seed, or where the in-process rendering differs from the CLI's bytes.
Every variant of every workload is recorded, and
``perfbench/golden/<workload>.json`` is overwritten.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import traced  # noqa: E402
import workloads as W  # noqa: E402
from run import Run  # noqa: E402

# In-process rendering that must equal each CLI command's stdout.
SAME_BYTES = {"analyze": "analysis_json", "run": "run_json"}


def record_variant(root: Path, name: str, variant: int) -> dict:
    with Run(root, name, variant) as run:
        first = run.cli_op()
        second = run.cli_op()
    workload = run.workload
    _, _, outputs, csv_text = first
    if csv_text is None:
        raise SystemExit(f"{name} variant {variant}: no trace CSV was written")
    stdout = [checks.sha256(out) for _, out in outputs]
    if [checks.sha256(out) for _, out in second[2]] != stdout or second[3] != csv_text:
        raise SystemExit(f"{name} variant {variant}: output depends on the hash seed")

    out = traced.one_pass(workload, str(run.pipe), traced.NullTracer())
    expected = checks.expected_data(workload)
    problems, mals = traced.check_pass(workload, out, expected)
    golden = {
        "stdout": stdout,
        "csv": checks.sha256(csv_text),
        "mal": checks.mal_digest(mals),
        "renders": {k: checks.sha256(v) for k, v in out["renders"].items()},
        "counts": traced.counts_of(out, len(run.pipe.read_bytes())),
    }
    problems += checks.check_cli_op(workload, golden, outputs, csv_text, expected)
    for command, digest in zip(workload.commands, stdout):
        if golden["renders"][SAME_BYTES[command[0]]] != digest:
            problems.append(f"in-process {command[0]} differs from the CLI's stdout")
    if golden["renders"]["csv"] != golden["csv"]:
        problems.append("in-process trace CSV differs from the CLI's")
    if problems:
        raise SystemExit(f"{name} variant {variant}: " + "; ".join(problems))
    return golden


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    for name in W.WORKLOADS:
        lines = []
        for variant in range(W.VARIANTS):
            golden = record_variant(root, name, variant)
            print(f"{name} variant {variant}: {golden['counts']}", file=sys.stderr)
            lines.append(f"{json.dumps(str(variant))}: {json.dumps(golden, sort_keys=True)}")
        path = checks.GOLDEN_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            f'{{"workload": {json.dumps(name)}, "variants": {{\n' + ",\n".join(lines) + "\n}}\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
