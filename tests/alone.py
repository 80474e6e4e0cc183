"""List the test modules that fail when pytest runs each one on its own.

Run from anywhere, with pytest and hypothesis installed::

    python tests/alone.py

For each ``tests/test_*.py`` it runs ``python -m pytest -q -p no:cacheprovider
tests/<module>`` in its own child process, from the repository root, and
prints ``<module>: <pytest's summary line>``; then the modules whose run
failed, or ``every module passes alone``.  A run fails when pytest exits
non-zero or when its output ends without a summary line such as ``12 passed
in 0.50s``: a test that ends the process, say through ``os._exit(0)``, can
leave a zero exit status and no summary.  A module that passes in the whole
suite but fails alone leans on state that an earlier module left behind, such
as a submodule that it imported first.  The exit code is 1 if any module
failed, else 0.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUMMARY = re.compile(r"^\d+ (passed|failed|errors?|skipped)\b.* in \d")


def main() -> int:
    failed = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        module = path.relative_to(ROOT).as_posix()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", module],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = out.stdout.strip().splitlines()
        summary = lines[-1] if lines and SUMMARY.match(lines[-1]) else None
        print(f"{module}: {summary or f'no summary line, exit code {out.returncode}'}", flush=True)
        if out.returncode != 0 or summary is None:
            failed.append(module)
    print("failed alone: " + ", ".join(failed) if failed else "every module passes alone")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
