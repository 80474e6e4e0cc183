"""Print one SHA-256 digest per CLI invocation over a fixed corpus.

Run from anywhere, with pytest installed (the malformed definition files
come from ``tests/test_cli.py``)::

    python tests/cli_digests.py

It writes a corpus of definition files to a temporary directory: the
README's quad and feedback routes, a fork/join route with a signal and an
untimed stage, a route on which eager issue has a granted write refused,
a route with a repeat count past the route limit, a route whose stages are
declared in an order other than the one it first uses them in, a chain of
256 distinct stages, a fork merged by ``join = sum``, a signal stage fed
faster than it reads, forks with no join, a reactive stage on a blocking
channel, a file that is not UTF-8, each of ``test_cli.MALFORMED_FILES``, and
a file of 4,000 input values. From that directory it runs ``pipesim.cli.main`` in this
process over each invocation below, and prints ``<digest>  <arguments>``,
where the digest is a SHA-256 over the exit code, stdout, stderr and every
file the invocation wrote. Paths are relative, so two runs of one checkout
print identical lines, and a change that keeps every output byte prints the
same lines as its parent.

``tests/cli_digests.txt`` holds the lines, and ``tests/test_cli.py`` compares
them.  A change that means to alter output bytes records the file again::

    python tests/cli_digests.py > tests/cli_digests.txt
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pipesim import cli  # noqa: E402
from test_cli import MALFORMED_FILES  # noqa: E402

QUAD = """\
# quad.pipe -- computes 2x^2 + 4x - 7
stage S1 { fn = "data + 2*sqr(orig)"; delay = 1; }
stage S2 { fn = "data + 4*orig";      delay = 1; }
stage S3 { fn = "data - 7";           delay = 1; }
pipeline = S1 >> S2 >> S3;
"""

FEEDBACK = QUAD.replace("S1 >> S2 >> S3;", "S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2;")

FORK_JOIN = """\
stage S1 { fn = "data + orig"; delay = 1; }
stage S2 { fn = "data * 2";    delay = 2; }
stage S3 { fn = "data - 1";    delay = untimed; channel = signal; }
stage S4 { fn = "data / 4";    delay = 1; }
pipeline = S1 >> S2 + S3 >> S4;
join = "dataL + dataR - orig";
"""

TWO_TYPES = QUAD.replace("pipeline = ", "pipeline short = S1 >> S3;\npipeline long = ")

REFUSED_RETRY = """\
stage S0 { fn = "data + orig"; delay = 1; }
stage S1 { fn = "data + orig"; delay = 3; }
pipeline = S0 >> S0 >> S1;
"""

# Declared C A E D B, first used B A D C, and E never used: a route's stages,
# marks and routing tables follow declaration order, not first use.  A forks
# with D and is reused, and B is reused at once.
OUT_OF_ORDER = """\
stage C { fn = "data - 1";      delay = 1; }
stage A { fn = "data + orig";   delay = 2; }
stage E { fn = "data * 3";      delay = 1; }
stage D { fn = "data * 2";      delay = 1; }
stage B { fn = "data + 2*orig"; delay = 1; }
pipeline = B >> A + D >> C >> B*2 >> A;
join = "dataL - dataR";
"""

# A chain of 256 distinct stages: set-up and the reservation table at a size
# where a per-stage or per-cell cost shows, with the grid 256 rows wide.
CHAIN = "".join(
    f'stage C{i} {{ fn = "data + {i % 7}*orig - {i % 5}"; delay = {1 + i % 3}; }}\n'
    for i in range(256)
) + f"pipeline = {' >> '.join(f'C{i}' for i in range(256))};\n"

FORK_SUM = FORK_JOIN.replace('join = "dataL + dataR - orig";', "join = sum;")

# S2 reads every 3 ns from a signal channel that S1 writes every 1 ns under
# eager issue, so the values S2 has not read yet are overwritten and dropped.
DROPS = """\
stage S1 { fn = "data + orig";          delay = 1; }
stage S2 { fn = "-(data - 3*orig) / 2"; delay = 3; channel = signal; }
pipeline = S1 >> S2;
"""

REACTIVE_BLOCKING = FORK_JOIN.replace("channel = signal;", "exec = reactive;")

# The bytes of latin1.pipe, which are not UTF-8; FILES holds text only.
NOT_UTF8 = QUAD.replace("quad.pipe", "quad.pipe, caf\xe9").encode("latin-1")

FILES = {
    "quad.pipe": QUAD,
    "feedback.pipe": FEEDBACK,
    "forkjoin.pipe": FORK_JOIN,
    "types.pipe": TWO_TYPES,
    "retry.pipe": REFUSED_RETRY,
    "inputs.txt": "1 2.5\n-3,4e-3\n",
    "overlimit.pipe": QUAD.replace("S2 >>", "S2*1000000000000000000000 >>"),
    "order.pipe": OUT_OF_ORDER,
    "chain.pipe": CHAIN,
    "forksum.pipe": FORK_SUM,
    "drops.pipe": DROPS,
    "nojoin.pipe": FORK_JOIN.replace('join = "dataL + dataR - orig";\n', ""),
    "lastfork.pipe": QUAD.replace("S2 >> S3;", "S2 + S3;"),
    "reactive.pipe": REACTIVE_BLOCKING,
    "inputs4000.txt": "".join(f"{(i * 389) % 1999 - 999}\n" for i in range(4000)),
    **{f"malformed{number:02}.pipe": text for number, (text, _) in enumerate(MALFORMED_FILES)},
}

INVOCATIONS = [
    *(["analyze", name, "--format", fmt]
      for name in ("quad.pipe", "feedback.pipe", "forkjoin.pipe", "types.pipe")
      for fmt in ("text", "json-like")),
    *(["run", "quad.pipe", "--inputs", "0,1,2,3", "--format", fmt, *trace]
      for fmt in ("text", "json-like") for trace in ([], ["--trace", "quad.csv"])),
    *(["run", "feedback.pipe", "--inputs", "1,2,3,4,5,6", "--issue", issue, "--format", fmt]
      for issue in ("greedy", "eager", "fixed:4", "fixed:3") for fmt in ("text", "json-like")),
    ["run", "feedback.pipe", "--inputs", "inputs.txt", "--horizon", "9"],
    ["run", "feedback.pipe", "--inputs", "inputs.txt", "--horizon", "9", "--format", "json-like",
     "--trace", "horizon.csv"],
    *(["run", "forkjoin.pipe", "--inputs", "0,1.5,-2,3e7,1e-9", "--issue", issue,
       "--format", fmt, "--trace", "forkjoin.csv"]
      for issue in ("greedy", "eager") for fmt in ("text", "json-like")),
    ["run", "types.pipe", "--type", "short", "--inputs", "5,6"],
    ["run", "feedback.pipe", "--inputs", "inputs4000.txt", "--format", "json-like",
     "--trace", "feedback4000.csv"],
    ["run", "feedback.pipe", "--inputs", "inputs4000.txt", "--issue", "eager"],
    *(["elaborate", name] for name in ("quad.pipe", "feedback.pipe", "forkjoin.pipe")),
    ["elaborate", "forkjoin.pipe", "--dot", "forkjoin.dot"],
    ["elaborate", "types.pipe", "--type", "long", "--dot", "long.dot"],
    # Faulty arguments and files: each exits 1 with a diagnostic.
    *(["run", "quad.pipe", "--inputs", "1,2", *bad] for bad in (
        ["--issue", "slow"], ["--issue", "fixed:0"], ["--issue", "fixed:x"],
        ["--horizon", "-1"], ["--horizon", "x"], ["--format", "yaml"],
        ["--trace", "missing/x.csv"], ["--trace", "missing/x.csv", "--format", "json-like"])),
    *(["run", "quad.pipe", "--inputs", bad] for bad in ("1,x", "nan", "", "nope.txt")),
    ["run", "types.pipe", "--inputs", "1"],
    ["run", "types.pipe", "--type", "nope", "--inputs", "1"],
    ["elaborate", "types.pipe", "--type", "nope"],
    ["analyze", "quad.pipe", "--format", "yaml"],
    ["analyze", "absent.pipe"],
    ["run", "quad.pipe", "--inputs", "1e200"],
    *(["analyze", name] for name in FILES if name.startswith("malformed")),
    ["run", "retry.pipe", "--inputs", "0,1,2,3,4", "--issue", "eager"],
    # Spellings that argparse reads, not the fast path: each prints the
    # digest of its canonical form above.
    ["analyze", "feedback.pipe", "--form", "json-like"],
    ["run", "quad.pipe", "--inputs=0,1,2,3", "--format", "json-like"],
    ["run", "--format", "json-like", "--inputs", "0,1,2,3", "quad.pipe"],
    ["analyze", "types.pipe", "--format", "text", "--format", "json-like"],
    # Issue spellings whose outcome the file grammar decides, and a repeat
    # count past the route limit.
    *(["run", "quad.pipe", "--inputs", "1,2", "--issue", issue]
      for issue in ("fixed : 4", " greedy", "fixed:+4", "fixed:1_000")),
    ["run", "overlimit.pipe", "--inputs", "1"],
    # Declaration order against the order of first use.
    *(["analyze", "order.pipe", "--format", fmt] for fmt in ("text", "json-like")),
    ["run", "order.pipe", "--inputs", "1,2,3,4,5", "--format", "json-like",
     "--trace", "order.csv"],
    ["elaborate", "order.pipe"],
    # A 256-stage chain.
    *(["analyze", "chain.pipe", "--format", fmt] for fmt in ("text", "json-like")),
    ["elaborate", "chain.pipe"],
    ["run", "chain.pipe", "--inputs", "1", "--format", "json-like"],
    # A named join, dropped signal values, a stage function with a negated
    # group, forks with no join, a setting conflict and a file that is not
    # UTF-8.
    *(["run", "forksum.pipe", "--inputs", "0,1.5,-2", "--format", fmt]
      for fmt in ("text", "json-like")),
    *(["run", "drops.pipe", "--inputs", "1,2,3,4,5", "--issue", "eager", "--format", fmt]
      for fmt in ("text", "json-like")),
    *([command, name, *inputs] for name in ("nojoin.pipe", "lastfork.pipe")
      for command, *inputs in (["run", "--inputs", "1"], ["elaborate"])),
    ["analyze", "reactive.pipe"],
    ["analyze", "latin1.pipe"],
]


def invoke(argv: list[str]) -> str:
    """SHA-256 over one invocation's exit code, stdout, stderr and written files."""
    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    digest = hashlib.sha256()
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    for name in sorted(set(os.listdir(".")) - before):
        parts += [name.encode(), Path(name).read_bytes()]
        os.remove(name)
    for part in parts:
        digest.update(b"%d:" % len(part) + part)
    return digest.hexdigest()


def digest_lines() -> list[str]:
    """``<digest>  <arguments>`` for each invocation, run over a fresh corpus."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as corpus:
        os.chdir(corpus)
        try:
            for name, text in FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            Path("latin1.pipe").write_bytes(NOT_UTF8)
            return [f"{invoke(argv)}  {' '.join(argv)}" for argv in INVOCATIONS]
        finally:
            os.chdir(home)


def main() -> int:
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
