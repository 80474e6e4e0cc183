"""Token-edited definition files through every command.

Each example takes a definition file of the README or of the CLI digest
corpus, applies one to three token edits (delete, insert or replace) drawn
from the file grammar's tokens and some odd characters, and runs the result
through ``pipesim.cli.main`` with ``analyze``, ``run`` and ``elaborate``.
Every command must return an exit code of 0-3 without an exception, and
every ``line L, col C`` it prints must lie inside the file.  A command that
runs for more than :data:`SECONDS` fails the test.
"""

import re
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_digests
from pipesim.fileformat import _FILE_TOKEN
from test_cli import run_main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
VALID = [
    *(block for block in re.findall(r"```\n(.*?)```", README, re.S) if "pipeline =" in block),
    *(text for name, text in cli_digests.FILES.items()
      if name.endswith(".pipe") and not name.startswith("malformed")),
]
MALFORMED = [text for name, text in cli_digests.FILES.items() if name.startswith("malformed")]

_GRAMMAR = ["stage", "pipeline", "join", "issue", "fn", "delay", "channel", "exec", "untimed",
            "signal", "reactive", "greedy", "fixed", "sum", "S1", "S2", "A", '"data"', '"data +"',
            "{", "}", "=", ";", ":", ">>", "*", "+", "#", "0", "1", " ", "\n"]
_ODD = ["(", ")", "@", "-", "_", '"', "\\", "\u0663", "\u00e9", "\x00", "\r", "\u00a0", "1e5"]
# Only numbers above the route limit, so that no edit builds a route long
# enough to be slow to analyze.
_LARGE = st.integers(4097, 10**30).map(str)
_TOKENS = st.sampled_from(_GRAMMAR) | st.sampled_from(_ODD) | _LARGE

COMMANDS = [["analyze"], ["run", "--inputs", "1,2,3"], ["elaborate"]]
SECONDS = 2  # per command; the slowest takes about 50 ms


@st.composite
def edited_files(draw):
    """A source file, mostly a valid one, with 1-3 token edits.  Half of the
    edits of a file that has numbers put a large number in place of one: a
    repeat count, delay or interval typed wrong."""
    source = draw(st.sampled_from(VALID) | st.sampled_from(MALFORMED))
    tokens = [match.group() for match in _FILE_TOKEN.finditer(source)]
    for _ in range(draw(st.integers(1, 3))):
        numbers = [i for i, token in enumerate(tokens) if token.isdigit()]
        if numbers and draw(st.booleans()):
            tokens[draw(st.sampled_from(numbers))] = draw(_LARGE)
            continue
        index = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "insert" or index == len(tokens):
            tokens.insert(index, draw(_TOKENS))
        elif edit == "delete":
            del tokens[index]
        else:
            tokens[index] = draw(_TOKENS)
    return "".join(tokens)


class Hung(Exception):
    """A command outran :data:`SECONDS`; ``cli.main`` does not catch it."""


def _hung(signum, frame):
    raise Hung


@pytest.fixture(scope="module")
def pipe_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "edited.pipe"


@settings(max_examples=600, deadline=None)
@given(edited_files())
def test_edited_files_exit_cleanly_with_positions_inside(pipe_path, text):
    pipe_path.write_text(text, encoding="utf-8")
    # The text as the commands read it, "\r" read as "\n", split as
    # PipelineFileError counts lines.
    lines = pipe_path.read_text(encoding="utf-8").split("\n")
    previous = signal.signal(signal.SIGALRM, _hung)
    try:
        for command, *options in COMMANDS:
            signal.setitimer(signal.ITIMER_REAL, SECONDS)
            try:
                code, _, err = run_main([command, str(pipe_path), *options])
            except Hung:  # the assert below fails after the command's frames are freed
                code, err = f"still running after {SECONDS} s", ""
            signal.setitimer(signal.ITIMER_REAL, 0)
            assert code in (0, 1, 2, 3), f"{command}: {code}"
            for line, column in re.findall(r"line (\d+), col (\d+)", err):
                line, column = int(line), int(column)
                assert 1 <= line <= len(lines)
                assert 1 <= column <= len(lines[line - 1]) + 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
