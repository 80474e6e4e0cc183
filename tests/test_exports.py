"""Every name a pipesim module exports exists, no module uses another's
private names, and each command loads only the modules it runs."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pipesim
from test_cli import LOOPED

MODULES = ["pipesim"] + [
    f"pipesim.{info.name}" for info in pkgutil.iter_modules(pipesim.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []


def private_names_from_other_modules(source: str) -> list[str]:
    """``module._name`` of a module bound by ``from . import module``, and
    ``_name`` in ``from .module import _name``, in one module's source."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [f"{node.module}.{n}" for n in names if n.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_scan_finds_private_names_from_other_modules():
    source = "from . import analysis\nfrom .report import _row, canonical\nanalysis._walk(v)\n"
    assert private_names_from_other_modules(source) == ["report._row", "analysis._walk"]


def test_no_module_uses_another_modules_private_names():
    package = Path(pipesim.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := private_names_from_other_modules(path.read_text(encoding="utf-8")))
    }
    assert found == {}


SRC = Path(__file__).resolve().parent.parent / "src"


def modules_loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after running
    ``code``; what ``code`` prints comes before.  Without ``site`` the
    result does not depend on what the environment installs."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_dataclasses():
    """``dataclasses`` pulls in ``inspect`` and ``ast``: milliseconds on every
    command."""
    assert modules_loaded("import pipesim.cli", ("dataclasses", "inspect")) == []


def test_cli_import_loads_no_fractions_or_pathlib():
    """``fractions`` (with ``decimal``) and ``pathlib`` (with ``urllib.parse``
    and ``ipaddress``) cost milliseconds on every command; only a caller that
    asks for an exact ``average`` or ``mal`` loads ``fractions``."""
    modules = ("fractions", "decimal", "pathlib")
    assert modules_loaded("import pipesim.cli", modules) == []


@pytest.fixture
def looped_pipe(tmp_path) -> str:
    path = tmp_path / "looped.pipe"
    path.write_text(LOOPED, encoding="utf-8")
    return str(path)


def test_setup_loads_no_analysis_simulator_report_or_json(looped_pipe):
    """Set-up, as perfbench times it, runs neither the analysis nor the
    simulator, so ``import pipesim`` leaves them for first use."""
    code = (
        "import pipesim\n"
        f"setup = pipesim.load_pipeline_file({looped_pipe!r})\n"
        "for route in setup.routes.values():\n"
        "    pipesim.validate_config(route, setup.configs, join=setup.join)\n"
        "    pipesim.elaborate(route, setup.decls)"
    )
    modules = ("pipesim.analysis", "pipesim.engine", "pipesim.simulate", "pipesim.report",
               "heapq", "json")
    assert modules_loaded(code, modules) == []


def cli_code(*argv: str) -> str:
    return f"import pipesim.cli\nassert pipesim.cli.main({list(argv)!r}) == 0"


def test_analyze_loads_no_engine_simulator_or_json(looped_pipe):
    modules = ("pipesim.engine", "pipesim.simulate", "heapq", "json")
    for fmt in ("text", "json-like"):
        code = cli_code("analyze", looped_pipe, "--format", fmt)
        assert modules_loaded(code, modules) == [], fmt


def test_elaborate_loads_no_analysis_report_or_simulator(looped_pipe):
    modules = ("pipesim.analysis", "pipesim.report", "pipesim.engine", "pipesim.simulate",
               "heapq", "json")
    assert modules_loaded(cli_code("elaborate", looped_pipe), modules) == []


def test_run_loads_no_json(looped_pipe, tmp_path):
    code = cli_code("run", looped_pipe, "--inputs", "1,2,3", "--format", "json-like",
                    "--trace", str(tmp_path / "trace.csv"))
    assert modules_loaded(code, ("pipesim.simulate", "json")) == ["pipesim.simulate"]


def test_well_formed_commands_load_no_argparse(looped_pipe, tmp_path):
    """``argparse``, with the ``gettext`` and ``locale`` that its help and
    error texts load, costs milliseconds; only a command line the fast path
    does not read, such as ``-h`` or an error, needs it."""
    modules = ("argparse", "gettext", "locale")
    for argv in (
        ("analyze", looped_pipe, "--format", "json-like"),
        ("run", looped_pipe, "--inputs", "1,2,3", "--format", "json-like",
         "--trace", str(tmp_path / "trace.csv")),
        ("elaborate", looped_pipe),
    ):
        assert modules_loaded(cli_code(*argv), modules) == [], argv[0]


# Every public name that ``pipesim/__init__.py`` bound when it imported each
# module eagerly, in its import order.
PUBLIC_NAMES = [
    # analysis
    "AnalysisError", "AnalysisReport", "CollisionVector", "IssueCycle", "ReservationTable",
    "analyze", "collision_vector", "forbidden_latencies", "greedy_cycle",
    "minimal_average_latency", "reservation_table",
    # dsl
    "DeclarationError", "ExpressionError", "Fork", "ParseError", "PipeExpr", "Repeat", "Route",
    "Seq", "StageId", "StageRef", "StageSet", "declare_stages", "flatten", "fork", "parse",
    "pretty", "repeat", "seq",
    # elaborate
    "EXIT", "ChannelEdge", "ElaborationError", "Netlist", "RouterNode", "RoutingTable",
    "elaborate", "routing_table", "to_dot",
    # engine
    "DeadlockError", "Engine", "JoinError", "RoutingFault", "SimTime",
    # errors
    "PipelineError",
    # fileformat
    "PipelineFileError", "PipelineSetup", "load_pipeline_file", "parse_pipeline_text",
    # policy
    "UNTIMED", "ChannelKind", "CheckedConfig", "ConfigError", "ExecKind", "FunctionEvalError",
    "FunctionParseError", "FunctionSpec", "IssueSpec", "JoinSpec", "StageConfig", "TimingSpec",
    "parse_function", "validate_config",
    # simulate
    "Occupancy", "RunResult", "StageStats", "Stats", "Trace", "TraceRecord", "Transaction",
    "run",
]


def test_all_lists_every_public_name():
    assert pipesim.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pipesim import *", namespace)
    assert [n for n in PUBLIC_NAMES if n not in namespace] == []
    assert namespace["run"] is importlib.import_module("pipesim.simulate").run


def test_dir_lists_every_public_name():
    assert [n for n in PUBLIC_NAMES if n not in dir(pipesim)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'pipesim' has no attribute 'nope'"):
        pipesim.nope


def test_elaborate_stays_the_function_after_every_submodule_loads():
    for name in MODULES:
        importlib.import_module(name)
    assert callable(pipesim.elaborate)
    assert pipesim.elaborate is importlib.import_module("pipesim.elaborate").elaborate
