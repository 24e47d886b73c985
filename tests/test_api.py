"""The package's public surface: every exported name must resolve, and so
must every lookup name the benchmark's tracer binds; no module of the
package or of the tests keeps an import it never uses, no module
encodes text so that a lone surrogate raises, only two functions of the
package open a thread pool, only ``backends.generate_adaptive`` sets the
pool gate, only ``structured`` decodes JSON or writes a file, only
``backends`` takes a norm, only the three places a result arrives as a dict
normalize it, every tool spec is built at import, only ``agent.run_step``
builds a ``Step``, only ``tools._error_result`` and ``prompts`` write an
``Error: `` observation, and the records a batch keeps per job are
slotted."""

import ast
import pathlib

import pytest

import cloudrca
from cloudrca.metrics import JobOutcome
from cloudrca.sandbox import JobRecord
from cloudrca.trajectory import AnalysisResult, Step, ToolCall, Trajectory
from perfbench.tracer import Tracer


def test_every_exported_name_resolves():
    missing = [name for name in cloudrca.__all__ if not hasattr(cloudrca, name)]
    assert missing == []


def test_every_benchmark_binding_resolves():
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def _unused_imports(path):
    """(line, name) of each name a module imports and never reads; an
    import statement marked ``# noqa: F401`` is exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = pathlib.Path(cloudrca.__file__).parent
    tests = pathlib.Path(__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    unused = {
        f"{path.parent.name}/{path.name}": _unused_imports(path)
        for path in sorted(paths + list(tests.glob("*.py")))
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _strict_encodes(path):
    """Line of each ``.encode(...)`` call that names a codec but not the
    "surrogatepass" error handler.  A call with no arguments is exempt: the
    package makes it only on ASCII-only JSON."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "encode"
            and (node.args or node.keywords)
        ):
            continue
        values = node.args + [keyword.value for keyword in node.keywords]
        if not any(isinstance(v, ast.Constant) and v.value == "surrogatepass" for v in values):
            found.append(node.lineno)
    return found


def test_every_codec_encode_passes_lone_surrogates():
    # json.loads turns "\ud800" in a log line or a model reply into a lone
    # surrogate, which a strict encode rejects with UnicodeEncodeError
    package = pathlib.Path(cloudrca.__file__).parent
    strict = {path.name: _strict_encodes(path) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in strict.items() if lines} == {}


def _scopes(path, matches):
    """Qualified name of the function or class around each node of a module
    for which ``matches`` holds; the module's name at module scope."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(scope)
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _callers(path, callee):
    """Qualified name of the function around each call in a module whose
    callee is ``callee`` or ends in ``.callee``."""
    return _scopes(
        path,
        lambda node: isinstance(node, ast.Call)
        and f".{ast.unparse(node.func)}".endswith(f".{callee}"),
    )


def test_only_overlapped_and_batch_open_thread_pools():
    # overlapped() runs every set of a job's concurrent model calls, under
    # one cap and one gate; batch --jobs is the user's own setting
    package = pathlib.Path(cloudrca.__file__).parent
    openers = [
        name
        for path in sorted(package.glob("*.py"))
        for name in _callers(path, "ThreadPoolExecutor")
    ]
    assert openers == ["backends.overlapped", "cli.cmd_batch"]


def test_only_the_registry_renders_tool_documentation():
    # the controller's tool list is ToolRegistry.documentation, rendered once
    # per registry; a second renderer could prompt with another registry's
    # tools, or with none
    package = pathlib.Path(cloudrca.__file__).parent
    renderers = [
        name
        for path in sorted(package.glob("*.py"))
        for name in _callers(path, "render_documentation")
    ]
    assert renderers == ["tools.ToolRegistry.documentation"]


def test_only_the_partition_the_vote_and_the_scorer_embed():
    # on a live endpoint every embed call is a request, and the benchmark
    # counts embedded texts per job; a new caller is a new cost per job
    package = pathlib.Path(cloudrca.__file__).parent
    callers = [
        name
        for path in sorted(package.glob("*.py"))
        for name in _callers(path, "embed")
    ]
    assert callers == [
        "consistency.vote_with_embedding",
        "logexpert.partition",
        "metrics._embedding_scorer",
    ]


@pytest.mark.parametrize("callee", ["ToolSpec", "ToolParam"])
def test_tool_specs_are_built_once_at_import(callee):
    # the tool set is fixed: every registry registers the same frozen specs,
    # so a spec built inside a function is rebuilt on every run
    package = pathlib.Path(cloudrca.__file__).parent
    builders = [
        name
        for path in sorted(package.glob("*.py"))
        for name in _callers(path, callee)
        if name != path.stem
    ]
    assert builders == []


def test_only_run_step_builds_steps():
    # every outcome of a controller reply (no parsable action, a rule stop,
    # finalize, a dispatch) is one DispatchResult, and run_step turns it
    # into the trajectory's Step in one place
    package = pathlib.Path(cloudrca.__file__).parent
    builders = [name for path in sorted(package.glob("*.py")) for name in _callers(path, "Step")]
    assert builders == ["agent.run_step"]


def test_only_error_result_and_prompts_write_error_observations():
    # a failed call's observation comes from tools._error_result, and the
    # unparsable reply's from prompts; a string, or the literal part of an
    # f-string, that starts with "Error: " anywhere else is a second writer
    package = pathlib.Path(cloudrca.__file__).parent
    writers = [
        name
        for path in sorted(package.glob("*.py"))
        for name in _scopes(
            path,
            lambda node: isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("Error: "),
        )
    ]
    assert writers == ["prompts", "tools._error_result"]


def _names(path):
    """Every name a module reads, binds, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_generate_adaptive_sets_the_pool_gate():
    # every overlapped() call of a job follows a controller generation in
    # its own thread, so the gate times those generations alone; any other
    # writer would let a single-turn call open or close a job's pools
    package = pathlib.Path(cloudrca.__file__).parent
    paths = sorted(package.glob("*.py"))
    setters = [name for path in paths for name in _callers(path, "LAST_COMPLETION_WAITED.set")]
    assert setters == ["backends.generate_adaptive"]
    naming = [path.name for path in paths if "LAST_COMPLETION_WAITED" in _names(path)]
    assert naming == ["backends.py"]


def _json_decodes(path):
    """Line of each ``json.load``, ``json.loads`` or ``json.JSONDecoder``
    in a module."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("load", "loads", "JSONDecoder")
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    ]


def test_only_structured_decodes_json():
    # read_json and read_jsonl decide what a malformed input file raises,
    # and try_parse what a malformed model reply gives
    package = pathlib.Path(cloudrca.__file__).parent
    found = {path.name: _json_decodes(path) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "structured.py"} == {}


def _file_writes(path):
    """Line of each call that can open a file for writing: ``open`` with a
    mode that is not a literal of "r", "b" and "t" only, and ``write_text``
    or ``write_bytes``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name == "open":
            # open(file, mode) and io.open(file, mode); a path's open(mode)
            at = 1 if isinstance(func, ast.Name) or ast.unparse(func) == "io.open" else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"] or node.args[at : at + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                found.append(node.lineno)
    return found


def test_only_structured_writes_files():
    # write_files makes every file the program writes, so each is UTF-8 with
    # no newline translation, and a new output file is one more table entry
    package = pathlib.Path(cloudrca.__file__).parent
    found = {path.name: _file_writes(path) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "structured.py"} == {}
    assert found["structured.py"] != []


def _norms(path):
    """Line of each ``np.linalg.norm`` and ``np.matmul`` in a module."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and ast.unparse(node) in ("np.linalg.norm", "np.matmul")
    ]


def test_only_backends_takes_norms():
    # cosine and row_norms give every norm the same bits; a norm computed
    # elsewhere could differ in its last bit and move a tie
    package = pathlib.Path(cloudrca.__file__).parent
    found = {path.name: _norms(path) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name != "backends.py"} == {}


def _from_dict_calls(path):
    """Line of each ``AnalysisResult.from_dict`` call in a module."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "AnalysisResult.from_dict"
    ]


def test_only_agent_consistency_and_sandbox_normalize_results():
    # a result arrives as a dict in a finalize call's kwargs, the vote's
    # merged fields and a bundle's ground truth; every other result is one
    # of these or AnalysisResult(), so a second normalization changes nothing
    package = pathlib.Path(cloudrca.__file__).parent
    found = {path.name: _from_dict_calls(path) for path in sorted(package.glob("*.py"))}
    arrivals = ("agent.py", "consistency.py", "sandbox.py")
    assert {name: lines for name, lines in found.items() if lines and name not in arrivals} == {}
    assert all(found[name] for name in arrivals)


# one instance of each record type a run or a batch keeps per job
_RECORDS = [
    JobRecord("job", "2024-01-01 00:00:00", "scenario", AnalysisResult()),
    ToolCall("read_log", {"source": "runtime"}),
    Step("thought", ToolCall("read_log"), "observation"),
    AnalysisResult(),
    Trajectory(),
    JobOutcome("job", Trajectory(), AnalysisResult()),
]


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
def test_per_job_records_are_slotted(record):
    # an instance __dict__ costs every kept record; a new attribute must be
    # declared as a field
    assert "__slots__" in type(record).__dict__
    assert not hasattr(record, "__dict__")


def test_policy_backend_accepts_rebound_model_calls():
    # the benchmark tracer wraps complete and embed on each policy instance
    policy = cloudrca.PolicyBackend()
    policy.complete = policy.complete
    assert "complete" in vars(policy)
