import json
import os

import pytest

from cloudrca.backends import MockBackend
from cloudrca.codeexpert import (
    CODE_AGENT_SPEC,
    DEFAULT_MAX_FILES,
    RepoIndex,
    analyze_file,
    find_class_file,
    run_code_expert,
)
from cloudrca.mockpolicy import PolicyBackend
from cloudrca.snapshots import SnapshotStore
from cloudrca.tools import dispatch
from cloudrca.trajectory import ToolCall


@pytest.fixture
def repo(tmp_path):
    files = {
        "Root.java": {"analysis": "root class", "suggestions": ["Child", "org.apache.Lib"]},
        "Child.java": {"analysis": "child class", "suggestions": ["Leaf"]},
        "Leaf.java": {"analysis": "leaf class", "suggestions": []},
        "Cycle.java": {"analysis": "cyclic", "suggestions": ["Cycle", "Root"]},
    }
    for name, payload in files.items():
        # the file content is its own scripted analysis payload
        (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


class EchoAnalyzer(MockBackend):
    """Returns the file body (which is already a valid analysis JSON) for
    analysis calls and a fixed line for the summary call."""

    def complete(self, exchange, params):
        from cloudrca.backends import RecordedCall

        user = exchange.messages[0][1]
        if "analyze source code" in exchange.system_prompt:
            response = user[user.rindex("{"):]
        else:
            response = "SUMMARY of everything seen"
        self.calls.append(RecordedCall(exchange, params, response))
        return response


class TestRepoIndex:
    def test_stem_mapping(self, repo):
        index = RepoIndex.build(str(repo))
        assert index.class_to_path["Root"] == "Root.java"

    def test_shallower_path_wins(self, tmp_path):
        (tmp_path / "Dup.java").write_text("top")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        (nested / "Dup.java").write_text("deep")
        index = RepoIndex.build(str(tmp_path))
        assert index.class_to_path["Dup"] == "Dup.java"

    def test_lexicographic_tiebreak_at_same_depth(self, tmp_path):
        for sub in ("zeta", "alpha"):
            d = tmp_path / sub
            d.mkdir()
            (d / "Same.java").write_text(sub)
        index = RepoIndex.build(str(tmp_path))
        assert index.class_to_path["Same"] == os.path.join("alpha", "Same.java")

    def test_external_prefixes(self):
        index = RepoIndex(root=".")
        assert index.is_external("org.apache.flink.Sink")
        assert index.is_external("java.util.Map")
        assert index.is_external("java")
        assert not index.is_external("javafxish")  # prefix must be a segment
        assert not index.is_external("MyClass")

    def test_find_class_file(self, repo):
        index = RepoIndex.build(str(repo))
        assert find_class_file(index, "Root") == str(repo / "Root.java")
        assert find_class_file(index, "org.apache.Lib") is None
        assert find_class_file(index, "Missing") is None


class TestAnalyzeFile:
    def test_structured_response(self):
        be = MockBackend(['{"analysis": "does x", "suggestions": ["A", "B"]}'])
        analysis, suggestions = analyze_file(be, "class X {}")
        assert analysis == "does x"
        assert suggestions == ["A", "B"]

    def test_unstructured_response_degrades_gracefully(self):
        be = MockBackend(["free-form notes about the class"] + ["junk"] * 6)
        analysis, suggestions = analyze_file(be, "class X {}")
        assert analysis == "free-form notes about the class"
        assert suggestions == []


class TestRunCodeExpert:
    def test_bfs_visits_suggestions(self, repo):
        be = EchoAnalyzer()
        index = RepoIndex.build(str(repo))
        out = run_code_expert(be, index, "Root")
        analysis_calls = [
            c for c in be.calls
            if "analyze source code" in c.exchange.system_prompt
        ]
        bodies = " ".join(c.response for c in analysis_calls)
        assert "root class" in bodies and "child class" in bodies
        assert "leaf class" in bodies
        assert out.startswith("SUMMARY")

    def test_externals_reported_not_analyzed(self, repo):
        be = EchoAnalyzer()
        index = RepoIndex.build(str(repo))
        out = run_code_expert(be, index, "Root")
        assert "org.apache.Lib" in out
        assert "External dependencies" in out

    def test_a_class_missing_from_the_repository_is_not_called_external(self, tmp_path):
        # the toy repository's suggestions: one user class it does not hold,
        # one dependency under an external prefix
        payload = {
            "analysis": "root class",
            "suggestions": ["com.user.job.RecordMapper", "org.apache.sls.Client"],
        }
        (tmp_path / "Root.java").write_text(json.dumps(payload))
        out = run_code_expert(EchoAnalyzer(), RepoIndex.build(str(tmp_path)), "Root")
        assert out.splitlines()[1:] == [
            "(External dependencies not analyzed: org.apache.sls.Client)",
            "(Not found in repository: com.user.job.RecordMapper)",
        ]

    def test_cycle_terminates(self, repo):
        be = EchoAnalyzer()
        index = RepoIndex.build(str(repo))
        out = run_code_expert(be, index, "Cycle")
        assert out.startswith("SUMMARY")
        analysis_calls = [
            c for c in be.calls
            if "analyze source code" in c.exchange.system_prompt
        ]
        # Cycle, Root, Child, Leaf each analyzed exactly once
        assert len(analysis_calls) == 4

    def test_a_class_queued_twice_is_analyzed_once(self, tmp_path):
        # Leaf is queued by Root and again by Child before either is visited
        files = {
            "Root": ["Child", "Leaf"],
            "Child": ["Leaf"],
            "Leaf": [],
        }
        for name, suggestions in files.items():
            payload = {"analysis": f"class {name}", "suggestions": suggestions}
            (tmp_path / f"{name}.java").write_text(json.dumps(payload))
        be = EchoAnalyzer()
        run_code_expert(be, RepoIndex.build(str(tmp_path)), "Root")
        analyzed = [
            c.response for c in be.calls
            if "analyze source code" in c.exchange.system_prompt
        ]
        assert [json.loads(body)["analysis"] for body in analyzed] == [
            "class Root", "class Child", "class Leaf"
        ]

    def test_max_files_cap(self, tmp_path):
        # a chain of 13 classes, each suggesting the next
        for k in range(DEFAULT_MAX_FILES + 1):
            payload = {"analysis": f"class {k}", "suggestions": [f"Chain{k + 1}"]}
            (tmp_path / f"Chain{k}.java").write_text(json.dumps(payload))
        be = EchoAnalyzer()
        run_code_expert(be, RepoIndex.build(str(tmp_path)), "Chain0")
        analyzed = [
            c.response for c in be.calls
            if "analyze source code" in c.exchange.system_prompt
        ]
        assert len(analyzed) == DEFAULT_MAX_FILES == 12
        assert f"class {DEFAULT_MAX_FILES - 1}" in analyzed[-1]

    def test_unknown_root_class(self, repo):
        out = run_code_expert(EchoAnalyzer(), RepoIndex.build(str(repo)), "Nope")
        assert "not found in repository" in out
        assert "Nope" in out

    def test_an_external_root_class_is_named_external(self, repo):
        # the repository holds a Map.java, yet java.util.Map is a dependency
        (repo / "Map.java").write_text(json.dumps({"analysis": "map", "suggestions": []}))
        be = EchoAnalyzer()
        out = run_code_expert(be, RepoIndex.build(str(repo)), "java.util.Map")
        assert out == "class 'java.util.Map' is an external dependency, not analyzed"
        assert be.calls == []


def test_toolspec_allows_short_class_names():
    spec = CODE_AGENT_SPEC
    assert spec.trivial_input_floor == 1
    assert spec.params[0].name == "class_name"


def _dispatch_code_agent(sandbox, class_name):
    """One ``code_agent`` call on a generated bundle's registry, answered by
    the scripted policy."""
    registry = sandbox.build_registry(PolicyBackend())
    call = ToolCall("code_agent", {"class_name": class_name})
    return dispatch(registry, call, SnapshotStore())


def test_code_agent_call_observes_the_summary(sandbox):
    result = _dispatch_code_agent(sandbox, "AdvisorService")
    assert not result.error
    assert "The service code paths show no defects relevant to the anomaly." in (
        result.observation
    )


@pytest.mark.parametrize("class_name", ["", "   ", 42, None])
def test_code_agent_call_without_a_class_name_fails(sandbox, class_name):
    result = _dispatch_code_agent(sandbox, class_name)
    assert result.error and not result.invalid
    assert result.observation == (
        "Error: tool 'code_agent' failed: code_agent requires a class name"
    )
