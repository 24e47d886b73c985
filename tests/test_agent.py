import json

import pytest

from cloudrca import structured
from cloudrca.agent import (
    AgentConfig,
    assemble_prompt,
    render_history,
    run_step,
    run_trajectory,
)
from cloudrca.backends import GenerationParams, MockBackend
from cloudrca.prompts import (
    FRAMEWORK_RULES,
    INVALID_ACTION_OBSERVATION,
    TASK_REQUIREMENTS,
)
from cloudrca.snapshots import SnapshotStore
from cloudrca.tools import (
    KIND_EXPERT,
    KIND_FINALIZE,
    KIND_INFO,
    ToolParam,
    ToolRegistry,
    ToolSpec,
    render_documentation,
)
from cloudrca.trajectory import Step, ToolCall, Trajectory


def build_registry():
    registry = ToolRegistry()
    registry.register(
        ToolSpec(
            "fetch", "Fetch data.", [ToolParam("job_id", "id")],
            KIND_INFO,
        ),
        lambda kwargs: "ERROR the root cause line\n" + "\n".join(
            f"INFO noise {i}" for i in range(10)
        ),
    )
    registry.register(
        ToolSpec(
            "expert", "Analyze.", [ToolParam("snapshot", "key")],
            KIND_EXPERT,
        ),
        lambda kwargs: "Interpretation: something broke\nEvidence: ERROR the root cause line",
    )
    registry.register(
        ToolSpec(
            "finalize", "Finish.",
            [
                ToolParam("root_cause", ""),
                ToolParam("solution", ""),
                ToolParam("evidence", ""),
                ToolParam("responsibility", ""),
            ],
            KIND_FINALIZE,
        ),
        lambda kwargs: "Finalized.",
    )
    return registry


def make_config(**overrides):
    registry = build_registry()
    defaults = dict(
        task_statement="Diagnose job j1.",
        params=GenerationParams(mode="greedy"),
    )
    defaults.update(overrides)
    return AgentConfig(**defaults), registry


def wire(function, **kwargs):
    return json.dumps({"function": function, "kwargs": kwargs}, sort_keys=True)


class TestHistoryRendering:
    def test_blocks_and_protected_spans(self):
        steps = [
            Step(
                thought="look at the [logs]",
                action=ToolCall("fetch", {"job_id": "j1"}),
                observation='line with {braces} and "quotes"',
            )
        ]
        text = render_history(steps)
        assert text.startswith("Thought: look at the <:logs:>\n")
        assert f"Function: {steps[0].action.wire()}\nObservation:" in text

    def test_assembled_prompt_sanitizes_outside_action(self):
        config, registry = make_config()
        steps = [
            Step(
                thought="inspect [brackets]",
                action=ToolCall("fetch", {"job_id": "j1"}),
                observation='saw {curly} and "quoted" text',
            )
        ]
        exchange = assemble_prompt(config, registry, Trajectory(steps=steps))
        user = exchange.messages[0][1]
        # observation and thought are sanitized
        assert "<:brackets:>" in user
        assert "<%curly%>" in user
        assert "'quoted'" in user
        # the action JSON survives byte-identical
        assert wire("fetch", job_id="j1") in user
        assert user.endswith("\nThought:")

    def test_system_prompt_has_three_sections(self):
        config, registry = make_config()
        exchange = assemble_prompt(config, registry, Trajectory())
        assert FRAMEWORK_RULES in exchange.system_prompt
        assert TASK_REQUIREMENTS in exchange.system_prompt
        assert registry.documentation in exchange.system_prompt

    def test_snapshot_key_recoverable_after_sanitization(self):
        config, registry = make_config()
        store = SnapshotStore()
        key = store.put("x" * 100)
        steps = [
            Step(
                thought="t",
                action=ToolCall("fetch", {"job_id": "j1"}),
                observation=f"head\n[ snapshot: {key} ]",
            )
        ]
        exchange = assemble_prompt(config, registry, Trajectory(steps=steps))
        assert f"<: snapshot: {key} :>" in exchange.messages[0][1]


class TestRunStep:
    def test_valid_tool_step(self):
        config, registry = make_config()
        backend = MockBackend(
            [f"I need the logs.\nFunction: {wire('fetch', job_id='j1')}"]
        )
        trajectory = Trajectory()
        context = SnapshotStore()
        step = run_step(config, trajectory, backend, registry, context)
        assert step.thought == "I need the logs."
        assert step.action.function == "fetch"
        assert not step.invalid_flag and not step.error_flag
        assert "snapshot:" in step.observation

    def test_system_prompt_lists_the_registry_tools(self):
        # a config says nothing about tools: the prompt's tool list is the
        # registry's, also when run_step is called on its own
        config = AgentConfig(task_statement="t", params=GenerationParams())
        registry = build_registry()
        backend = MockBackend([f"t.\nFunction: {wire('fetch', job_id='j1')}"])
        run_step(config, Trajectory(), backend, registry, SnapshotStore())
        prompt = backend.calls[0].exchange.system_prompt
        assert prompt.endswith("\n\n" + render_documentation(registry))

    def test_no_json_in_output_marks_invalid(self):
        config, registry = make_config()
        backend = MockBackend(["I am not sure what to do next."])
        trajectory = Trajectory()
        step = run_step(
            config, trajectory, backend, registry,
            SnapshotStore(),
        )
        assert step.invalid_flag and step.error_flag
        assert step.action is None
        assert step.observation == INVALID_ACTION_OBSERVATION

    def test_corrupted_action_repaired_locally(self):
        config, registry = make_config()
        corrupted = '{"function": "fetch", "kwargs": {"job_id": "j1",},}'
        backend = MockBackend([f"Thought here.\nFunction: {corrupted}"])
        trajectory = Trajectory()
        step = run_step(
            config, trajectory, backend, registry,
            SnapshotStore(),
        )
        assert not step.invalid_flag
        assert step.action.function == "fetch"

    def test_corrupted_action_fails_when_repair_disabled(self):
        config, registry = make_config(json_regen_enabled=False)
        corrupted = '{"function": "fetch", "kwargs": {"job_id": "j1",},}'
        backend = MockBackend([f"Thought here.\nFunction: {corrupted}"])
        trajectory = Trajectory()
        step = run_step(
            config, trajectory, backend, registry,
            SnapshotStore(),
        )
        assert step.invalid_flag
        assert step.observation == INVALID_ACTION_OBSERVATION

    def test_brace_in_thought_keeps_valid_action(self):
        config, registry = make_config()
        backend = MockBackend(
            [f"I suspect {{heap}} pressure.\nFunction: {wire('fetch', job_id='j1')}"]
        )
        trajectory = Trajectory()
        step = run_step(
            config, trajectory, backend, registry,
            SnapshotStore(),
        )
        assert step.thought == "I suspect {heap} pressure."
        assert step.action.function == "fetch"
        assert not step.invalid_flag and not step.error_flag
        assert len(backend.calls) == 1  # no regeneration round trips

    def test_brace_in_thought_before_corrupted_action(self):
        config, registry = make_config()
        corrupted = '{"function": "fetch", "kwargs": {"job_id": "j1",},}'
        backend = MockBackend([f"Heap {{ looks odd.\nFunction: {corrupted}"])
        trajectory = Trajectory()
        step = run_step(
            config, trajectory, backend, registry,
            SnapshotStore(),
        )
        assert step.thought == "Heap { looks odd."
        assert step.action.function == "fetch"
        assert len(backend.calls) == 1

    @pytest.mark.parametrize("corrupt", [False, True], ids=["well-formed", "corrupted"])
    def test_escape_fixing_only_where_a_span_fails_as_is(self, monkeypatch, corrupt):
        calls = []
        original = structured.fix_escapes

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(structured, "fix_escapes", counting)
        config, registry = make_config()
        if corrupt:
            action = '{"function": "fetch", "kwargs": {"job_id": "j1",},}'
        else:
            action = wire("fetch", job_id="j1")
        backend = MockBackend([f"I suspect {{heap}} pressure.\nFunction: {action}"])
        step = run_step(config, Trajectory(), backend, registry, SnapshotStore())
        assert step.action.function == "fetch"
        # "{heap}" cannot hold the key and is skipped; a well-formed action
        # is never escape-fixed
        assert calls == ([action] if corrupt else [])

    def test_action_read_by_its_fixed_parse_is_a_valid_step(self):
        # as it is, the span is one string under "a"; fixed, it is the action
        action = (
            '{"a": "\u201c, \u201cfunction\u201d: \u201cfetch\u201d, '
            '\u201ckwargs\u201d: {\u201cjob_id\u201d: \u201cj1\u201d}, \u201cb\u201d: \u201d"}'
        )
        config, registry = make_config()
        backend = MockBackend([f"I need the logs.\nFunction: {action}"])
        step = run_step(config, Trajectory(), backend, registry, SnapshotStore())
        assert step.thought == "I need the logs."
        assert step.action == ToolCall("fetch", {"job_id": "j1"})
        assert not step.invalid_flag and not step.error_flag
        assert len(backend.calls) == 1

    def test_too_deep_action_is_an_invalid_step(self):
        config, registry = make_config()
        deep = '{"a":' * 1000 + "1" + "}" * 1000
        backend = MockBackend([f"Thought.\nFunction: {deep}"] + ["junk"] * 6)
        trajectory = Trajectory()
        step = run_step(config, trajectory, backend, registry, SnapshotStore())
        assert step.invalid_flag and step.action is None
        assert trajectory.steps == [step]

    def test_unknown_tool_marks_structurally_invalid(self):
        config, registry = make_config()
        backend = MockBackend([f"Hmm.\nFunction: {wire('bogus')}"])
        trajectory = Trajectory()
        step = run_step(
            config, trajectory, backend, registry,
            SnapshotStore(),
        )
        assert step.invalid_flag and step.error_flag

    def test_rule_violation_errored_but_valid(self):
        config, registry = make_config()
        backend = MockBackend(
            [f"Again.\nFunction: {wire('fetch', job_id='j1')}"]
        )
        trajectory = Trajectory(
            steps=[
                Step(
                    thought="t", action=ToolCall("fetch", {"job_id": "j1"}),
                    observation="obs",
                )
            ]
        )
        step = run_step(
            config, trajectory, backend, registry,
            SnapshotStore(),
        )
        assert step.error_flag and not step.invalid_flag
        assert step.observation.startswith("Error:")


class TestRunTrajectory:
    def test_a_budget_below_one_step_is_rejected(self):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            AgentConfig(max_steps=0)

    def script(self):
        return [
            f"Get logs.\nFunction: {wire('fetch', job_id='j1')}",
            "PLACEHOLDER_EXPERT",
            f"Done.\nFunction: "
            + wire(
                "finalize",
                root_cause="the root cause line errored",
                solution="restart",
                evidence="ERROR the root cause line",
                responsibility="Platform",
            ),
        ]

    def run(self, **overrides):
        config, registry = make_config(**overrides)
        store = SnapshotStore()

        class ExpertAwareBackend(MockBackend):
            # the expert call needs the snapshot key issued at runtime
            def complete(self, exchange, params):
                text = super().complete(exchange, params)
                if text == "PLACEHOLDER_EXPERT":
                    user = exchange.messages[0][1]
                    idx = user.index("snapshot: ") + len("snapshot: ")
                    key = user[idx : idx + 10]
                    return f"Analyze it.\nFunction: {wire('expert', snapshot=key)}"
                return text

        backend = ExpertAwareBackend(self.script())
        return run_trajectory(config, registry, backend, store=store)

    def test_full_run_finalizes(self):
        trajectory = self.run()
        assert trajectory.passed
        assert len(trajectory.steps) == 3
        assert trajectory.result.responsibility == "Platform"
        assert trajectory.steps[-1].observation == "Finalized."

    def test_step_budget_exhaustion(self):
        config, registry = make_config(max_steps=2)
        backend = MockBackend(
            [f"t.\nFunction: {wire('fetch', job_id=f'j{i}')}" for i in range(2)]
        )
        trajectory = run_trajectory(config, registry, backend)
        assert not trajectory.passed
        assert len(trajectory.steps) == 2
        assert trajectory.result is None

    def test_backend_failure_recorded_as_diagnostic(self):
        config, registry = make_config()
        backend = MockBackend([])  # exhausted immediately
        trajectory = run_trajectory(config, registry, backend)
        assert not trajectory.passed
        assert "backend failure" in trajectory.diagnostic


def test_invalid_ratio():
    steps = [
        Step(thought="a", action=None, observation="", invalid_flag=True),
        Step(thought="b", action=ToolCall("fetch", {}), observation=""),
        Step(thought="c", action=ToolCall("fetch", {}), observation=""),
        Step(thought="d", action=None, observation="", invalid_flag=True),
    ]
    assert Trajectory(steps=steps).invalid_ratio() == pytest.approx(0.5)
    assert Trajectory().invalid_ratio() == 0.0
