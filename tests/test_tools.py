import pytest

from cloudrca import tools
from cloudrca.agent import AgentConfig, run_step
from cloudrca.backends import MockBackend
from cloudrca.errors import ConfigurationError
from cloudrca.snapshots import EMPTY_OBSERVATION, SnapshotStore, snapshot_keys
from cloudrca.tools import (
    DEFAULT_TRIVIAL_INPUT_FLOOR,
    KIND_EXPERT,
    KIND_FINALIZE,
    KIND_INFO,
    RULE_DUPLICATE_CALL,
    RULE_EARLY_FINALIZE,
    RULE_TRIVIAL_INPUT,
    ToolParam,
    ToolRegistry,
    ToolSpec,
    check_errors,
    dispatch,
    render_documentation,
)
from cloudrca.trajectory import RESULT_FIELDS, AnalysisResult, Step, ToolCall, Trajectory
from perfbench.tracer import Tracer


def finalize_spec():
    return ToolSpec(
        name="finalize",
        description="Report findings.",
        params=[
            ToolParam("root_cause", "cause"),
            ToolParam("solution", "fix"),
            ToolParam("evidence", "proof"),
            ToolParam("responsibility", "owner"),
        ],
        kind=KIND_FINALIZE,
    )


def build_registry(expert_floor=DEFAULT_TRIVIAL_INPUT_FLOOR):
    registry = ToolRegistry()
    registry.register(
        ToolSpec(
            name="fetch",
            description="Fetch a blob.",
            params=[ToolParam("job_id", "id")],
            kind=KIND_INFO,
        ),
        lambda kwargs: f"blob for {kwargs['job_id']}\nline 2\nline 3",
    )
    registry.register(
        ToolSpec(
            name="expert",
            description="Analyze a blob.",
            params=[ToolParam("snapshot", "key or text")],
            kind=KIND_EXPERT,
            trivial_input_floor=expert_floor,
        ),
        lambda kwargs: f"analysis of {len(kwargs['snapshot'])} chars",
    )
    registry.register(finalize_spec(), lambda kwargs: "Finalized.")
    return registry


def context():
    return SnapshotStore()


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = build_registry()
        with pytest.raises(ConfigurationError):
            registry.register(
                ToolSpec("fetch", "dup", [], KIND_INFO), lambda kwargs: ""
            )

    def test_second_finalize_rejected(self):
        registry = build_registry()
        spec = finalize_spec()
        spec = ToolSpec("finalize2", spec.description, spec.params, KIND_FINALIZE)
        with pytest.raises(ConfigurationError):
            registry.register(spec, lambda kwargs: "")

    def test_registration_order_preserved(self):
        names = [spec.name for spec in build_registry().specs()]
        assert names == ["fetch", "expert", "finalize"]


class TestDocumentation:
    def test_lists_every_tool_and_params(self):
        doc = render_documentation(build_registry())
        for token in ["fetch", "expert", "finalize", "job_id", "snapshot",
                      "root_cause", "responsibility"]:
            assert token in doc

    def test_includes_snapshot_usage_rules(self):
        doc = render_documentation(build_registry())
        assert "snapshot" in doc.lower()

    def test_deterministic(self):
        assert render_documentation(build_registry()) == render_documentation(
            build_registry()
        )

    def test_registry_renders_once_until_a_tool_is_registered(self):
        registry = build_registry()
        first = registry.documentation
        assert first is registry.documentation
        assert first == render_documentation(registry)
        registry.register(
            ToolSpec("probe", "Probe.", [ToolParam("host", "")], KIND_INFO),
            lambda kwargs: "",
        )
        assert "- probe: Probe." in registry.documentation
        assert registry.documentation == render_documentation(registry)

    def test_requires_a_tool(self):
        with pytest.raises(ConfigurationError, match="registry is empty"):
            render_documentation(ToolRegistry())

    def test_requires_finalize(self):
        registry = ToolRegistry()
        registry.register(
            ToolSpec("fetch", "f", [ToolParam("a", "")], KIND_INFO),
            lambda kwargs: "",
        )
        with pytest.raises(ConfigurationError):
            render_documentation(registry)


class TestDispatch:
    def test_info_result_stored_and_head_rendered(self):
        ctx = context()
        result = dispatch(
            build_registry(), ToolCall("fetch", {"job_id": "j1"}), ctx
        )
        key = snapshot_keys(result.observation)[-1]
        assert key is not None
        assert ctx.get(key) == "blob for j1\nline 2\nline 3"
        assert result.observation.startswith("blob for j1")

    def test_unknown_tool_is_error_observation(self):
        result = dispatch(build_registry(), ToolCall("nope", {}), context())
        assert result.observation.startswith("Error:")
        assert result.error

    def test_missing_required_param(self):
        result = dispatch(build_registry(), ToolCall("fetch", {}), context())
        assert result.observation.startswith("Error:")
        assert "job_id" in result.observation

    def test_only_malformed_calls_are_invalid(self):
        registry = build_registry()
        registry.register(
            ToolSpec("boom", "b", [], KIND_INFO),
            lambda kwargs: (_ for _ in ()).throw(RuntimeError("kaput")),
        )
        cases = [  # call, error, invalid
            (ToolCall("nope", {}), True, True),
            (ToolCall("fetch", {}), True, True),
            (ToolCall("boom", {}), True, False),
            (ToolCall("expert", {"snapshot": "0000000000"}), True, False),
            (ToolCall("fetch", {"job_id": "j"}), False, False),
        ]
        for call, error, invalid in cases:
            result = dispatch(registry, call, context())
            assert (result.error, result.invalid) == (error, invalid), call

    def test_handler_exception_becomes_error(self):
        registry = build_registry()
        registry.register(
            ToolSpec("boom", "b", [], KIND_INFO),
            lambda kwargs: (_ for _ in ()).throw(RuntimeError("kaput")),
        )
        result = dispatch(registry, ToolCall("boom", {}), context())
        assert result.observation.startswith("Error:")
        assert "kaput" in result.observation

    def test_empty_result_uses_sentinel(self):
        registry = build_registry()
        registry.register(
            ToolSpec("empty", "e", [], KIND_INFO), lambda kwargs: ""
        )
        result = dispatch(registry, ToolCall("empty", {}), context())
        assert result.observation.startswith(EMPTY_OBSERVATION)

    def test_info_results_deduplicated_linewise(self):
        registry = build_registry()
        noisy = "\n".join(
            ["INFO checkpoint 41 completed in 90 ms",
             "INFO checkpoint 42 completed in 91 ms",
             "ERROR the interesting line"]
        )
        registry.register(
            ToolSpec("noisy", "n", [], KIND_INFO), lambda kwargs: noisy
        )
        ctx = context()
        result = dispatch(registry, ToolCall("noisy", {}), ctx)
        stored = ctx.get(snapshot_keys(result.observation)[-1])
        assert "checkpoint 41" in stored
        assert "checkpoint 42" not in stored  # near-duplicate removed
        assert "ERROR the interesting line" in stored

    def test_expert_receives_resolved_snapshot(self):
        ctx = context()
        fetched = dispatch(build_registry(), ToolCall("fetch", {"job_id": "j"}), ctx)
        key = snapshot_keys(fetched.observation)[-1]
        result = dispatch(build_registry(), ToolCall("expert", {"snapshot": key}), ctx)
        full = ctx.get(key)
        assert f"analysis of {len(full)} chars" in result.observation

    def test_unknown_snapshot_key_is_error(self):
        result = dispatch(
            build_registry(), ToolCall("expert", {"snapshot": "0000000000"}), context()
        )
        assert result.observation.startswith("Error:")


def make_step(function, kwargs, observation="ok", error=False, invalid=False):
    return Step(
        thought="t",
        action=ToolCall(function, kwargs),
        observation=observation,
        error_flag=error,
        invalid_flag=invalid,
    )


class TestCheckErrors:
    def test_duplicate_stateless_call_fires(self):
        registry = build_registry()
        steps = [make_step("fetch", {"job_id": "j1"})]
        err = check_errors(steps, ToolCall("fetch", {"job_id": "j1"}), registry, context())
        assert err is not None and err.rule == RULE_DUPLICATE_CALL
        assert err.observation.startswith("Error:")
        assert "Suggestion:" in err.observation

    def test_different_kwargs_allowed(self):
        registry = build_registry()
        steps = [make_step("fetch", {"job_id": "j1"})]
        err = check_errors(steps, ToolCall("fetch", {"job_id": "j2"}), registry, context())
        assert err is None

    def test_trivial_expert_input_fires(self):
        registry = build_registry()
        err = check_errors([], ToolCall("expert", {"snapshot": "tiny"}), registry, context())
        assert err is not None and err.rule == RULE_TRIVIAL_INPUT

    def test_long_expert_input_passes(self):
        registry = build_registry()
        err = check_errors(
            [], ToolCall("expert", {"snapshot": "x" * 40}), registry, context()
        )
        assert err is None

    def test_snapshot_key_resolved_before_length_check(self):
        ctx = context()
        key = ctx.put("x" * 100)
        registry = build_registry()
        err = check_errors([], ToolCall("expert", {"snapshot": key}), registry, ctx)
        assert err is None

    def test_unresolved_key_fires_trivial_rule(self):
        registry = build_registry()
        err = check_errors(
            [], ToolCall("expert", {"snapshot": "0000000000"}), registry, context()
        )
        assert err is not None and err.rule == RULE_TRIVIAL_INPUT

    def test_per_tool_floor_override(self):
        registry = build_registry(expert_floor=2)
        err = check_errors([], ToolCall("expert", {"snapshot": "ab"}), registry, context())
        assert err is None
        err = check_errors([], ToolCall("expert", {"snapshot": "a"}), registry, context())
        assert err is not None and err.rule == RULE_TRIVIAL_INPUT

    def test_early_finalize_fires_without_both_kinds(self):
        registry = build_registry()
        ctx = context()
        finalize = ToolCall("finalize", {})
        assert check_errors([], finalize, registry, ctx).rule == RULE_EARLY_FINALIZE
        info_only = [make_step("fetch", {"job_id": "j"})]
        assert check_errors(info_only, finalize, registry, ctx).rule == RULE_EARLY_FINALIZE
        expert_only = [make_step("expert", {"snapshot": "x" * 40})]
        assert check_errors(expert_only, finalize, registry, ctx).rule == RULE_EARLY_FINALIZE

    def test_finalize_allowed_after_info_and_expert(self):
        registry = build_registry()
        steps = [
            make_step("fetch", {"job_id": "j"}),
            make_step("expert", {"snapshot": "x" * 40}),
        ]
        assert check_errors(steps, ToolCall("finalize", {}), registry, context()) is None

    def test_errored_steps_do_not_count_toward_finalize(self):
        registry = build_registry()
        steps = [
            make_step("fetch", {"job_id": "j"}, error=True),
            make_step("expert", {"snapshot": "x" * 40}, error=True),
        ]
        err = check_errors(steps, ToolCall("finalize", {}), registry, context())
        assert err is not None and err.rule == RULE_EARLY_FINALIZE


class TestParseFinalize:
    """A finalize call's kwargs are read by ``AnalysisResult.from_dict``, the
    one rule that normalizes a result."""

    def test_finalize_spec_declares_the_parsed_fields(self):
        spec = tools.FINALIZE_SPEC
        assert spec.kind == KIND_FINALIZE
        assert [p.name for p in spec.params] == list(RESULT_FIELDS)
        kwargs = {p.name: "User" for p in spec.params}
        assert AnalysisResult.from_dict(kwargs).to_dict() == {
            name: "User" for name in RESULT_FIELDS
        }

    def test_complete_payload(self):
        kwargs = {
            "root_cause": "heap too small",
            "solution": "raise heap",
            "evidence": "OutOfMemoryError",
            "responsibility": "user",
        }
        assert AnalysisResult.from_dict(kwargs).to_dict() == {
            "root_cause": "heap too small",
            "solution": "raise heap",
            "evidence": "OutOfMemoryError",
            "responsibility": "User",
        }

    def test_platform_normalized(self):
        parsed = AnalysisResult.from_dict({"responsibility": "PLATFORM"})
        assert parsed.responsibility == "Platform"
        assert parsed.root_cause == "Unclear"  # other fields missing

    def test_missing_fields_become_unclear(self):
        parsed = AnalysisResult.from_dict({})
        assert parsed.to_dict() == {name: "Unclear" for name in RESULT_FIELDS}

    def test_unrecognized_responsibility_becomes_unclear(self):
        parsed = AnalysisResult.from_dict({"responsibility": "the network team"})
        assert parsed.responsibility == "Unclear"

    def test_blank_strings_treated_as_missing(self):
        parsed = AnalysisResult.from_dict({"root_cause": "   "})
        assert parsed.root_cause == "Unclear"

    def test_fields_are_stripped(self):
        parsed = AnalysisResult.from_dict(
            {"root_cause": "  heap too small\n", "responsibility": " Platform\t"}
        )
        assert parsed.root_cause == "heap too small"
        assert parsed.responsibility == "Platform"

    def test_non_string_fields_become_unclear(self):
        parsed = AnalysisResult.from_dict(
            {"root_cause": 7, "solution": None, "evidence": ["x"], "responsibility": True}
        )
        assert parsed.to_dict() == {name: "Unclear" for name in RESULT_FIELDS}


class TestSnapshotParams:
    """Only the ``snapshot`` parameter resolves snapshot keys, so a 10-digit
    number passed anywhere else is an ordinary argument."""

    EPOCH = "1750000123"

    def registry(self, with_expert=True):
        registry = ToolRegistry()
        registry.register(
            ToolSpec(
                "events",
                "List events.",
                [ToolParam("since", "epoch seconds")],
                KIND_INFO,
            ),
            lambda kwargs: f"events since {kwargs['since']}",
        )
        registry.register(finalize_spec(), lambda kwargs: "Finalized.")
        if not with_expert:
            return registry
        registry.register(
            ToolSpec(
                "expert",
                "Analyze a log.",
                [
                    ToolParam("snapshot", "key or text"),
                    ToolParam("since", "epoch seconds"),
                ],
                KIND_EXPERT,
            ),
            lambda kwargs: f"{len(kwargs['snapshot'])} chars since {kwargs.get('since')}",
        )
        return registry

    def test_epoch_argument_reaches_info_tool(self):
        registry = self.registry(with_expert=False)
        ctx = context()
        result = dispatch(registry, ToolCall("events", {"since": self.EPOCH}), ctx)
        assert not result.error
        assert ctx.get(snapshot_keys(result.observation)[0]) == f"events since {self.EPOCH}"

    def test_epoch_argument_beside_snapshot_key(self):
        ctx = context()
        key = ctx.put("x" * 100)
        call = ToolCall("expert", {"snapshot": key, "since": self.EPOCH})
        assert check_errors([], call, self.registry(), ctx) is None
        result = dispatch(self.registry(), call, ctx)
        assert ctx.get(snapshot_keys(result.observation)[0]) == f"100 chars since {self.EPOCH}"

    def test_snapshot_parameter_rejects_unissued_key(self):
        call = ToolCall("expert", {"snapshot": "0000000000", "since": self.EPOCH})
        err = check_errors([], call, self.registry(), context())
        assert err is not None and err.rule == RULE_TRIVIAL_INPUT
        assert dispatch(self.registry(), call, context()).error


def _reply(function, **kwargs):
    return f"Checking.\nFunction: {ToolCall(function, kwargs).wire()}"


# case: (prior calls, reply, observation, error_flag, invalid_flag)
_FAILED_CALLS = {
    "duplicate_call": (
        [ToolCall("fetch", {"job_id": "j1"})],
        _reply("fetch", job_id="j1"),
        "Error: duplicate invocation of stateless tool 'fetch' with identical "
        "arguments. Suggestion: That result is already in the trajectory; "
        "inspect it or call a different tool.",
        True,
        False,
    ),
    "unresolved_key": (
        [],
        _reply("expert", snapshot="0000000000"),
        "Error: call to 'expert' references unresolved snapshot key "
        "'0000000000'. Suggestion: Use a snapshot key issued by an earlier "
        "observation.",
        True,
        False,
    ),
    "trivial_input": (
        [],
        _reply("expert", snapshot="tiny"),
        "Error: call to expert tool 'expert' provides trivial input (4 "
        "characters). Suggestion: Gather substantial data first and pass its "
        "snapshot key to the expert.",
        True,
        False,
    ),
    "early_finalize": (
        [ToolCall("fetch", {"job_id": "j1"})],
        _reply("finalize"),
        "Error: call to 'finalize' before a thorough investigation. "
        "Suggestion: Gather data with an information tool and analyze it with "
        "an expert tool before finalizing.",
        True,
        False,
    ),
    "unknown_tool": (
        [],
        _reply("nope"),
        "Error: unknown tool 'nope'. Valid tools: fetch, expert, finalize, "
        "scan, boom.",
        True,
        True,
    ),
    "missing_parameter": (
        [],
        _reply("fetch"),
        "Error: call to 'fetch' is missing required parameter 'job_id'.",
        True,
        True,
    ),
    "key_never_issued": (
        [],
        _reply("scan", snapshot="0000000000"),
        "Error: parameter references snapshot key '0000000000' which was never "
        "issued.",
        True,
        False,
    ),
    "handler_failure": (
        [],
        _reply("boom"),
        "Error: tool 'boom' failed: kaput",
        True,
        False,
    ),
    "unparsable_reply": (
        [],
        "I am not sure what to do next.",
        "Error: the step did not contain a parsable action. Emit exactly one "
        'JSON object of the form {"function": "<name>", "kwargs": { ... }} '
        "after your Thought.",
        True,
        True,
    ),
}


class TestFailedCalls:
    """The exact step a controller reply gets when its call fails: a rule
    stop, a dispatch error or no parsable action.  No workload fires these,
    so no golden holds their bytes."""

    @staticmethod
    def registry():
        registry = build_registry()
        registry.register(
            ToolSpec("scan", "Scan a blob.", [ToolParam("snapshot", "key")], KIND_INFO),
            lambda kwargs: "scanned",
        )
        registry.register(
            ToolSpec("boom", "b", [], KIND_INFO),
            lambda kwargs: (_ for _ in ()).throw(RuntimeError("kaput")),
        )
        return registry

    @pytest.mark.parametrize("case", list(_FAILED_CALLS))
    def test_step_bytes(self, case):
        prior, reply, observation, error, invalid = _FAILED_CALLS[case]
        trajectory = Trajectory(steps=[make_step(c.function, c.kwargs) for c in prior])
        config = AgentConfig(json_regen_enabled=False)
        step = run_step(config, trajectory, MockBackend([reply]), self.registry(), context())
        assert (step.observation, step.error_flag, step.invalid_flag) == (
            observation,
            error,
            invalid,
        )
        assert trajectory.steps[-1] is step
        assert trajectory.result is None

    def test_benchmark_tracer_counts_the_rule_that_fired(self):
        # the benchmark tallies tools.rule.<name> from what check_errors
        # returns, as the controller looks it up
        call = _reply("fetch", job_id="j1")
        backend = MockBackend([call, call])
        registry, trajectory = build_registry(), Trajectory()
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(2):
                run_step(AgentConfig(), trajectory, backend, registry, context())
        finally:
            tracer.uninstall()
        assert [step.error_flag for step in trajectory.steps] == [False, True]
        assert tracer.counts["tools.rule.duplicate_call"] == 1
