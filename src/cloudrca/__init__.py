"""Tool-augmented autonomous agent for root cause analysis of cloud job
anomalies.

Public surface: LLM backends, the snapshot store for long observations,
JSON action repair, the tool registry and controller loop, the log and code
expert sub-agents, self-consistency aggregation, evaluation metrics, and a
deterministic synthetic incident sandbox.
"""

from .agent import AgentConfig, run_step, run_trajectory
from .backends import (
    Backend,
    ChatExchange,
    GenerationParams,
    HttpBackend,
    MockBackend,
    cosine,
    generate_adaptive,
)
from .consistency import (
    AggregationOutcome,
    ConsistencyReport,
    aggregate,
    run_with_consistency,
    sc_stepwise,
    tsc,
    vote_with_embedding,
)
from .errors import (
    CloudRcaError,
    ConfigurationError,
    ProtocolError,
    SnapshotKeyError,
    TransportError,
)
from .logexpert import (
    evidence_accepted,
    louvain,
    partition,
    remove_overlaps,
    run_log_expert,
)
from .codeexpert import RepoIndex, run_code_expert
from .metrics import (
    JobOutcome,
    NotComputable,
    build_report,
    invalid_rate,
    norm_score,
    pass_rate,
)
from .mockpolicy import PolicyBackend
from .sandbox import Sandbox, generate_scenarios
from .snapshots import SnapshotStore, render_head, snapshot_keys
from .structured import (
    RepairOutcome,
    extract_json,
    fix_escapes,
    json_regen,
    sanitize_prompt,
)
from .textdist import levenshtein, normalized_similarity
from .tools import ToolParam, ToolRegistry, ToolSpec, dispatch
from .trajectory import AnalysisResult, Step, ToolCall, Trajectory

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "AggregationOutcome",
    "AnalysisResult",
    "Backend",
    "ChatExchange",
    "CloudRcaError",
    "ConfigurationError",
    "ConsistencyReport",
    "GenerationParams",
    "HttpBackend",
    "JobOutcome",
    "MockBackend",
    "NotComputable",
    "PolicyBackend",
    "ProtocolError",
    "RepairOutcome",
    "RepoIndex",
    "Sandbox",
    "SnapshotKeyError",
    "SnapshotStore",
    "Step",
    "ToolCall",
    "ToolParam",
    "ToolRegistry",
    "ToolSpec",
    "Trajectory",
    "TransportError",
    "aggregate",
    "build_report",
    "cosine",
    "dispatch",
    "evidence_accepted",
    "extract_json",
    "fix_escapes",
    "generate_adaptive",
    "generate_scenarios",
    "invalid_rate",
    "json_regen",
    "levenshtein",
    "louvain",
    "norm_score",
    "normalized_similarity",
    "partition",
    "pass_rate",
    "remove_overlaps",
    "render_head",
    "run_code_expert",
    "run_log_expert",
    "run_step",
    "run_trajectory",
    "run_with_consistency",
    "sanitize_prompt",
    "sc_stepwise",
    "snapshot_keys",
    "tsc",
    "vote_with_embedding",
]
