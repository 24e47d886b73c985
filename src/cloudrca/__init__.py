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
    Candidate,
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
    LogChunk,
    RetrievalStore,
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
    emb_score,
    fill_baseline,
    invalid_rate,
    norm_score,
    pass_rate,
)
from .mockpolicy import PolicyBackend
from .sandbox import Sandbox, generate_scenarios
from .snapshots import SnapshotStore, parse_snapshot_key, render_head
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
    "Candidate",
    "ChatExchange",
    "CloudRcaError",
    "ConfigurationError",
    "ConsistencyReport",
    "GenerationParams",
    "HttpBackend",
    "JobOutcome",
    "LogChunk",
    "MockBackend",
    "NotComputable",
    "PolicyBackend",
    "ProtocolError",
    "RepairOutcome",
    "RepoIndex",
    "RetrievalStore",
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
    "emb_score",
    "evidence_accepted",
    "extract_json",
    "fill_baseline",
    "fix_escapes",
    "generate_adaptive",
    "generate_scenarios",
    "invalid_rate",
    "json_regen",
    "levenshtein",
    "louvain",
    "norm_score",
    "normalized_similarity",
    "parse_snapshot_key",
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
    "tsc",
    "vote_with_embedding",
]
