"""Prompt assets for the controller and expert agents.  Every call but the
controller's has its own system prompt below, which tells the calls apart."""

LOG_CHUNK_SYSTEM = "You analyze logs of stream-processing jobs."
LOG_SUMMARY_SYSTEM = "You summarize log analyses."
CODE_FILE_SYSTEM = "You analyze source code of cloud services."
CODE_SUMMARY_SYSTEM = "You summarize code analyses."
MERGE_SYSTEM = "You merge candidate answers."
REGEN_SYSTEM = (
    "You convert data between structured formats. Output only the converted data."
)

# the two instructions of the YAML round trip that repairs a model's JSON
YAML_EXTRACT_INSTRUCTION = "Extract structure into YAML"
JSON_RESTORE_INSTRUCTION = "Restore to correct JSON"

# the log chunk comes last in a chunk-analysis prompt, behind this line
LOG_CHUNK_DELIMITER = "=== Log chunk to analyze ===\n"

FRAMEWORK_RULES = """You are an autonomous diagnosis agent operating in a \
thought-action-observation loop. At every step you first write a short \
Thought explaining your reasoning, then emit exactly one Function call as a \
JSON object {"function": "<name>", "kwargs": { ... }}. The environment \
executes the call and appends an Observation. Continue until you can report \
findings, then call the finalize tool. Do not invent tools or observations. \
No example trajectories are provided; rely on the tool documentation."""

RESPONSIBILITY_RULES = """Responsibility determination rules:
Platform responsibility covers problems only the platform maintainer can fix:
1. Infrastructure layer: hardware failures, network connection failures, \
operating system upgrades.
2. Platform service layer: evicting a job in favor of higher-priority jobs, \
oversold computational resources being reclaimed, anomalies in \
administrative services (API server, SQL server, etc.), and bugs or \
incompatibilities in managed runtime components.
3. Unspecified problems: anything requiring further investigation of the \
cloud system itself before mitigation.
User responsibility covers misuse of the platform and anything the user can \
fix in self-service:
1. Deliberate operations: cancelling the job through SDK/API requests or the \
control console.
2. Configuration errors: resource insufficiency (memory leaks, configuration \
mistakes, insufficient quota) or missing high-availability settings such as \
restart or checkpointing.
3. Code issues: syntax errors, exceptions thrown by the job process or by \
upstream and downstream services, and anything resolvable by changing code.
4. Best-practice violations: any problem with a clear self-service \
mitigation, even if partly related to infrastructure."""

TASK_REQUIREMENTS = (
    """Task: determine the root cause of an anomalous stream-processing job.
Collect data with the information tools, analyze long content with the \
expert tools, and finish by calling finalize with four arguments: \
root_cause (the fundamental cause), solution (the mitigation), evidence \
(direct supporting content copied from observations), and responsibility \
(either "User" or "Platform").

"""
    + RESPONSIBILITY_RULES
)

ZERO_SHOT_COT = "Let's think step by step."

LOG_ANALYSIS_INSTRUCTION = (
    "You are a log analysis expert. Analyze the log chunk in the final "
    "section. "
    + ZERO_SHOT_COT
    + ' Respond with a JSON object {"interpretations": [...], "evidences": '
    "[...]} where each evidence string is copied verbatim from the log chunk "
    "and supports the interpretation at the same position."
)

LOG_SUMMARY_INSTRUCTION = (
    "Summarize the following log analyses into one overall interpretation "
    "and one evidence digest. "
    + ZERO_SHOT_COT
    + ' Respond with a JSON object {"interpretation": "...", "evidence": "..."}.'
)

CODE_ANALYSIS_INSTRUCTION = (
    "You are a code analysis expert. Read the source file below and explain "
    "what it does and how it could contribute to a job anomaly. "
    + ZERO_SHOT_COT
    + ' Respond with a JSON object {"analysis": "...", "suggestions": [...]} '
    "where suggestions lists other class names worth reading."
)

CODE_SUMMARY_INSTRUCTION = (
    "Summarize the following per-file code analyses into one coherent "
    "explanation relevant to diagnosing the anomaly. "
    + ZERO_SHOT_COT
)

AGGREGATE_INSTRUCTION = (
    "Several candidate answers for the same question are listed below. Merge "
    "them into a single answer of similar form and length, keeping the "
    "content most candidates agree on. Output only the merged answer."
)

INVALID_ACTION_OBSERVATION = (
    "Error: the step did not contain a parsable action. Emit exactly one "
    'JSON object of the form {"function": "<name>", "kwargs": { ... }} '
    "after your Thought."
)
