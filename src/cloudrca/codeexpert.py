"""Recursive code analysis expert.

Given a class name, find its file in the repository, have the model analyze
it and suggest further classes, and walk the suggestion graph breadth-first
until nothing of interest remains, everything left is an external dependency,
or the file cap is reached.  A final model call summarizes all analyses.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from . import prompts
from .backends import GREEDY_PARAMS, Backend, ChatExchange
from .structured import json_regen
from .tools import KIND_EXPERT, ToolParam, ToolSpec

DEFAULT_MAX_FILES = 12


@dataclass
class RepoIndex:
    root: str
    class_to_path: dict[str, str] = field(default_factory=dict)
    external_prefixes: list[str] = field(default_factory=list)
    ambiguous: list[str] = field(default_factory=list)

    @classmethod
    def build(cls, root: str, external_prefixes: Optional[list[str]] = None) -> "RepoIndex":
        """Map file stems to paths.  When a stem appears more than once the
        shallower path wins, ties break lexicographically."""
        candidates: dict[str, list[str]] = {}
        for dirpath, _, filenames in os.walk(root):
            for name in sorted(filenames):
                stem = os.path.splitext(name)[0]
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                candidates.setdefault(stem, []).append(rel)
        index = cls(root=root, external_prefixes=external_prefixes or [])
        for stem, paths in candidates.items():
            if len(paths) > 1:
                index.ambiguous.append(stem)
            paths.sort(key=lambda p: (len(p.split(os.sep)), p))
            index.class_to_path[stem] = paths[0]
        return index

    def is_external(self, class_name: str) -> bool:
        return any(
            class_name == p or class_name.startswith(p + ".")
            for p in self.external_prefixes
        )


def find_class_file(index: RepoIndex, class_name: str) -> Optional[str]:
    if index.is_external(class_name):
        return None
    rel = index.class_to_path.get(class_name)
    if rel is None:
        return None
    return os.path.join(index.root, rel)


@dataclass
class CodeExpertConfig:
    max_files: int = DEFAULT_MAX_FILES

    def __post_init__(self):
        if self.max_files < 1:
            raise ValueError("max_files must be >= 1")


def analyze_file(backend: Backend, source_text: str) -> tuple[str, list[str]]:
    raw = backend.complete(
        ChatExchange(
            system_prompt="You analyze source code of cloud services.",
            messages=[
                ("user", f"{prompts.CODE_ANALYSIS_INSTRUCTION}\n\n{source_text}")
            ],
        ),
        GREEDY_PARAMS,
    )
    outcome = json_regen(backend, raw)
    if not outcome.ok:
        return raw.strip(), []
    analysis = str(outcome.value.get("analysis", "")).strip()
    suggestions = outcome.value.get("suggestions")
    names = []
    if isinstance(suggestions, list):
        for name in suggestions:
            if isinstance(name, str) and name.strip():
                names.append(name.strip())
    return analysis or raw.strip(), names


def run_code_expert(
    backend: Backend,
    index: RepoIndex,
    root_class: str,
    config: Optional[CodeExpertConfig] = None,
) -> str:
    """BFS over the suggestion graph with a visited set and a file cap."""
    cfg = config or CodeExpertConfig()
    pending: deque[str] = deque([root_class])
    visited: set[str] = set()
    externals: list[str] = []
    analyses: list[tuple[str, str]] = []
    root_path = find_class_file(index, root_class)
    if root_path is None:
        return f"class {root_class!r} not found in repository"
    while pending and len(analyses) < cfg.max_files:
        name = pending.popleft()
        if name in visited:
            continue
        visited.add(name)
        if index.is_external(name):
            externals.append(name)
            continue
        path = find_class_file(index, name)
        if path is None:
            externals.append(name)
            continue
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        analysis, suggestions = analyze_file(backend, source)
        analyses.append((name, analysis))
        for suggestion in suggestions:
            if suggestion not in visited:
                pending.append(suggestion)
    listing = "\n\n".join(f"Class {name}:\n{text}" for name, text in analyses)
    summary = backend.complete(
        ChatExchange(
            system_prompt="You summarize code analyses.",
            messages=[
                ("user", f"{prompts.CODE_SUMMARY_INSTRUCTION}\n\n{listing}")
            ],
        ),
        GREEDY_PARAMS,
    )
    if externals:
        summary += f"\n(External dependencies not analyzed: {', '.join(sorted(set(externals)))})"
    return summary


def code_agent_toolspec() -> ToolSpec:
    return ToolSpec(
        name="code_agent",
        description="Recursively analyze a class and the classes it depends "
        "on in the service code repository.",
        params=[
            ToolParam("class_name", "string", True, "name of the class to analyze")
        ],
        kind=KIND_EXPERT,
        stateless=True,
        trivial_input_floor=1,
    )


def make_code_agent_handler(backend: Backend, index: RepoIndex):
    def handler(kwargs: dict) -> str:
        class_name = kwargs.get("class_name", "")
        if not isinstance(class_name, str) or not class_name.strip():
            raise ValueError("code_agent requires a class name")
        return run_code_expert(backend, index, class_name.strip())

    return handler
