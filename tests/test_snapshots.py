import json
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrca.consistency import run_with_consistency
from cloudrca.errors import SnapshotKeyError
from cloudrca.sandbox import Sandbox, generate_scenarios
from cloudrca.snapshots import (
    DEFAULT_HEAD_LINES,
    EMPTY_OBSERVATION,
    HEAD_LINE_CHARS,
    KEY_WIDTH,
    SnapshotStore,
    looks_like_key,
    render_head,
    snapshot_keys,
)
from cloudrca.tools import KIND_INFO, ToolRegistry, ToolSpec, dispatch
from cloudrca.trajectory import ToolCall

from conftest import SlowBackend, make_config


def _crc32_table() -> list[int]:
    table = []
    for index in range(256):
        value = index
        for _ in range(8):
            value = (value >> 1) ^ 0xEDB88320 if value & 1 else value >> 1
        table.append(value)
    return table


_CRC32_TABLE = _crc32_table()


def crc32_oracle(text: str) -> int:
    """Independent reference: CRC-32 (reflected polynomial 0xEDB88320, as in
    zlib and PNG), one table lookup per UTF-8 byte."""
    value = 0xFFFFFFFF
    for byte in text.encode("utf-8"):
        value = (value >> 8) ^ _CRC32_TABLE[(value ^ byte) & 0xFF]
    return value ^ 0xFFFFFFFF


def known(store: SnapshotStore, key: str) -> bool:
    try:
        store.get(key)
    except SnapshotKeyError:
        return False
    return True


class TestKeyDerivation:
    def test_key_matches_crc32_oracle(self):
        # the standard CRC-32 check value
        assert crc32_oracle("123456789") == 0xCBF43926
        store = SnapshotStore()
        for text in ["hello", "line one\nline two", "日本語テキスト"]:
            key = store.put(text)
            assert key == f"{crc32_oracle(text):0{KEY_WIDTH}d}"

    def test_lone_surrogate_is_stored(self):
        # json.loads turns "\ud800" in a log line into a lone surrogate
        text = "ERROR lost heartbeat\ud800"
        store = SnapshotStore()
        key = store.put(text)
        assert store.get(key) == text
        assert key == f"{zlib.crc32(text.encode('utf-8', 'surrogatepass')):0{KEY_WIDTH}d}"

    def test_key_is_ten_decimal_digits(self):
        store = SnapshotStore()
        key = store.put("x" * 10000)
        assert len(key) == 10 and key.isdigit()

    def test_put_idempotent(self):
        store = SnapshotStore()
        assert store.put("same text") == store.put("same text")

    def test_collision_probes_linearly(self):
        # the first CRC-32 collision among the texts probe-0, probe-1, ...
        a, b = "probe-295784", "probe-19040060"
        assert a != b
        assert crc32_oracle(a) == crc32_oracle(b) == 2830132076
        store = SnapshotStore()
        key_a = store.put(a)
        key_b = store.put(b)
        assert key_a != key_b
        assert int(key_b) == (int(key_a) + 1) % (1 << 32)
        assert store.get(a_key := key_a) == a
        assert store.get(key_b) == b
        assert a_key != key_b


class TestStore:
    def test_put_of_empty_text_raises(self):
        with pytest.raises(ValueError, match="empty observation"):
            SnapshotStore().put("")

    def test_get_unknown_raises(self):
        with pytest.raises(SnapshotKeyError):
            SnapshotStore().get("0000000001")

    def test_branch_reads_through_and_isolates(self):
        parent = SnapshotStore()
        key = parent.put("parent text")
        child = parent.branch()
        assert child.get(key) == "parent text"
        child_key = child.put("child only")
        assert known(child, child_key)
        assert not known(parent, child_key)

    def test_resolve_args_substitutes_known_keys(self):
        store = SnapshotStore()
        key = store.put("full observation body")
        resolved = store.resolve_args({"snapshot": key, "other": "plain"})
        assert resolved == {"snapshot": "full observation body", "other": "plain"}

    def test_resolve_args_unknown_key_raises(self):
        store = SnapshotStore()
        with pytest.raises(SnapshotKeyError):
            store.resolve_args({"snapshot": "1234567890"})

    def test_resolve_args_only_resolves_the_snapshot_parameter(self):
        store = SnapshotStore()
        key = store.put("full text")
        resolved = store.resolve_args({"snapshot": key, "since": "1750000123"})
        assert resolved == {"snapshot": "full text", "since": "1750000123"}
        assert store.resolve_args({"other": key}) == {"other": key}

    def test_resolve_args_leaves_non_keys_alone(self):
        store = SnapshotStore()
        resolved = store.resolve_args({"job_id": "fj00000001", "n": 7})
        assert resolved == {"job_id": "fj00000001", "n": 7}

    def test_an_issued_key_with_a_line_end_passes_through(self):
        store = SnapshotStore()
        value = store.put("full text") + "\n"
        assert store.resolve_args({"snapshot": value}) == {"snapshot": value}

    def test_ten_non_ascii_digits_pass_through(self):
        # Arabic-Indic and fullwidth digits are str.isdigit() but not a key
        for value in ["\u0661" * 10, "\uff11" * 10]:
            assert SnapshotStore().resolve_args({"snapshot": value}) == {"snapshot": value}


class TestRenderHead:
    def test_sixty_lines_head_seven(self):
        text = "\n".join(f"line {i}" for i in range(60))
        rendered = render_head(text, "0123456789")
        lines = rendered.split("\n")
        assert lines[:7] == [f"line {i}" for i in range(7)]
        assert lines[7] == "...53 lines omitted."
        assert lines[8] == "[ snapshot: 0123456789 ]"
        assert len(lines) == 9

    def test_short_text_no_omission_marker(self):
        rendered = render_head("a\nb", "0000000042")
        assert rendered == "a\nb\n[ snapshot: 0000000042 ]"

    def test_empty_text_uses_sentinel(self):
        rendered = render_head("", "0000000042")
        assert rendered.split("\n")[0] == EMPTY_OBSERVATION

    def test_exactly_head_lines_no_marker(self):
        text = "\n".join(str(i) for i in range(DEFAULT_HEAD_LINES))
        rendered = render_head(text, "0000000001")
        assert "omitted" not in rendered

    def test_a_line_past_the_budget_is_cut_with_a_count(self):
        whole = "a" * HEAD_LINE_CHARS
        rendered = render_head(f"{whole}\n{whole}b", "0000000001")
        assert rendered.split("\n") == [
            whole,
            f"{whole}...1 chars omitted.",
            "[ snapshot: 0000000001 ]",
        ]


def _write_long_runtime_line(bundle: str, chars: int):
    """Put one line of ``chars`` chars second in each job's runtime log."""
    for job_id in os.listdir(bundle):
        path = os.path.join(bundle, job_id, "logs.runtime.jsonl")
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        text = "INFO  payload "
        records.insert(
            1, {"text": text + "x" * (chars - len(text)), "timestamp": records[0]["timestamp"]}
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)


class TestHeadBudget:
    def test_a_one_megabyte_line_is_cut_and_stored_whole(self):
        text = "x" * 1_000_000
        registry = ToolRegistry()
        registry.register(ToolSpec("dump", "Dump.", [], KIND_INFO), lambda kwargs: text)
        store = SnapshotStore()
        result = dispatch(registry, ToolCall("dump", {}), store)
        assert len(result.observation) <= 4096
        assert store.get(snapshot_keys(result.observation)[-1]) == text

    def test_a_long_log_line_leaves_prompts_near_the_plain_bundle(self, tmp_path):
        prompt_chars = []
        for chars in (None, 200_000):
            bundle = str(tmp_path / f"bundle-{chars}")
            generate_scenarios(seed=4242, count=2, out_dir=bundle)
            if chars:
                _write_long_runtime_line(bundle, chars)
            sandbox = Sandbox(bundle)
            per_job = []
            for job_id in sandbox.job_ids:
                backend = SlowBackend(0.0, malformed_pct=10)
                report = run_with_consistency(
                    make_config(job_id), sandbox.build_registry, backend
                )
                assert report.greedy.passed
                per_job.append(backend.calls["prompt_chars"])
            prompt_chars.append(per_job)
        plain, long_line = prompt_chars
        assert all(late <= 2 * base for base, late in zip(plain, long_line))


class TestParse:
    def test_roundtrip(self):
        rendered = render_head("some\nlong\ntext", "0987654321")
        assert snapshot_keys(rendered)[-1] == "0987654321"

    def test_absent(self):
        assert snapshot_keys("no key here") == []

    def test_every_key_line_in_both_forms_in_order(self):
        text = (
            "[ snapshot: 0000000001 ]\n"
            "see [ snapshot: 0000000009 ] inline\n"
            "<: snapshot: 0000000002 :>\n"
            "[ snapshot: 0000000003 ]"
        )
        assert snapshot_keys(text) == ["0000000001", "0000000002", "0000000003"]

    def test_looks_like_key(self):
        assert looks_like_key("0123456789")
        assert not looks_like_key("123456789")  # 9 digits
        assert not looks_like_key("fj00000001")
        assert not looks_like_key("0123456789\n")
        assert not looks_like_key("\u0661" * 10)

    def test_a_key_line_holds_ten_ascii_digits(self):
        text = "[ snapshot: " + "\u0661" * 10 + " ]\n<: snapshot: " + "\uff11" * 10 + " :>"
        assert snapshot_keys(text) == []


@settings(max_examples=200)
@given(st.text(min_size=1, max_size=2000))
def test_render_parse_roundtrip_property(text):
    store = SnapshotStore()
    key = store.put(text)
    rendered = render_head(text, key)
    assert snapshot_keys(rendered)[-1] == key
    assert store.get(key) == text


@settings(max_examples=200)
@given(st.text(min_size=1, max_size=2000))
def test_store_roundtrip_property(text):
    store = SnapshotStore()
    assert store.get(store.put(text)) == text
