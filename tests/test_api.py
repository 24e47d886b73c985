"""The package's public surface: every exported name must resolve."""

import cloudrca


def test_every_exported_name_resolves():
    missing = [name for name in cloudrca.__all__ if not hasattr(cloudrca, name)]
    assert missing == []
