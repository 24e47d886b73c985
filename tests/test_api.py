"""The package's public surface: every exported name must resolve, and so
must every lookup name the benchmark's tracer binds."""

import cloudrca
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
