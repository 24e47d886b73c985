"""Benchmark of the cloudrca diagnosis pipeline; see ``run.py``."""
