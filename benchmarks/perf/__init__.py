"""Pinned, probe-normalised performance benchmark (see README.md here).

Entry point: ``python3 benchmarks/perf/run.py``.  Only :mod:`perf.adapter`
touches the program under test.
"""
