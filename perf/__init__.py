"""Wall-clock, memory and per-layer benchmark of the GraphSD reproduction.

Lives outside ``src/`` on purpose: it measures the program through its
public entry points and never changes it. See ``perf/README.md``.
"""
