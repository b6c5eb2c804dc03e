"""Benchmark of the skar_ray engine (see README.md)."""
