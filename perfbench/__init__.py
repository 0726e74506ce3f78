"""Benchmark for the supertrial CLI; see run.py and BENCHMARK.json."""
