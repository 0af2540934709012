"""Shared helpers for the benchmark suite.

Every paper benchmark regenerates one of the paper's tables or figures (see
the experiment index under "Tests and benchmarks" in README.md).  Results are
printed to stdout (run pytest with ``-s`` to see them live) and appended to
``benchmarks/results.txt``, so one run refreshes every table.
"""

import json
import os
from typing import Iterable

import pytest

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")


def pytest_collection_modifyitems(items):
    """Mark every benchmark as ``bench`` so they are filterable from CI."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def record(title: str, lines: Iterable[str]) -> None:
    """Print a result block and append it to benchmarks/results.txt."""
    block = [f"== {title} =="] + list(lines) + [""]
    text = "\n".join(block)
    print("\n" + text)
    with open(RESULTS_PATH, "a", encoding="utf-8") as handle:
        handle.write(text + "\n")


#: version of the BENCH_*.json artifact layout; bump on breaking changes so
#: downstream consumers of the uploaded artifacts can dispatch on it.
BENCH_SCHEMA_VERSION = 1


def record_json(name: str, payload) -> str:
    """Write a machine-readable benchmark artifact next to results.txt.

    ``name`` should follow the ``BENCH_<topic>.json`` convention; CI uploads
    these files so the perf/quality trajectory is tracked across pushes.
    Dict payloads are stamped with a top-level ``schema_version``.
    """
    if isinstance(payload, dict):
        payload.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    path = os.path.join(os.path.dirname(__file__), name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=float)
        handle.write("\n")
    print(f"[bench] wrote {path}")
    return path


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Start each benchmark session with a clean results file."""
    if os.path.exists(RESULTS_PATH):
        os.remove(RESULTS_PATH)
    yield


@pytest.fixture(autouse=True)
def _clean_param_store():
    from repro.ppl import primitives

    primitives.clear_param_store()
    yield
    primitives.clear_param_store()
