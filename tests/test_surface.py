"""The public surface: what the package exports, what the benchmark wraps by
name, and the library example in the README."""

import importlib
import importlib.util
import re
from pathlib import Path

import eigenbound

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in eigenbound.__all__ if not hasattr(eigenbound, name)]
    assert missing == []


def test_benchmark_tracer_targets_resolve():
    # bench/tracer.py wraps these functions by name; a rename or deletion in
    # the package would silently drop a span from every benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"eigenbound.{module}"), name, None))
    ]
    assert missing == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
