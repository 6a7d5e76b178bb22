"""The package's public names, and the names the benchmark looks up in it.

The benchmark under bench/ wraps and calls package attributes by name; a
rename or a moved function breaks it without failing any other test here.
"""

import ast
import importlib
import re
from pathlib import Path

import ubss

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_all_lists_the_public_names():
    assert ubss.__all__ == [
        "ConfigError",
        "EstimatedMatrix",
        "ExperimentConfig",
        "ExperimentResult",
        "OverlapMode",
        "RatioHistogram",
        "SeparationReport",
        "ThUwbConfig",
        "align_and_score",
        "build_histogram",
        "compute_ratios",
        "estimate_mixing",
        "generate_sources",
        "load_config",
        "mix",
        "run_experiment",
        "separate",
    ]
    for name in ubss.__all__:
        assert hasattr(ubss, name), name


def test_every_traced_attribute_resolves():
    # read as a literal, so the test neither runs bench code nor caches its bytecode
    tree = ast.parse((BENCH / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED")
    assert traced
    for module, attr, _ in traced:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_every_name_the_workloads_call_resolves():
    text = (BENCH / "workloads.py").read_text()
    called = set(re.findall(r"\b(pipeline|config|cli)\.([A-Za-z_]\w*)\(", text))
    assert {("pipeline", "build_sources"), ("config", "default_activity_eps"),
            ("config", "load_config"), ("cli", "main")} <= called
    for module, attr in called:
        assert callable(getattr(importlib.import_module(f"ubss.{module}"), attr)), (module, attr)
