"""API-surface contract tests: exports stay consistent and importable."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.bench",
    "repro.cohesion",
    "repro.core",
    "repro.datasets",
    "repro.errors",
    "repro.flow",
    "repro.graph",
    "repro.metrics",
    "repro.obs",
    "repro.parallel",
    "repro.resilience",
    "repro.serving",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_all_is_accurate(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} must declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"
    # __all__ stays sorted so diffs are readable (dunders excluded)
    plain = [s for s in exported if not s.startswith("__")]
    assert plain == sorted(plain), f"{name}.__all__ is not sorted"


def test_top_level_reexports_core_api():
    import repro

    for symbol in (
        "Graph",
        "ripple",
        "ripple_me",
        "vcce_td",
        "vcce_bu",
        "vcce_hybrid",
        "kvcc_hierarchy",
        "kvcc_containing",
        "verify_result",
        "accuracy_report",
        "parallel_ripple",
        "KvccIndex",
        "QueryEngine",
    ):
        assert hasattr(repro, symbol), symbol


def test_version_is_pep440ish():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)


def test_exception_hierarchy():
    from repro.errors import (
        GraphError,
        ParameterError,
        ParseError,
        ReproError,
    )

    assert issubclass(GraphError, ReproError)
    assert issubclass(ParseError, ReproError)
    assert issubclass(ParameterError, ReproError)
    assert issubclass(ParameterError, ValueError)  # documented contract


def test_cli_bench_registry_matches_parser():
    from repro.cli import _BENCHES, build_parser

    parser = build_parser()
    # every registered bench is an accepted CLI choice
    for name in _BENCHES:
        args = parser.parse_args(["bench", name])
        assert args.experiment == name


def test_reproduce_script_importable():
    """The one-shot report script imports cleanly (no side effects)."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).parent.parent / "scripts" / "reproduce.py"
    spec = importlib.util.spec_from_file_location("reproduce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    from repro.cli import _BENCHES

    # The report renders every `ripple bench` table, each once.
    assert sorted(module.SECTIONS) == sorted(_BENCHES)
