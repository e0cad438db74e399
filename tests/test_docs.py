"""The README names only what exists: every test id, BENCH file and library
name it cites in backticks resolves, and its benchmark index lists every
committed BENCH file."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Backticked spans outside fenced code blocks.
SPANS = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
MODULES = {"mk": "matkernel", "matkernel": "matkernel", "oracle": "oracle",
           "data": "data", "solvers": "solvers", "harness": "harness"}


def defined_tests():
    """{name: set of enclosing class names ('' at module level)} for every
    Test* class and test_* function in the test files."""
    found = {}
    for path in [*(ROOT / "tests").glob("test_*.py"), *(ROOT / "perfbench").glob("test_*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
                found.setdefault(node.name, set()).add("")
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name.startswith("test_"):
                        found.setdefault(item.name, set()).add(node.name)
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                found.setdefault(node.name, set()).add("")
    return found


def test_cited_test_ids_exist():
    found = defined_tests()
    cited = [s for s in SPANS if re.fullmatch(r"(Test\w+::)?test_\w+|Test\w+", s)]
    assert cited
    for span in cited:
        owner, _, name = span.rpartition("::")
        assert name in found, span
        assert not owner or owner in found[name], span


def test_cited_bench_files_exist():
    cited = set(re.findall(r"BENCH_\w+\.json", README))
    assert cited
    for name in sorted(cited):
        assert (ROOT / name).is_file(), name


def test_every_bench_file_is_indexed():
    indexed = set(re.findall(r"^\| `(BENCH_\w+\.json)` \|", README, flags=re.M))
    committed = {path.name for path in ROOT.glob("BENCH_*.json")}
    assert committed and committed <= indexed, sorted(committed - indexed)


@pytest.mark.parametrize("prefix", sorted(MODULES))
def test_cited_library_names_resolve(prefix):
    module = importlib.import_module(f"iqnlab.{MODULES[prefix]}")
    for span in SPANS:
        for path in re.findall(rf"(?<![\w.]){prefix}\.(?!py\b)([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", span):
            target = module
            for attr in path.split("."):
                assert hasattr(target, attr), f"{prefix}.{path}"
                target = getattr(target, attr)
