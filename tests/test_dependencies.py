"""Dependency and layering audit over the repository's own source.

Two static checks, both read with :mod:`ast` (nothing is imported):

* every third-party top-level import under ``src/``, ``tests/``,
  ``benchmarks/`` and ``perfbench/`` — lazy imports inside functions
  included — is declared in ``setup.py`` (``install_requires`` or an
  extra) and appears in every dependency install line of the CI
  workflow, so a clean install of the declared dependencies can import
  and test everything;
* no module under ``src/repro/net/`` imports ``repro.cluster``: the
  cluster layer (the client path for one gateway or N shards) sits on top
  of the network runtime, never under it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "perfbench")

#: Import names whose distribution is named differently.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _imports(path: Path) -> set[str]:
    """Absolute module names imported anywhere in ``path``."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def _sources() -> list[Path]:
    return [path for root in SCANNED for path in sorted((ROOT / root).rglob("*.py"))]


def _third_party_imports() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for path in _sources():
        # First party: the package, plus the sibling modules a script
        # imports by bare name (``perfbench/run.py`` → ``workloads``).
        first_party = {"repro"} | {sibling.stem for sibling in path.parent.glob("*.py")}
        for module in _imports(path):
            top = module.split(".")[0]
            if top in sys.stdlib_module_names or top in first_party:
                continue
            found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def _declared_requirements() -> set[str]:
    """``install_requires`` plus every extra, read from the ``setup()`` call."""
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    (call,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    ]
    declared: set[str] = set()
    for keyword in call.keywords:
        if keyword.arg == "install_requires":
            declared.update(ast.literal_eval(keyword.value))
        elif keyword.arg == "extras_require":
            for requirements in ast.literal_eval(keyword.value).values():
                declared.update(requirements)
    return {_normalise(re.split(r"[<>=!~\[; ]", req, maxsplit=1)[0]) for req in declared}


def _ci_install_lines() -> list[set[str]]:
    """The package sets of every CI ``pip install`` line that installs
    dependencies (installing the checkout itself, ``-e .``, is not one)."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    lines = []
    for match in re.finditer(r"pip install (.+)", text):
        words = match.group(1).split()
        if "-e" in words:
            continue
        lines.append({_normalise(word) for word in words if not word.startswith("-")})
    return lines


def test_scan_sees_the_known_third_party_imports():
    """Guards the audit itself: a scanner that finds nothing passes vacuously."""
    assert {"numpy", "pytest", "yaml"} <= set(_third_party_imports())


def test_every_third_party_import_is_declared():
    declared = _declared_requirements()
    undeclared = {
        module: sorted(files)[:3]
        for module, files in _third_party_imports().items()
        if _normalise(DISTRIBUTIONS.get(module, module)) not in declared
    }
    assert not undeclared, f"imported but not declared in setup.py: {undeclared}"


def test_every_third_party_import_is_installed_by_every_ci_job():
    lines = _ci_install_lines()
    assert len(lines) >= 3, "expected one dependency install line per CI job"
    for module in _third_party_imports():
        distribution = _normalise(DISTRIBUTIONS.get(module, module))
        missing = [index for index, line in enumerate(lines) if distribution not in line]
        assert not missing, (
            f"{distribution} (imported as {module}) is missing from CI install "
            f"line(s) {missing}"
        )


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "repro" / "net").rglob("*.py")),
    ids=lambda path: path.name,
)
def test_net_does_not_import_cluster(path):
    offending = sorted(
        module
        for module in _imports(path)
        if module == "repro.cluster" or module.startswith("repro.cluster.")
    )
    assert not offending, f"{path.name} imports {offending}"
