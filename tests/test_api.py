"""The public API contract: every root export has a job, and one precondition guards the slice."""

import ast
import math
import re
from pathlib import Path

import pytest

from qcohere import classify, measures
from qcohere.states import CanonicalThreeQubit, OutOfFamilyError, StateError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcohere"


def _root_exports() -> set:
    """The names of the package root's export table, read from its source."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
    ]
    return set(ast.literal_eval(table))


def _references(node) -> set:
    """Names a piece of code loads or reads as attributes (imports are not uses)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _referenced_in_src() -> set:
    """Names used in the package's modules, each outside the definition that makes it."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            defined = getattr(node, "name", None)
            used |= _references(node) - {defined}
    return used


def _readme_api_names() -> set:
    """The names in the bulleted list of the README's Python API section."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Python API\n(.*?)(?=^## )", text, re.S | re.M)
    assert section, "README.md has no '## Python API' section"
    items = re.findall(r"^(?:\* |  ).*$", section.group(1), re.M)
    return set(re.findall(r"`(\w+)", "\n".join(items)))


def test_every_root_export_has_a_caller_or_is_a_documented_entry_point():
    exports = _root_exports()
    assert exports
    orphans = exports - _referenced_in_src() - _readme_api_names()
    assert not orphans, f"exported, but no caller in src/ and not in the README API: {orphans}"


def test_the_readme_api_names_only_exported_names():
    assert _readme_api_names() <= _root_exports()


def test_there_is_one_zero_phase_precondition():
    raises = [
        (path.name, line)
        for path in PACKAGE.glob("*.py")
        for line in path.read_text().splitlines()
        if "raise OutOfFamilyError" in line
    ]
    assert len(raises) == 1, raises
    assert issubclass(OutOfFamilyError, StateError)


_POINT = (0.3, 0.2, 0.25, 0.35, math.sqrt(0.685))

_ZERO_PHASE = [
    (measures.partial_concurrences_analytic, "the partial concurrence"),
    (measures.reduced_coherences_analytic, "the reduced coherence"),
    (classify.coherence_difference, "the coherence difference"),
    (classify.discriminate, "discrimination"),
    (classify.concurrence_sum_check, "the concurrence-sum check"),
    (classify.coherence_product_check, "the coherence-product check"),
    (classify.coherence_monogamy_check, "the coherence-monogamy check"),
    (classify.observable_closed_forms, "the observable closed forms"),
]


@pytest.mark.parametrize(
    "fn, what", _ZERO_PHASE, ids=[fn.__name__ for fn, _ in _ZERO_PHASE]
)
@pytest.mark.parametrize("stack", [False, True], ids=["point", "stack"])
def test_zero_phase_forms_refuse_a_phase_with_the_one_error(fn, what, stack):
    lambdas = [[v, v] for v in _POINT] if stack else _POINT
    p = CanonicalThreeQubit(*lambdas, theta=0.3)
    message = f"^{re.escape(what)} is defined on the zero-phase slice, got theta=0.3$"
    with pytest.raises(OutOfFamilyError, match=message):
        fn(p)
    fn(CanonicalThreeQubit(*lambdas, theta=0.0))


def _numpy_linalg_uses(tree) -> list:
    """Lines where a module imports numpy.linalg or reads it as ``np.linalg``/``numpy.linalg``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.linalg") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.linalg") or (
                module == "numpy" and any(a.name == "linalg" for a in node.names)
            )
        else:
            hit = (
                isinstance(node, ast.Attribute)
                and node.attr == "linalg"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
        if hit:
            lines.append(node.lineno)
    return lines


def test_numpy_linalg_is_a_test_only_oracle():
    assert _numpy_linalg_uses(ast.parse("import numpy as np\nnp.linalg.eigh(a)")) == [2]
    uses = {
        path.name: lines
        for path in PACKAGE.glob("*.py")
        if (lines := _numpy_linalg_uses(ast.parse(path.read_text())))
    }
    assert not uses, f"numpy.linalg used in src/: {uses}"
