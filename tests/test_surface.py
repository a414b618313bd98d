"""Every public name in src/chemoflow is reached by something other than the tests.

A public module-level function or class, or a public method, must be
referenced (as an ast.Name or ast.Attribute) from a place in src/ outside
its own definition, from perfbench/*.py, or from a code span in README.md.
A classmethod counts as referenced only as `ClassName.method`, so
`VectorField.zeros` does not reach a `ScalarField.zeros`.  `__all__`
entries and imports are not references.  Plain forms that only
the tests call belong in tests/naive_operators.py.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "chemoflow").glob("*.py"))

# entry points called from outside the package: the console script and
# the functions the README and the benchmark harness name
ENTRY_POINTS = {
    "cli.main",  # `chemoflow` console script in pyproject.toml
    "config.reference_config_text",  # README: writing the reference config
    "io.parse_timeseries",  # perfbench: reads timeseries.csv back
    "io.read_snapshot",  # perfbench: compares final states
}


def _public_definitions():
    """(module.qualname, module, node, name a reference must use) of every
    public function, class and method; a classmethod's is `Class.method`."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", path.stem, node, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        classmethod = any(isinstance(d, ast.Name) and d.id == "classmethod"
                                          for d in sub.decorator_list)
                        name = f"{node.name}.{sub.name}" if classmethod else sub.name
                        yield f"{path.stem}.{node.name}.{sub.name}", path.stem, sub, name


def _referenced_names(tree):
    """(name, line) of every ast.Name and ast.Attribute in `tree`, and
    `Name.attr` for an attribute of a plain name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}", node.lineno


def test_every_public_name_is_reached_outside_the_tests():
    src_refs = {}
    for path in SRC:
        for name, line in _referenced_names(ast.parse(path.read_text())):
            src_refs.setdefault(name, []).append((path.stem, line))
    outside = {name for path in sorted((ROOT / "perfbench").glob("*.py"))
               for name, _ in _referenced_names(ast.parse(path.read_text()))}
    spans = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S)
    outside |= set(re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?", " ".join(spans)))
    outside |= set(re.findall(r"[A-Za-z_]\w*", " ".join(spans)))

    defined, unreached = set(), []
    for qualname, module, node, name in _public_definitions():
        defined.add(qualname)
        elsewhere = [(m, line) for m, line in src_refs.get(name, ())
                     if not (m == module and node.lineno <= line <= node.end_lineno)]
        if not elsewhere and name not in outside and qualname not in ENTRY_POINTS:
            unreached.append(qualname)
    assert unreached == [], f"only the tests reach {unreached}; move them to tests/"
    assert ENTRY_POINTS <= defined, f"stale entry points {sorted(ENTRY_POINTS - defined)}"
