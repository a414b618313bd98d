"""Every public name and every settable value in src/chemoflow has a caller other than the tests.

A public module-level function or class, or a public method, must be
referenced (as an ast.Name or ast.Attribute) from a place in src/ outside
its own definition, from perfbench/*.py, or from a code span in README.md.
A classmethod counts as referenced only as `ClassName.method`, so
`VectorField.zeros` does not reach a `ScalarField.zeros`.  `__all__`
entries and imports are not references.  Plain forms that only
the tests call belong in tests/naive_operators.py.

A defaulted parameter of a public function or method, or a defaulted
field of a public dataclass, must be passed by some call in src/ or
perfbench/*.py (by keyword, by position, or through *args / **kwargs), or
by a keyword `name=` inside a README.md code span.  A value only the
tests set is a constant.
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


def _readme_spans():
    return re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S)


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
    spans = _readme_spans()
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


def _defaulted_parameters(function, skip_first):
    """(position, name) of each defaulted parameter, the position counted
    after `skip_first` leading parameters; None for keyword-only."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield index - skip_first, positional[index].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _settable_values():
    """(module.qualname.parameter, called name, position, parameter) of every
    defaulted parameter of a public function or method and every defaulted
    field of a public dataclass."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for pos, name in _defaulted_parameters(node, 0):
                    yield f"{path.stem}.{node.name}.{name}", node.name, pos, name
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                fields = [sub for sub in node.body
                          if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)]
                for pos, field in enumerate(fields):
                    if field.value is not None:
                        name = field.target.id
                        yield f"{path.stem}.{node.name}.{name}", node.name, pos, name
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    for pos, name in _defaulted_parameters(sub, 1):  # self or cls
                        yield f"{path.stem}.{node.name}.{sub.name}.{name}", sub.name, pos, name


def _calls(tree):
    """(called name, positional count, keyword names, has *args or **kwargs) of every call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            yield name, len(node.args), {k.arg for k in node.keywords}, starred


def test_every_settable_value_is_set_outside_the_tests():
    calls = {}
    for path in [*SRC, *sorted((ROOT / "perfbench").glob("*.py"))]:
        for name, npos, keywords, starred in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append((npos, keywords, starred))
    readme_keywords = set(re.findall(r"([A-Za-z_]\w*)=(?!=)", " ".join(_readme_spans())))

    unset = [qualname for qualname, called, pos, name in _settable_values()
             if name not in readme_keywords
             and not any(starred or name in keywords or (pos is not None and npos > pos)
                         for npos, keywords, starred in calls.get(called, ()))]
    assert unset == [], f"only the tests set {unset}; make them constants"
