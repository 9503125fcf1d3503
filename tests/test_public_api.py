import ast
import os
import re
import types

import pytest

import prrseq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def test_all_is_sorted_without_duplicates():
    assert prrseq.__all__ == sorted(set(prrseq.__all__))


def test_all_is_every_public_name_the_package_binds():
    bound = {
        name
        for name, value in vars(prrseq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(prrseq.__all__) == bound


def test_readme_library_example_runs():
    with open(README) as fh:
        library = fh.read().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_lower_level_names_are_exported():
    with open(README) as fh:
        text = fh.read()
    paragraph = text.split("Lower-level pieces are exported too:", 1)[1].split("\n\n", 1)[0]
    # bare names in backticks, with or without a call signature
    names = set(re.findall(r"`([A-Za-z_]\w*)[`(]", paragraph))
    assert len(names) >= 10
    assert names <= set(prrseq.__all__)


def test_version_matches_pyproject():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        declared = re.search(r'^version = "([^"]+)"', fh.read(), re.M).group(1)
    assert prrseq.__version__ == declared


def source_paths():
    paths = [
        os.path.join(dirpath, name)
        for top in ("src", "tests", "bench", "scripts")
        for dirpath, _, names in os.walk(os.path.join(ROOT, top))
        for name in names
        if name.endswith(".py")
    ]
    assert len(paths) > 20
    return paths


def test_every_source_file_parses_at_the_oldest_supported_python():
    # no interpreter at the requires-python floor may be at hand, but its
    # grammar is: ast rejects newer syntax, such as except*, at that version
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"', fh.read(), re.M).groups()
    version = tuple(map(int, floor))
    for path in source_paths():
        with open(path) as fh:
            ast.parse(fh.read(), path, feature_version=version)


def test_every_imported_name_is_used_or_exported():
    # a deletion must take the imports only it used with it
    unused = []
    for path in source_paths():
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [
            f"{os.path.relpath(path, ROOT)}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def test_bulk_records_keep_no_instance_dict():
    # decompose builds one Cycle and State per cycle and a tree's edges one
    # TreeEdge per pair: slots keep each instance to its fields
    state = prrseq.State(5, 4)
    structure = prrseq.decompose(4)
    edge = prrseq.extract_tree(prrseq.RuleSpec.parse("sala:n=4")).edges[0]
    for record in (state, structure.pcr_cycles[0], structure, edge):
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(AttributeError):
        state.value = 6
