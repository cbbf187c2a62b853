"""Module boundaries that the source must keep, checked on its syntax tree."""

import ast
import pathlib

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rabi_zeta"


def _private_oracle_names(path: pathlib.Path) -> list:
    """The _-prefixed operator_oracle names that the module at `path` imports
    or reads as an attribute of the operator_oracle module."""
    tree = ast.parse(path.read_text())
    aliases = set()  # local names bound to the operator_oracle module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "operator_oracle":
                found += [a.name for a in node.names if a.name.startswith("_")]
            aliases |= {a.asname or a.name for a in node.names if a.name == "operator_oracle"}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[-1] == "operator_oracle":
                    aliases.add(a.asname or a.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in aliases) or (
                isinstance(owner, ast.Attribute) and owner.attr == "operator_oracle"
            ):
                found.append(node.attr)
    return found


def test_private_oracle_names_stay_in_the_oracle():
    # The calibration facts (the bar floor, the budget's start, the ladder
    # floor) are decided in operator_oracle alone; other modules reach them
    # through its public helpers.
    modules = sorted(_SRC.glob("*.py"))
    assert any(path.name == "zeta_values.py" for path in modules)
    found = {
        path.name: names
        for path in modules
        if path.name != "operator_oracle.py" and (names := _private_oracle_names(path))
    }
    assert found == {}


def test_the_check_sees_each_kind_of_use(tmp_path):
    path = tmp_path / "probe.py"
    for source, names in [
        ("from .operator_oracle import _MIN_TOP, PLUS\n", ["_MIN_TOP"]),
        ("from rabi_zeta.operator_oracle import _tops as t\n", ["_tops"]),
        ("from . import operator_oracle as oo\nx = oo._MIN_BAR_TOP\n", ["_MIN_BAR_TOP"]),
        ("import rabi_zeta.operator_oracle\nx = rabi_zeta.operator_oracle._f\n", ["_f"]),
        ("from . import operator_oracle\nx = operator_oracle.family_rows\n", []),
        ("from .specfun import _digamma\n", []),
    ]:
        path.write_text(source)
        assert _private_oracle_names(path) == names, source
