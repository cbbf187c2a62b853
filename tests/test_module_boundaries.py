"""Module boundaries that the source must keep, checked on its syntax tree,
and the public surface that the package exports."""

import ast
import dataclasses
import inspect
import pathlib

import rabi_zeta

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


# rabi_zeta.__all__, and the parameter names of each exported function and
# dataclass (None for the other names: errors, modules and the family
# constants).  An option added to or removed from the public API changes
# this table, so it shows up in review as a diff of this test.
_PUBLIC_SURFACE = {
    "AperyCoefficients": "a b n family",
    "BergmanNu": "nu g delta eps",
    "DomainError": None,
    "ExactApery": "a_list b_list",
    "FLAT": None,
    "Flat": "",
    "HalfIntegerPole": None,
    "InvalidDimension": None,
    "LengthMismatch": None,
    "MINUS": None,
    "Minus": "",
    "Ncho": "alpha beta eta",
    "NearPole": None,
    "NoConvergence": None,
    "NodeSingularity": None,
    "Nu": "nu",
    "OnePhoton": "g delta eps",
    "PLUS": None,
    "Plus": "",
    "PoleError": None,
    "RabiZetaError": None,
    "RadiusExceeded": None,
    "SeriesValue": "value abs_error terms_used converged",
    "SingularOperator": None,
    "TridiagonalOperator": "basis nu dim diag offdiag shift",
    "TwoPhoton": "g delta eps",
    "ZetaRequest": "model n lam method max_m tol trunc_n",
    "ZetaResult": "value abs_error per_m_terms base_term metadata",
    "alternating_zeta_sum": "n a",
    "apery": None,
    "apery_ab_delta": "n delta lam eps",
    "apery_ab_flat": "n lam eps",
    "apery_classic": "n_max",
    "beukers_residual": "n",
    "binomial": "n k",
    "build_component_operator": "basis g shift sign N nu",
    "confluence_scan": "g delta eps lam n nu_list method trunc_n threads",
    "convergence_radius": "model lam",
    "dn_r_m_integral": "family lam g eps m n lambda_power",
    "dn_r_m_operator": "basis g lam eps m n N nu",
    "errors": None,
    "hurwitz_zeta": "n a",
    "hypergeometric_pfq": "upper lower x",
    "integrate_lattice": "f d",
    "integrate_tensor": "f d level",
    "j_delta": "n delta lam eps method tol",
    "j_flat": "n lam eps method tol",
    "operator_oracle": None,
    "parity_difference": "model n lam method max_m tol trunc_n",
    "partial_fraction_residual": "n lam eps x",
    "phi": "m u",
    "pochhammer": "x n",
    "psi": "m g u",
    "quadrature": None,
    "r_1_hypergeometric": "delta lam g eps",
    "r_1_series": "family lam g eps",
    "r_m_integral": "family lam g eps m",
    "r_m_operator": "basis g lam eps m N nu",
    "specfun": None,
    "tanh_sinh_nodes": "level",
    "trace_terms": None,
    "zeta_eigen_oracle": "model n lam N tol",
    "zeta_value": "req",
    "zeta_values": None,
}


def _parameters(obj) -> str | None:
    """The space-separated parameter names of a function or dataclass, else None."""
    if inspect.isfunction(obj) or (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
        return " ".join(inspect.signature(obj).parameters)
    return None


def test_public_surface_is_pinned():
    surface = {name: _parameters(getattr(rabi_zeta, name)) for name in rabi_zeta.__all__}
    assert surface == _PUBLIC_SURFACE
