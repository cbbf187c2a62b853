"""scripts/value_grid.py: --compare reads two grids with the standard
library alone, so it runs where rabi_zeta cannot be imported; and the tree's
full grid matches the one stored in tests/value_grid_reference.jsonl."""

import json
import pathlib
import runpy
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "value_grid.py"
_REFERENCE = pathlib.Path(__file__).with_name("value_grid_reference.jsonl")
_GRID = [
    {"id": "zeta a", "value": "(1.5+0.25j)", "abs_error": "1e-10", "converged": True},
    {"id": "zeta b", "error": "NearPole"},
]
_BARS = ("abs_error", "bar")
_TERMS = ("value", "base_term", "per_m_terms")


def _write(path, records) -> str:
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return str(path)


@pytest.fixture
def no_library(monkeypatch):
    """Every import of rabi_zeta or one of its modules fails from here on."""
    for name in [n for n in sys.modules if n.startswith("rabi_zeta.")]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "rabi_zeta", None)


def test_compare_runs_without_the_library(tmp_path, capsys, no_library):
    main = runpy.run_path(str(_SCRIPT))["main"]
    a, b = _write(tmp_path / "a.jsonl", _GRID), _write(tmp_path / "b.jsonl", _GRID)
    assert main(["--compare", a, b]) == 0
    assert "no field differs" in capsys.readouterr().out
    moved = _write(tmp_path / "moved.jsonl", [{**_GRID[0], "value": "(1.5+0.5j)"}, _GRID[1]])
    assert main(["--compare", a, moved]) == 1
    assert "value: 1 differ" in capsys.readouterr().out


def _moved_fields(got: dict, want: dict, numbers) -> list:
    """The fields of a grid entry that moved from the stored entry want.
    Exception types and fields other than values and bars must be equal.
    A value, base term or m-term may move by 1e-4 of the stored abs_error,
    and abs_error or an eigen bar by 1e-6 of itself; each also by a
    rounding floor of 1e-13 (values) or 1e-12 (bars) of the stored value.
    The operator sweep and the eigen oracle sum their traces with BLAS dots
    whose grouping follows the thread count: one thread against two moved
    their values by up to 6.1e-2 of abs_error but only 2.2e-15 of the
    value, and a near-pole sweep bar made of rounding by 0.89 of itself
    but 8.4e-14 of its value."""
    if "error" in got or "error" in want:
        return [] if got == want else ["error"]
    if got.keys() != want.keys():
        return sorted(got.keys() ^ want.keys())
    scale = max(map(abs, numbers(want.get("value", "0"))))
    moved = []
    for name in want:
        if got[name] == want[name]:
            continue
        if name not in _BARS + _TERMS:
            moved.append(name)
            continue
        a, b = numbers(got[name]), numbers(want[name])
        if name in _BARS:
            allowance = 1e-6 * abs(b[0]) + 1e-12 * scale
        else:
            allowance = 1e-4 * float(want["abs_error"]) + 1e-13 * scale
        if len(a) != len(b) or any(not abs(x - y) <= allowance for x, y in zip(a, b)):
            moved.append(name)
    return moved


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_matches_the_stored_reference():
    # A change that moves values on purpose regenerates the reference
    # (value_grid.py --out) and quotes --compare against the old one.
    script = runpy.run_path(str(_SCRIPT))
    grid = [script["record"](key, thunk) for key, thunk in script["entries"](False)]
    with open(_REFERENCE) as fh:
        reference = [json.loads(line) for line in fh]
    assert [rec["id"] for rec in grid] == [rec["id"] for rec in reference]
    moved = [(want["id"], fields) for got, want in zip(grid, reference)
             if (fields := _moved_fields(got, want, script["_numbers"]))]
    assert not moved, f"{len(moved)} entries moved: {moved[:10]}"
