"""scripts/value_grid.py --compare reads two grids with the standard library
alone: it runs where rabi_zeta cannot be imported."""

import json
import pathlib
import runpy
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "value_grid.py"
_GRID = [
    {"id": "zeta a", "value": "(1.5+0.25j)", "abs_error": "1e-10", "converged": True},
    {"id": "zeta b", "error": "NearPole"},
]


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
