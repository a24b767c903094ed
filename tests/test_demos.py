"""Every script in ``demos/`` runs to the end and prints something.

The demos use the public API the way a reader would, so a change that
renames or folds a helper must keep them working too.  They run in this
interpreter, which has already imported ``symidx``.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
