"""The package surface: its exports and the root of its errors."""

from __future__ import annotations

import os
import pydoc
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kopt12
from kopt12 import cli, errors
from kopt12.cli import main

ERROR_CLASSES = [
    obj
    for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_has_the_root_and_exits_2(cls, capsys, monkeypatch):
    if cls is not errors.Kopt12Error:
        assert issubclass(cls, errors.Kopt12Error)
        builtin = RuntimeError if cls is errors.ConstructionError else ValueError
        assert issubclass(cls, builtin)

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_exact", fail)
    assert main(["exact", "--instance", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


def test_help_lists_every_export():
    text = pydoc.render_doc(kopt12, renderer=pydoc.plaintext)
    assert "\nCLASSES\n" in text and "\nFUNCTIONS\n" in text
    for name in kopt12.__all__:
        assert re.search(rf"^    (class )?{name}\b", text, re.MULTILINE), name


def test_import_leaves_the_process_pool_unloaded():
    # Only a sweep with more than one worker uses the process pool, so a
    # fresh interpreter's import of the package loads none of it.
    src = str(Path(kopt12.__file__).parents[1])
    code = (
        "import sys, kopt12\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
