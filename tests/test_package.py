"""The package surface: its exports and the root of its errors."""

from __future__ import annotations

import pydoc
import re

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
