"""The README's "Public surface" list and ``supertrial.__all__`` agree."""

import importlib
import re
from pathlib import Path

import supertrial

README = Path(__file__).resolve().parent.parent / "README.md"


def listed() -> list[tuple[str, str]]:
    """``(module, name)`` for each name of the list, by the module it is listed under."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    pairs = []
    for item in re.findall(r"^- (.*(?:\n  .*)*)", section, re.MULTILINE):
        module, *names = re.findall(r"`([^`]+)`", item)
        pairs += [(module, name) for name in names]
    return pairs


def test_list_matches_all():
    assert sorted(name for _, name in listed()) == sorted(supertrial.__all__)


def test_each_name_lives_in_its_listed_module():
    for module, name in listed():
        home = supertrial if module == "supertrial" else importlib.import_module(f"supertrial.{module}")
        assert hasattr(home, name), (module, name)
