"""The package formats JSON in one place: ``serialize.to_json``.

Reports and documents must keep one layout, so no module under
``src/supertrial`` may call the standard library's encoder, whose indented
path is also the slow one.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supertrial"
ENCODER = re.compile(r"\bjson\s*\.\s*dumps?\b|\bJSONEncoder\b|\bfrom\s+json\s+import\b[^\n]*\bdumps?\b")


def test_no_module_calls_the_standard_encoder():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [
        f"{path.name}:{n}: {line.strip()}"
        for path in modules
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if ENCODER.search(line)
    ]
    assert not found, "format JSON through serialize.to_json:\n" + "\n".join(found)


def test_the_pattern_catches_each_spelling():
    for line in ("print(json.dumps(doc, indent=2))", "json.dump(doc, fh)", "from json import dumps", "class E(json.JSONEncoder):"):
        assert ENCODER.search(line), line
    for line in ("import json", "json.loads(text)", "from json.encoder import encode_basestring_ascii", "to_json(doc)"):
        assert not ENCODER.search(line), line
