import re
import types
from pathlib import Path

import mapdeg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_documented_under_library_use():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    exported = [
        name
        for name, value in vars(mapdeg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(exported) > 40
    missing = [name for name in exported if not re.search(rf"`{name}[`(]", section)]
    assert missing == []
