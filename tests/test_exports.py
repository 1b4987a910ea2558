import re
import types
from pathlib import Path

import workrest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_lists_every_public_name():
    section = README.read_text().split("## Library use", 1)[1]
    paragraph = section.split("```", 1)[0]
    listed = re.findall(r"`(\w+)`", paragraph)
    public = [
        name for name, value in vars(workrest).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(public)
