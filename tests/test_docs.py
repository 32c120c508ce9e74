"""The README's library example runs, and the public names exist."""
import re
from pathlib import Path

import lindcur

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    missing = [name for name in lindcur.__all__ if not hasattr(lindcur, name)]
    assert missing == []
    assert len(set(lindcur.__all__)) == len(lindcur.__all__)
