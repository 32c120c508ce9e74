"""The README's library example runs, its config block shows the
defaults, and the public names exist."""
import dataclasses
import json
import re
from pathlib import Path

import lindcur
from lindcur.config import parse_config

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


def test_readme_config_block_is_the_defaults(tmp_path):
    """The block is what parse_config fills {"model": {"n_sites": 4}} in
    with, less the keys whose default is None, and reads as that config."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    minimal = tmp_path / "minimal.json"
    minimal.write_text('{"model": {"n_sites": 4}}', encoding="utf-8")
    defaults = json.loads(json.dumps(dataclasses.asdict(parse_config(str(minimal)))))
    set_keys = {
        name: {key: value for key, value in section.items() if value is not None}
        for name, section in defaults.items()
    }
    assert json.loads(blocks[0]) == set_keys
    shown = tmp_path / "shown.json"
    shown.write_text(blocks[0], encoding="utf-8")
    assert parse_config(str(shown)) == parse_config(str(minimal))
