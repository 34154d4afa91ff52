"""The README's library-use example runs as written, and its example config
is one that the validator accepts."""

import json
import pathlib
import re

from signorini.cli import ExperimentConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"print": lambda *args, **kwargs: None})


def test_readme_example_config_validates():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    ExperimentConfig.from_dict(json.loads(blocks[0]))
