"""The package's public surface: the star-import list matches what the
package exports, the README names each exported name, and the README's
library and CLI examples run against it."""

import re
import shlex
import types
from pathlib import Path

import pytest

import pebbletools
from pebbletools.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_all_matches_the_public_names():
    for name in pebbletools.__all__:
        assert hasattr(pebbletools, name), name
    public = {name for name, value in vars(pebbletools).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(pebbletools.__all__), public - set(pebbletools.__all__)


def test_readme_names_every_exported_name():
    """Each exported name appears in README.md inside a code span, so no
    export goes undocumented."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    missing = set(pebbletools.__all__) - named - {"__version__"}
    assert not missing, sorted(missing)


def test_readme_library_example_runs():
    section = README.read_text().split("## Library at a glance", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def _readme_cli_lines():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_example_runs(capsys, argv):
    assert argv[0] == "pebbletools"
    assert main(argv[1:]) == 0
