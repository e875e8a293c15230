"""README's config reference is rendered from the config table,
`concealab.cli.CONFIG`, so it cannot drift from what the program checks and
the defaults it fills in."""
import dataclasses
import json
from pathlib import Path

from concealab import checks, cli

README = Path(__file__).resolve().parents[1] / "README.md"
BEGIN = "<!-- config reference: rendered from concealab.cli.CONFIG by tests/test_readme.py -->"
END = "<!-- end of config reference -->"


def render(kind) -> str:
    """checks.describe's words, with a list's items and a table's dataclass
    spelled out."""
    if isinstance(kind, tuple):
        words = [render(k) for k in kind]
        return words[0] if len(words) == 1 else f"{', '.join(words[:-1])} or {words[-1]}"
    if isinstance(kind, list):
        return f"a list of ({render(kind[0])})"
    if isinstance(kind, type) and dataclasses.is_dataclass(kind):
        return f"a JSON object that builds `{kind.__name__}`"
    return checks.describe(kind)


def reference() -> str:
    return "\n".join(f"- `{path}`: {render(kind)}; default {json.dumps(default)}"
                     for path, (kind, default) in cli.CONFIG.items())


def test_readme_config_reference_is_rendered_from_the_schema():
    text = README.read_text(encoding="utf-8")
    assert text.count(BEGIN) == 1 and text.count(END) == 1
    block = text.split(BEGIN)[1].split(END)[0]
    assert block == f"\n{reference()}\n", f"render the block again:\n{reference()}"


def test_readme_example_config_loads(tmp_path):
    """The example config under "Command line" names only leaves that
    exist, each holding a value of its kind."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1].split("\n## ")[0]
    assert section.count("```json\n") == 1
    example = tmp_path / "example.json"
    example.write_text(section.split("```json\n")[1].split("```")[0], encoding="utf-8")
    cli.load_config(str(example))
