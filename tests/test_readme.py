"""The README's Python examples run as written: every ```python block, in
order, in one shared namespace, as a reader pasting them into one session
would run them. Its config key tables list exactly each command's keys, and
its walkthrough configs resolve."""

import re
from pathlib import Path

import pytest

from rsvptyping.cli import (
    PREPROCESS_DEFAULTS,
    SIMULATE_DEFAULTS,
    SYNTH_DEFAULTS,
    TRAIN_DEFAULTS,
    resolve_config,
)

COMMAND_DEFAULTS = {
    "synth": SYNTH_DEFAULTS,
    "train": TRAIN_DEFAULTS,
    "simulate": SIMULATE_DEFAULTS,
    "preprocess": PREPROCESS_DEFAULTS,
}
README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README has no python examples"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def key_table(text, command):
    """The keys of the README table that follows "`command` accepts these
    config keys:"."""
    section = text.split(f"`{command}` accepts these config keys:", 1)[1]
    table = re.match(r"\s*((?:\|.*\n)+)", section).group(1)
    return re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)


@pytest.mark.parametrize("command", ["train", "simulate", "preprocess"])
def test_readme_key_tables_match_the_defaults(command):
    keys = key_table(README.read_text(encoding="utf-8"), command)
    assert sorted(keys) == sorted(COMMAND_DEFAULTS[command])


def test_readme_walkthrough_configs_resolve(tmp_path):
    # each heredoc config, resolved against the command that reads it
    text = README.read_text(encoding="utf-8")
    configs = dict(re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", text, flags=re.M | re.S))
    readers = {
        name: command
        for command, name in re.findall(r"^rsvptyping (\w+) .*--config (\S+)", text, flags=re.M)
    }
    assert sorted(configs) == sorted(readers) == ["prep.cfg", "sim.cfg", "synth.cfg"]
    for name, body in configs.items():
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        resolve_config(str(path), COMMAND_DEFAULTS[readers[name]])
