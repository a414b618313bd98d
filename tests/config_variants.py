"""The reference configuration with some of its `key = value` lines rewritten."""

import re

from chemoflow.config import reference_config_text


def reference_config(**values) -> str:
    """`reference_config_text()` with the line of each key in `values` set to its value."""
    text = reference_config_text()
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", lambda _: f"{key} = {value}", text)
        assert count == 1, f"the reference configuration has no single {key!r} line"
    return text
