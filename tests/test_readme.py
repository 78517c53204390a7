"""The README's library snippets run as written, in order and in one
namespace, so that a name or attribute the package deletes or renames fails
the suite and not a reader's first session. Their printed values are not
checked: the path count is lowered to keep the run short."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PATHS = ("n_paths=100_000", "n_paths=4_000")


def test_readme_python_snippets_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks and PATHS[0] in blocks[0]
    namespace = {}
    for block in blocks:
        exec(compile(block.replace(*PATHS), "README.md", "exec"), namespace)
