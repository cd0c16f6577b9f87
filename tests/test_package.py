import ast
import types
from pathlib import Path

import maasslab

ROOT = Path(__file__).resolve().parent.parent


def _readme_exports() -> dict[str, str]:
    """name -> module from README's export table: a line that starts
    with a module name lists names from it, an indented line goes on."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## What `import maasslab` exports\n", 1)[1]
    block = block.split("```text\n", 1)[1].split("```", 1)[0]
    exports = {}
    for line in block.splitlines():
        words = line.split()
        if not line.startswith(" "):
            module, words = words[0], words[1:]
        exports.update((name, module) for name in words)
    return exports


def test_exports_match_the_readme_list():
    public = {name for name, value in vars(maasslab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    exports = _readme_exports()
    assert public == set(exports)
    for name, module in exports.items():
        assert getattr(maasslab, name) is getattr(getattr(maasslab, module), name)


def test_src_imports_nothing_from_the_tests():
    # the oracles stay test-side: no production route may reach them
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("oracles", "tests"), (path, module)
