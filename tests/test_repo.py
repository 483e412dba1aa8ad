"""Repository-level checks: the README's code runs, no public helper of the
package exists only for the tests, each config key is declared once and
documented, and the guard-rail runner repeats itself and tells two trees
apart."""

import ast
import importlib.util
import re
import shutil
from pathlib import Path

from avfusion.config import _KEYS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avfusion"

# public names kept for the tests on purpose: a WAV writer for fixtures
TEST_ONLY = {"write_wav"}


def _referenced_names(node) -> set:
    """Names a syntax tree uses as code (docstrings and other strings do not count)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md has no python code block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_public_name_has_a_caller_outside_the_tests():
    definitions = {}  # name -> (module file, defining node)
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            own = None
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions[node.name] = path.name
                own = node.name
            # re-exports from the package root are not callers; neither is
            # a definition's own body
            if path.name != "__init__.py":
                used |= _referenced_names(node) - {own}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _referenced_names(ast.parse(path.read_text()))
    unused = sorted(f"{module}:{name}" for name, module in definitions.items()
                    if name not in used and name not in TEST_ONLY)
    assert not unused, f"public names that only the tests reference: {unused}"


def test_only_numeric_names_the_block_size():
    # one owner of the block rule: every other module walks numeric.row_blocks
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _referenced_names(tree) | {alias.name for node in ast.walk(tree)
                                           if isinstance(node, ast.ImportFrom)
                                           for alias in node.names}
        if "BLOCK_FLOATS" in names and path.name != "numeric.py":
            readers.append(path.name)
    assert not readers, f"modules that name BLOCK_FLOATS: {readers}"


def test_each_config_key_is_declared_once():
    # one owner of a key: its field in config.py; the key table is derived
    tree = ast.parse((PACKAGE / "config.py").read_text())
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert {key: strings.count(key) for key in _KEYS} == dict.fromkeys(_KEYS, 1)
    declared = [node.args[0].value for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "_key"]
    assert declared == list(_KEYS)


def test_readme_key_table_names_every_config_key():
    section = (ROOT / "README.md").read_text().split("## Config format", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert named == set(_KEYS)


TINY = {"seed": 5, "data.samples": 14, "classifier.epochs": 2, "audio.frames": 2,
        "visual.frames": 2, "fbp.o": 8}


def _load_guard():
    spec = importlib.util.spec_from_file_location("guard", ROOT / "tools" / "guard.py")
    guard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guard)
    return guard


def test_guard_runner_repeats_a_tiny_run(tmp_path):
    guard = _load_guard()
    first = guard.run_line("tiny", TINY, str(tmp_path / "first"))
    assert first == guard.run_line("tiny", TINY, str(tmp_path / "second"))
    assert first.startswith("tiny [seed=5,data.samples=14,")
    match = re.search(r" accuracy=\S+ checkpoint\.bin=([0-9a-f]{64}) report\.txt=[0-9a-f]{64} "
                      r"confusion\.csv=[0-9a-f]{64} train_pipeline=([0-9a-f]{64})$", first)
    # run_experiment and train_pipeline on dataset.samples train the same bytes
    assert match and match[1] == match[2]


def test_guard_compare_prints_only_the_lines_that_differ(tmp_path):
    guard = _load_guard()
    runs = [("tiny", TINY)]
    assert guard.compare(str(ROOT), runs, checks=False) == []
    # a copy of the package whose descent steps half as far trains other bytes
    shutil.copytree(PACKAGE, tmp_path / "src" / "avfusion",
                    ignore=shutil.ignore_patterns("__pycache__"))
    experiment = tmp_path / "src" / "avfusion" / "experiment.py"
    text = experiment.read_text()
    assert text.count("arr -= lr * ") == 1
    experiment.write_text(text.replace("arr -= lr * ", "arr -= 0.5 * lr * "))
    diff = guard.compare(str(tmp_path), runs, checks=False)
    assert [line[:8] for line in diff] == ["- tiny [", "+ tiny ["]
    assert diff[0][2:] != diff[1][2:]


def test_guard_rng_line_tells_two_streams_apart(tmp_path):
    guard = _load_guard()
    assert re.fullmatch(r"rng sha256=[0-9a-f]{64}", guard.rng_line())
    # a copy of the package whose bulk lanes step with another shift draws
    # another stream in every bulk call
    shutil.copytree(PACKAGE, tmp_path / "src" / "avfusion",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rng = tmp_path / "src" / "avfusion" / "rng.py"
    text = rng.read_text()
    assert text.count("np.right_shift(row, np.uint64(27)") == 1
    rng.write_text(text.replace("np.right_shift(row, np.uint64(27)",
                                "np.right_shift(row, np.uint64(26)"))
    diff = guard.compare(str(tmp_path), [], checks=False)
    assert [line[:13] for line in diff] == ["- rng sha256=", "+ rng sha256="]


def test_guard_fbp_line_tells_two_extreme_paths_apart(tmp_path):
    guard = _load_guard()
    assert re.fullmatch(r"fbp sha256=[0-9a-f]{64}", guard.fbp_line())
    # a copy of the package that divides a zero row by 2, not 1, changes
    # only the guarded path: only the fbp line sees it
    shutil.copytree(PACKAGE, tmp_path / "src" / "avfusion",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fbp = tmp_path / "src" / "avfusion" / "fbp.py"
    text = fbp.read_text()
    assert text.count("denom = z_norm + (z_norm == 0.0)") == 1
    fbp.write_text(text.replace("denom = z_norm + (z_norm == 0.0)",
                                "denom = z_norm + 2.0 * (z_norm == 0.0)"))
    diff = guard.compare(str(tmp_path), [], checks=False)
    assert [line[:13] for line in diff] == ["- fbp sha256=", "+ fbp sha256="]
