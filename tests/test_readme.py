"""README's library Quickstart runs against the current API, and that API
holds no name that only the tests use."""

import ast
import inspect
import re
from pathlib import Path

import ctiv

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) >= 2    # the overall CACE, then one line per leaf


def _parsers():
    """{subcommand or "": its parser's long flags}, without --help."""
    import argparse

    from ctiv.cli import build_parser

    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {"": top, **sub.choices}
    return {name: {opt for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in parsers.items()}


def _readme_commands():
    """(subcommand, flags) for each command README gives in code: "" for
    `ctiv` alone, None for flags it names without a command."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands += re.findall(r"`([^`]+)`", prose)
    names = set(_parsers()) - {""}
    for command in commands:
        words = command.split()
        if "ctiv" in words:
            rest = words[words.index("ctiv") + 1:]
            name = rest[0] if rest and rest[0] in names else ""
        else:
            name = words[0] if words and words[0] in names else None
        flags = re.findall(r"--[a-z][a-z0-9-]*", command)
        if flags:
            yield name, flags


def test_readme_flags_exist_and_every_flag_is_documented():
    parsers = _parsers()
    every = set().union(*parsers.values())
    documented = set()
    for name, flags in _readme_commands():
        documented.update(flags)
        known = every if name is None else parsers[name]
        for flag in flags:
            if flag != "--no-build-isolation":       # pip's, in Install
                assert flag in known, (name, flag)
    assert every - documented == set()


def test_readme_and_the_error_classes_agree():
    # README names every class ctiv.errors defines, and no error class
    # besides them but the CLI's UsageError and the OSError and MemoryError
    # it also reports; no other module defines a CtivError
    import ctiv.cli  # noqa: F401 - every module, and any class it defines
    import ctiv.errors

    classes = {name for name, obj in vars(ctiv.errors).items()
               if isinstance(obj, type) and issubclass(obj, ctiv.errors.CtivError)}
    subclasses, stack = set(), [ctiv.errors.CtivError]
    while stack:
        cls = stack.pop()
        assert cls.__module__ == "ctiv.errors", cls
        subclasses.add(cls.__name__)
        stack += cls.__subclasses__()
    assert subclasses == classes
    named = set(re.findall(r"\w+Error\b", README.read_text(encoding="utf-8")))
    assert named - classes <= {"UsageError", "OSError", "MemoryError"}
    assert classes - named == set()


def public_names():
    """Each public name that a module of the package defines at its top
    level, whether ``ctiv.__all__`` exports it or not."""
    for path in (ROOT / "src" / "ctiv").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            yield from (name for name in names if not name.startswith("_"))


def test_every_public_name_is_used_outside_the_tests():
    # a name only the tests reach is a second form the package need not
    # keep. A use counts in the package's modules, the name's own
    # definition aside, in README or in the benchmark harness
    package = [p.read_text(encoding="utf-8") for p in (ROOT / "src" / "ctiv").glob("*.py")
               if p.name != "__init__.py"]
    elsewhere = [README.read_text(encoding="utf-8"),
                 *(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py"))]
    names = set(public_names())
    assert set(ctiv.__all__) <= names
    unused = []
    for name in sorted(names):
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^(?:def |class ){name}\b|^{name}\s*[:=]", re.MULTILINE)
        uses = sum(len(word.findall(text)) - len(definition.findall(text)) for text in package)
        if uses < 1 and not any(word.search(text) for text in elsewhere):
            unused.append(name)
    assert unused == []


def test_the_test_only_forms_left_the_package():
    assert not hasattr(ctiv, "ColumnSchema") and not hasattr(ctiv.dataset, "ColumnSchema")
    assert not hasattr(ctiv.Dataset, "equals")
    assert not hasattr(ctiv.CausalTree, "leaves")
    assert list(inspect.signature(ctiv.fit_logistic).parameters) == [
        "covariates", "labels", "ridge_lambda"]
    assert list(inspect.signature(ctiv.load_csv).parameters) == [
        "path", "y_col", "w_col", "z_col", "feature_cols"]
