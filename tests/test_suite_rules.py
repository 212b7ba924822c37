"""Rules the test suite keeps about itself."""

import ast
import pathlib


def _names_its_failure(call) -> bool:
    kw = {k.arg: k.value for k in call.keywords} if call is not None else {}
    strict, raises = kw.get("strict"), kw.get("raises")
    return (isinstance(strict, ast.Constant) and strict.value is True
            and isinstance(raises, ast.Name) and raises.id == "AssertionError")


def test_every_xfail_is_strict_and_names_an_assertion_failure():
    # a known defect is an assertion that fails; a crash in the same test
    # is another failure and must not pass as the defect
    bad = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "xfail"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "mark"
                    and not _names_its_failure(calls.get(id(node)))):
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []
