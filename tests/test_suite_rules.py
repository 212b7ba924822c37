"""Rules the test suite keeps about itself."""

import ast
import pathlib
import re


def _xfails():
    """(where, keywords) of each `pytest.mark.xfail` in the test files."""
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "xfail"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "mark"):
                call = calls.get(id(node))
                kw = {k.arg: k.value for k in call.keywords} if call is not None else {}
                yield f"{path.name}:{node.lineno}", kw


def test_every_xfail_is_strict_and_names_an_assertion_failure():
    # a known defect is an assertion that fails; a crash in the same test
    # is another failure and must not pass as the defect
    bad = []
    for where, kw in _xfails():
        strict, raises = kw.get("strict"), kw.get("raises")
        if not (isinstance(strict, ast.Constant) and strict.value is True
                and isinstance(raises, ast.Name) and raises.id == "AssertionError"):
            bad.append(where)
    assert bad == []


def test_every_xfail_reason_names_the_roadmap_item_that_owns_it():
    # a known defect stays known only while some open item is to mend it
    bad = [where for where, kw in _xfails()
           if not (isinstance(kw.get("reason"), ast.Constant)
                   and re.search(r"ROADMAP items? \d+", str(kw["reason"].value)))]
    assert bad == []
