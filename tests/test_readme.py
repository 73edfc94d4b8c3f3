"""The README's Library example runs, and its commented results hold."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_block_runs_and_its_comments_hold():
    block = _library_block()
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not comment:
            continue
        if comment.endswith(" cells"):
            # an assignment: the comment counts the assigned fan's cells
            name = code.split("=", 1)[0].strip()
            assert len(namespace[name].cells) == int(comment.split()[0]), line
        else:
            assert eval(code, namespace) == eval(comment, namespace), line
        checked.append(comment)
    assert checked == ["2 cells", "Fraction(1, 1)", "Fraction(1, 2)",
                       "(Fraction(2), Fraction(1))"]
