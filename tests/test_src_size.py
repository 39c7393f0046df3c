import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("src_size", Path(__file__).parents[1] / "tools" / "src_size.py")
src_size = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_size)

FIXTURE = '''"""A module docstring,
over two lines."""
# a comment

x = 1
y = 2
print(x + y)
'''


def test_a_module_counts_its_lines_and_only_its_code(tmp_path, capsys):
    assert src_size.sizes(FIXTURE) == (7, 3)
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    assert src_size.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "wc", "-l", "code"], ["fixture", "7", "3"], ["total", "7", "3"]]
