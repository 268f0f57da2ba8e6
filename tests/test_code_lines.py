import importlib.util
import textwrap

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("code_lines", REPO_ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

#: 5 code lines: the import, the def, the two lines of the continued call
#: and the return; the docstrings, the comment and the blank line hold none
MODULE = textwrap.dedent('''\
    """A module docstring
    over two lines."""
    import os

    # a comment
    def f(x):
        """A function docstring."""
        y = os.path.join(x,
                         "a")
        return y
    ''')


def test_counts_code_lines_only():
    assert code_lines.code_lines(MODULE) == 5


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     1  {tmp_path / 'b.py'}", f"     5  {tmp_path / 'pkg' / 'a.py'}", "     6  total"]
