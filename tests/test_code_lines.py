"""tools/code_lines.py: what counts as a code line."""
import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstring_comment_and_layout_do_not_count(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('"""A docstring,\n\nover three lines."""\n\n'
                   "# a comment\n"
                   "x = 1\n"
                   "\n"
                   "y = x  # a trailing comment\n")
    assert code_lines.code_lines(str(src)) == 2


def test_function_docstring_skipped_and_string_argument_counted(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f():\n"
                   '    """Its docstring."""\n'
                   "    return g('''a string\n"
                   "spread over two lines''')\n")
    assert code_lines.code_lines(str(src)) == 3


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 2\nz = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
    assert lines[-1].split()[1] == "total"
