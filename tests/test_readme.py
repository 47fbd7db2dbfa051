"""The README as an executable contract.

The command-line block runs line by line through ``cli.main`` in a scratch
directory, and the library quick start runs statement by statement.  A line
whose comment states a value or an exit code must give it; every other
command line must exit 0.  The tolerance defaults and preserver constants the
README names must be the ones ``config`` and ``preserver`` define.
"""

import ast
import math
import re
import shlex
from pathlib import Path

from statediv import cli, preserver
from statediv.config import DEFAULT_TOLS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    """The text of the README section under ``## heading``, up to the next one."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _block(heading: str, language: str) -> list[str]:
    """The lines of the first fenced ``language`` block of a section."""
    return re.search(rf"```{language}\n(.*?)```", _section(heading), re.S).group(1).splitlines()


def _stated(comment: str) -> tuple[int, str | None]:
    """The exit code and the printed value that a command's comment states."""
    code = re.search(r"\bexit (\d+)", comment)
    value = re.search(r'"(inf)"|(\d+\.\d{12})\b', comment)
    return int(code.group(1)) if code else 0, value and (value.group(1) or value.group(2))


def _commands() -> list[tuple[list[str], str]]:
    commands = []
    for line in _block("Command line", "bash"):
        command, _, comment = line.partition("#")
        if command.strip():
            argv = shlex.split(command)
            assert argv[0] == "statediv", line
            commands.append((argv[1:], comment))
    return commands


def test_stated_values_are_parsed():
    assert _stated(' prints e.g. 0.407857487650') == (0, "0.407857487650")
    assert _stated(' "inf": supp A is not inside supp B') == (0, "inf")
    assert _stated(" exit 1") == (1, None)
    assert _stated(" V diag(w) V*, w on the simplex") == (0, None)


def test_command_line_block_does_what_its_comments_say(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    stated = [_stated(comment) for _, comment in commands]
    assert sum(code != 0 or value is not None for code, value in stated) >= 3
    for (argv, _), (code, value) in zip(commands, stated):
        assert cli.main(argv) == code, argv
        out = capsys.readouterr().out
        if value is not None:
            assert out.strip() == value, argv


def _quick_start_values() -> list[tuple[str, object, str]]:
    """Run the quick start; (source, value, comment) of each expression line with a comment."""
    lines = _block("Library quick start", "python")
    namespace: dict = {}
    found = []
    for node in ast.parse("\n".join(lines)).body:
        source = ast.get_source_segment("\n".join(lines), node)
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "<README>", "eval"), namespace)
            _, _, comment = lines[node.end_lineno - 1].partition("#")
            found.append((source, value, comment.strip()))
        else:
            exec(compile(ast.Module([node], []), "<README>", "exec"), namespace)
    return found


def _stated_repr(comment: str) -> str | None:
    """The value a comment states, as its repr (its text up to two spaces), or None for prose."""
    text = comment.split("  ")[0]
    if text in ("inf", "nan"):
        return text
    try:
        ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None
    return text


def test_quick_start_gives_its_stated_values():
    values = _quick_start_values()
    stated = [(source, value, _stated_repr(comment)) for source, value, comment in values]
    checked = [(source, value, text) for source, value, text in stated if text is not None]
    assert len(checked) >= 3
    for source, value, text in checked:
        assert repr(value) == text, source
    jensen = next(value for source, value, _ in values if source.startswith("sd.jensen"))
    assert math.isfinite(jensen)


def _documented_constants() -> list[tuple[str, float]]:
    """Each name and value of a backticked ``name = value`` or ``a = b = value`` span."""
    found = []
    for span in re.findall(r"`([A-Za-z_]\w*(?: = [A-Za-z_]\w*)* = [-+0-9.e]+)`", README):
        *names, value = span.split(" = ")
        found += [(name, float(value)) for name in names]
    return found


def test_documented_constants_are_the_defined_ones():
    documented = dict(_documented_constants())
    assert {"tol_herm", "eps_supp", "cluster_tol", "DIVERGENCE_TOL", "PROBE_LAM"} <= set(documented)
    for name, value in documented.items():
        defined = getattr(preserver, name) if name.isupper() else getattr(DEFAULT_TOLS, name)
        assert defined == value, name

