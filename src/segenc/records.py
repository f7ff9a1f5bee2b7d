"""Reading segenc's input files: text, JSON and line records; replacing its outputs.

Each reader raises the error class its caller passes, so every module
keeps its own data error; every message names the file, and a bad record
its line too.  Only the standard library is imported.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence


def read_bytes(path: str | Path, error: type[Exception]) -> bytes:
    """The file's bytes; a missing or unreadable file raises ``error``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The file's text; a missing, unreadable or non-UTF-8 file raises ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def load_json(path: str | Path, error: type[Exception]) -> Any:
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not JSON: {exc}") from None


def read_rows(path: str | Path, error: type[Exception], record: str, width: int,
              convert: Callable[..., Any], *, marker: tuple[str, str] | None = None,
              ) -> Iterator[Any]:
    """``convert(*cells)`` of each record line, in file order; blank lines are skipped.

    With ``marker`` (a prefix and what the file is), the first line must
    start with the prefix, the second is a header, and cells are split on
    tabs.  Without it, cells are split on commas or whitespace and ``#``
    starts a comment line.  A line without ``width`` cells, or whose cells
    ``convert`` rejects with ``ValueError``, raises ``error`` at file:line.
    """
    if marker is None:
        sep, first, lines = None, 1, read_text(path, error).replace(",", " ").splitlines()
    else:
        lines = read_text(path, error).splitlines()
        if not lines or not lines[0].startswith(marker[0]):
            raise error(f"{path} is not {marker[1]}")
        sep, first, lines = "\t", 3, lines[2:]
    for number, line in enumerate(lines, first):
        cells = line.split(sep)
        if len(cells) == width:
            try:
                row = convert(*cells)
            except ValueError as exc:
                problem = str(exc)
            else:
                yield row
                continue
        else:
            problem = f"{len(cells)} cells, {record} has {width}"
        # a blank line has no cells and a comment's first cell is no number,
        # so both fail a check above and are told apart only here
        text = line.strip()
        if text and not (sep is None and text.startswith("#")):
            raise error(f"{path}:{number}: {problem}")


def replace_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``, UTF-8 encoded.

    The text is written to a temporary file beside ``path`` and moved over
    it with ``os.replace``, so a reader sees the old file or the new one,
    never part of one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_table(path: str | Path, header: str, columns: Sequence[str],
                rows_of_cells: Iterable[Sequence[str]]) -> None:
    """Replace ``path`` (``replace_text``) with a marked table ``read_rows`` reads back.

    The file holds the marker line ``header``, the tab-joined ``columns``,
    then one line of tab-joined cells per row.
    """
    lines = [header, "\t".join(columns), *("\t".join(cells) for cells in rows_of_cells)]
    replace_text(path, "".join(line + "\n" for line in lines))


def finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def optional(convert: Callable[[str], Any], cell: str) -> Any:
    """None for a ``-`` cell."""
    return None if cell == "-" else convert(cell)
