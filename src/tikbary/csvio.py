"""CSV with a '#' metadata block, written deterministically.

Every emitted file carries its own provenance: '# key = value' lines echoing
the full configuration, then '# plot-hint: ...' lines telling the SVG
renderer how to draw the table, then one header line and the data rows.
Floats are written with 17 significant digits so a rerun is byte-identical
and values round-trip exactly.
"""

import csv
import io
from typing import NamedTuple

__all__ = [
    "TableData",
    "format_value",
    "render_table",
    "read_table",
    "parse_table",
]

def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


class TableData(NamedTuple):
    """Parsed CSV: metadata dict, plot hints, column names, string rows."""

    metadata: dict
    plot_hints: list
    columns: list
    rows: list

    def column(self, name, as_float=False):
        i = self.columns.index(name)
        vals = [row[i] for row in self.rows]
        if as_float:
            return [float(v) if v != "" else None for v in vals]
        return vals


def render_table(columns, rows, metadata=(), plot_hints=()) -> str:
    """The full file content as a string; writing is separate so plots can be
    derived from content alone."""
    out = io.StringIO()
    for key, value in metadata:
        out.write(f"# {key} = {format_value(value)}\n")
    for hint in plot_hints:
        out.write(f"# plot-hint: {hint}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return out.getvalue()


def parse_table(text: str) -> TableData:
    metadata = {}
    hints = []
    data_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("plot-hint:"):
                hints.append(body[len("plot-hint:"):].strip())
            elif "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if line.strip() == "":
            continue
        data_lines.append(line)
    if not data_lines:
        raise ValueError("no header line found")
    parsed = list(csv.reader(data_lines))
    return TableData(metadata, hints, parsed[0], parsed[1:])


def read_table(path) -> TableData:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_table(fh.read())

