"""Plain-text experiment tables.

Every experiment of :mod:`repro.experiments` renders its rows as an
:class:`ExperimentTable`: ``repro experiments`` prints them and
``tools/generate_experiments_md.py`` embeds them in ``EXPERIMENTS.md``, whose
``--check`` compares every cell except the table's wall-clock columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentTable:
    """A titled table with a fixed header and appendable rows.

    ``timing`` names the wall-clock columns: rendered like the others, but
    they differ from run to run, so no comparison of two renderings reads
    them.
    """

    title: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)
    timing: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = set(self.timing) - set(self.columns)
        if unknown:
            raise ValueError(f"timing columns {sorted(unknown)} are not columns")

    def add_row(self, *values) -> None:
        """Append a row; values are converted with :func:`format_value`."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([format_value(v) for v in values])

    def render(self) -> str:
        """Render the table as aligned plain text."""
        return format_table(self.title, self.columns, self.rows)

    def __str__(self) -> str:
        return self.render()

    def comparable(self, rendered: str) -> list[str]:
        """The lines of a rendering of this table, cells unpadded and timing cells blanked.

        Two renderings of runs of one experiment are equal here when they
        differ only in timing cells, and so in the padding those cells set.
        """
        hidden = {self.columns.index(column) for column in self.timing}
        lines = []
        for number, line in enumerate(rendered.splitlines()):
            if number == 2:
                continue  # the separator, as wide as each column's widest cell
            lines.append(" | ".join(
                "" if number > 2 and index in hidden else cell.strip()
                for index, cell in enumerate(line.split(" | "))
            ))
        return lines

def format_value(value) -> str:
    """Human-friendly formatting for table cells."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def format_table(title: str, columns: list[str], rows: list[list[str]]) -> str:
    """Render a title, header and rows as an aligned monospace table."""
    widths = [len(c) for c in columns]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: list[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * w for w in widths)
    lines = [f"== {title} ==", render_row(columns), separator]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)
