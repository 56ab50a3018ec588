"""Row-join reference CSV writer for differential tests.

This is the writer that the vectorized float formatter in
`riskeval.ingestion` replaced: every float of a float array goes through
`format(x, ".12g")` one at a time, every other value through `str`, and the
fields of each line are joined in Python. Its quoting follows the current
rule: a text field that holds a comma, a double quote or a line break is
quoted, its quotes doubled.
"""

import itertools

import numpy as np


def _csv_text(v) -> str:
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_fields(column):
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(format, column.tolist(), itertools.repeat(".12g"))
    texts = list(map(str, column))
    return map(_csv_text, texts)


def format_csv(header, rows=(), *, columns=None) -> str:
    lines = [",".join(header)]
    if columns is not None:
        lines += map(",".join, zip(*map(_column_fields, columns)))
    lines += [
        ",".join([format(v, ".12g") if isinstance(v, float) else _csv_text(v) for v in row])
        for row in rows
    ]
    return "\n".join(lines) + "\n"
