"""Row-at-a-time reference loaders for differential tests.

These are the per-row CSV reader and loader loops that the columnar reader
in `riskeval.ingestion` replaced, kept verbatim in behaviour: one dict per
row, one `IndividualRecord` per record. The columnar loaders must return an
equal value or raise the same exception type with the same message.
"""

import csv
import itertools
import math
from pathlib import Path

from riskeval import (
    CrossDecileCell,
    CrossDecileTable,
    EmptyInput,
    IndividualRecord,
    InvariantViolation,
    NegativeRate,
    ParameterOutOfRange,
    ParseError,
    RiskOutOfRange,
    ZeroPersonYears,
    make_grouped_table,
    make_joint_table,
)
from riskeval.ingestion import (
    CROSS_DECILE_HEADER,
    GROUPED_HEADER,
    INDIVIDUALS_HEADER,
    JOINT_HEADER,
    _parse_float,
    read_header,
)
from riskeval.tables import format_label


def read_rows(path, expected_header, optional=frozenset()):
    path = Path(path)
    header = read_header(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty file, expected header {','.join(expected_header)}")
    required = [h for h in expected_header if h not in optional]
    if header != expected_header and header != required:
        raise ParseError(
            f"{path}: header {','.join(header)!r} does not match {','.join(expected_header)!r}"
        )
    rows = []
    try:
        for lineno, row in enumerate(csv.reader(itertools.islice(lines, 1, None)), start=2):
            if not row or all(not field.strip() for field in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            rows.append((lineno, dict(zip(header, (field.strip() for field in row)))))
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return path, rows


def load_grouped(path):
    path, rows = read_rows(path, GROUPED_HEADER, optional={"prevalence"})
    entries = []
    declared = False
    for lineno, row in rows:
        risk = _parse_float(path, lineno, "risk", row["risk"])
        mass = _parse_float(path, lineno, "mass", row["mass"])
        prev_text = row.get("prevalence", "")
        if prev_text:
            prev = _parse_float(path, lineno, "prevalence", prev_text)
        else:
            prev = risk
            declared = True
        entries.append((format_label(risk), risk, mass, prev))
    return make_grouped_table(entries, declared_calibrated=declared)


def load_joint(path):
    path, rows = read_rows(path, JOINT_HEADER)
    cells = []
    for lineno, row in rows:
        r1 = _parse_float(path, lineno, "r1", row["r1"])
        r2 = _parse_float(path, lineno, "r2", row["r2"])
        mass = _parse_float(path, lineno, "mass", row["mass"])
        prev = _parse_float(path, lineno, "prevalence", row["prevalence"])
        cells.append((format_label(r1), format_label(r2), r1, r2, mass, prev))
    return make_joint_table(cells)


def load_individuals(path):
    path, rows = read_rows(path, INDIVIDUALS_HEADER)
    records = []
    for lineno, row in rows:
        risk1 = _parse_float(path, lineno, "risk1", row["risk1"])
        risk2 = _parse_float(path, lineno, "risk2", row["risk2"]) if row["risk2"] else None
        if row["outcome"] not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: outcome {row['outcome']!r} must be 0 or 1")
        for name, r in (("risk1", risk1), ("risk2", risk2)):
            if r is not None and not 0.0 <= r <= 1.0:
                raise RiskOutOfRange(f"{path}:{lineno}: {name} {r} outside [0, 1]")
        records.append(IndividualRecord(risk1=risk1, risk2=risk2, outcome=int(row["outcome"])))
    present = [r.risk2 is not None for r in records]
    if any(present) and not all(present):
        raise ParseError(f"{path}: risk2 must be present on all rows or none")
    return records


def read_cross_decile(path, mortality, horizon):
    mortality, horizon = float(mortality), float(horizon)
    if mortality < 0.0:
        raise NegativeRate(f"mortality {mortality} must be nonnegative")
    if horizon <= 0.0:
        raise ParameterOutOfRange(f"horizon {horizon} must be positive")
    path, rows = read_rows(path, CROSS_DECILE_HEADER)
    cells = []
    seen = set()
    for lineno, row in rows:
        try:
            d1, d2 = int(row["decile1"]), int(row["decile2"])
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: decile indices {row['decile1']!r},{row['decile2']!r} must be integers"
            ) from None
        py = _parse_float(path, lineno, "person_years", row["person_years"])
        cases_f = _parse_float(path, lineno, "cases", row["cases"])
        if not math.isfinite(cases_f) or cases_f < 0 or cases_f != int(cases_f):
            raise ParseError(f"{path}:{lineno}: cases {row['cases']!r} must be a nonnegative integer")
        cases = int(cases_f)
        if py <= 0.0:
            if cases == 0:
                continue
            raise ZeroPersonYears(f"{path}:{lineno}: {cases} cases with no person-years")
        if cases > py / horizon:
            raise InvariantViolation(
                f"{path}:{lineno}: {cases} cases exceed the population implied by "
                f"{py} person-years over {horizon} years"
            )
        if (d1, d2) in seen:
            raise ParseError(f"{path}:{lineno}: duplicate cell ({d1}, {d2})")
        seen.add((d1, d2))
        cells.append(CrossDecileCell(decile1=d1, decile2=d2, person_years=py, cases=cases))
    if not cells:
        raise EmptyInput(f"{path}: no nonempty cells")
    return CrossDecileTable(cells=tuple(cells), mortality=mortality, horizon=horizon)
