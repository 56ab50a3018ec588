"""File formats, record binning, and rate-to-risk conversion.

CSV dialects are fixed: comma separator, dot decimal point, required header
row, UTF-8. Numeric output uses 12 significant digits so that write/load
round trips agree within 1e-12 and golden files are byte-stable.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateBins,
    EmptyInput,
    InvariantViolation,
    NegativeRate,
    NonFiniteValue,
    ParameterOutOfRange,
    ParseError,
    RiskOutOfRange,
    ZeroPersonYears,
)
from .tables import (
    GroupedModelTable,
    JointModelTable,
    _merge_by_key,
    format_label,
    make_grouped_table,
    make_joint_table,
)

GROUPED_HEADER = ["risk", "mass", "prevalence"]
JOINT_HEADER = ["r1", "r2", "mass", "prevalence"]
INDIVIDUALS_HEADER = ["risk1", "risk2", "outcome"]
CROSS_DECILE_HEADER = ["decile1", "decile2", "person_years", "cases"]


def ten_year_risk(incidence: float, mortality: float, horizon: float) -> float:
    """Absolute outcome risk over a horizon under competing mortality.

    Constant hazards: outcome incidence and death compete exponentially, so
    the cumulative outcome probability is lam/(lam+mu) * (1 - exp(-(lam+mu)T)).
    expm1 keeps the small-rate limit lam*T accurate down to (lam+mu)*T ~ 0;
    lam + mu = 0 returns 0 by convention.
    """
    lam, mu, t = float(incidence), float(mortality), float(horizon)
    for name, x in (("incidence", lam), ("mortality", mu), ("horizon", t)):
        if not math.isfinite(x):
            raise NonFiniteValue(f"non-finite {name} {x}")
    if lam < 0.0 or mu < 0.0:
        raise NegativeRate(f"rates must be nonnegative, got incidence {lam}, mortality {mu}")
    if t <= 0.0:
        raise ParameterOutOfRange(f"horizon {t} must be positive")
    if lam == 0.0:
        return 0.0
    return -lam / (lam + mu) * math.expm1(-(lam + mu) * t)


def read_header(path) -> list[str]:
    """Stripped fields of a CSV file's first line (empty for an empty file)."""
    try:
        with open(path, encoding="utf-8") as fh:
            fields = next(csv.reader([fh.readline()]))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return [h.strip() for h in fields]


def _tally(rows, widths: list[int]):
    """Pass rows through, appending each row's field count to widths."""
    for row in rows:
        widths.append(len(row))
        yield row


def _kept_rows(path, width: int, widths: list[int], fields: list[str]):
    """One pass over the rows held flat in fields, row i having widths[i] fields.

    Skips rows whose fields are all blank and rejects a row of the wrong
    width at its line. Returns the kept rows' line numbers and flat fields.
    """
    linenos, kept, pos = [], [], 0
    for lineno, w in enumerate(widths, start=2):
        row = fields[pos : pos + w]
        pos += w
        if not any(row):
            continue
        if w != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, got {w}")
        linenos.append(lineno)
        kept += row
    return linenos, kept


def _read_columns(path, expected_header: list[str], optional: set[str] = frozenset()):
    """Read a CSV file into one list of stripped field strings per column.

    Returns (path, line numbers of the data rows, {column name: fields}),
    columns in header order. Rows whose fields are all blank are skipped.
    The rows are read into one flat field list, so no container per row
    outlives the read; when every row has the header's width and a nonblank
    first field, the columns are plain strided slices of that list.
    """
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
    width = len(header)
    widths: list[int] = []
    fields: list[str] = []
    rows = _tally(csv.reader(itertools.islice(lines, 1, None)), widths)
    try:
        fields += map(str.strip, itertools.chain.from_iterable(rows))
    except csv.Error as exc:
        _kept_rows(path, width, widths, fields)  # a bad row read first is reported first
        raise ParseError(f"{path}: {exc}") from exc
    del lines, rows  # release the split text before the columns are built
    if widths.count(width) == len(widths) and "" not in fields[::width]:
        linenos = range(2, len(widths) + 2)
    else:
        linenos, fields = _kept_rows(path, width, widths, fields)
    if not linenos:
        raise ParseError(f"{path}: no data rows")
    return path, linenos, {name: fields[j::width] for j, name in enumerate(header)}


def _parse_float(path, lineno: int, name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {name} {text!r} is not a number") from None


def load_grouped(path) -> GroupedModelTable:
    """Load `risk,mass,prevalence` CSV into a grouped table.

    The prevalence column (or individual prevalence fields) may be omitted;
    omitted prevalences default to the assigned risk and the returned table is
    flagged declared_calibrated.
    """
    path, linenos, columns = _read_columns(path, GROUPED_HEADER, optional={"prevalence"})
    entries = []
    declared = False
    prevalences = columns.get("prevalence", itertools.repeat(""))
    for lineno, risk_text, mass_text, prev_text in zip(
        linenos, columns["risk"], columns["mass"], prevalences
    ):
        risk = _parse_float(path, lineno, "risk", risk_text)
        mass = _parse_float(path, lineno, "mass", mass_text)
        if prev_text:
            prev = _parse_float(path, lineno, "prevalence", prev_text)
        else:
            prev = risk
            declared = True
        entries.append((format_label(risk), risk, mass, prev))
    return make_grouped_table(entries, declared_calibrated=declared)


def load_joint(path) -> JointModelTable:
    """Load `r1,r2,mass,prevalence` CSV into a joint table.

    Cells are keyed by their formatted risk pair; duplicate keys merge with
    mass-weighted prevalence.
    """
    path, linenos, columns = _read_columns(path, JOINT_HEADER)
    cells = []
    for lineno, r1_text, r2_text, mass_text, prev_text in zip(linenos, *columns.values()):
        r1 = _parse_float(path, lineno, "r1", r1_text)
        r2 = _parse_float(path, lineno, "r2", r2_text)
        mass = _parse_float(path, lineno, "mass", mass_text)
        prev = _parse_float(path, lineno, "prevalence", prev_text)
        cells.append((format_label(r1), format_label(r2), r1, r2, mass, prev))
    return make_joint_table(cells)


class IndividualRecord(NamedTuple):
    """One person: model assignments and the binary outcome."""

    risk1: float
    risk2: float | None
    outcome: int


@dataclass(frozen=True, eq=False)
class IndividualRecords:
    """Person-level records held as columns, one array per field.

    risk1 is float64; risk2 is float64, or None when no record carries a
    second risk; outcome holds 0/1. Iteration yields IndividualRecord tuples
    of Python floats and ints (risk2 None when absent), and the records
    compare equal to the list of those tuples.
    """

    risk1: np.ndarray
    risk2: np.ndarray | None
    outcome: np.ndarray

    @classmethod
    def from_records(cls, records) -> "IndividualRecords":
        """Columns of an IndividualRecord sequence; risk2 follows the first record."""
        records = list(records)
        risk2 = None
        if records and records[0].risk2 is not None:
            risk2 = np.array([r.risk2 for r in records], dtype=float)
        return cls(
            risk1=np.array([r.risk1 for r in records], dtype=float),
            risk2=risk2,
            outcome=np.array([r.outcome for r in records]),
        )

    def __len__(self) -> int:
        return len(self.risk1)

    def __iter__(self):
        risk2 = itertools.repeat(None) if self.risk2 is None else self.risk2.tolist()
        return map(IndividualRecord, self.risk1.tolist(), risk2, self.outcome.tolist())

    def __eq__(self, other):
        if isinstance(other, IndividualRecords):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented


def _unit_column(texts: list[str]) -> np.ndarray | None:
    """Fields parsed with float, or None if one does not parse or lies outside [0, 1]."""
    try:
        values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
    except ValueError:
        return None
    return values if ((values >= 0.0) & (values <= 1.0)).all() else None


def _records_by_row(path, linenos, risk1_texts, risk2_texts, outcome_texts) -> IndividualRecords:
    """Check and convert record fields one row at a time, in file order.

    The first failing check raises: risk1 parse, risk2 parse, outcome, risk1
    range, risk2 range; a risk2 column filled on some rows only raises after
    the last row.
    """
    records = []
    for lineno, risk1_text, risk2_text, outcome_text in zip(
        linenos, risk1_texts, risk2_texts, outcome_texts
    ):
        risk1 = _parse_float(path, lineno, "risk1", risk1_text)
        risk2 = _parse_float(path, lineno, "risk2", risk2_text) if risk2_text else None
        if outcome_text not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: outcome {outcome_text!r} must be 0 or 1")
        for name, r in (("risk1", risk1), ("risk2", risk2)):
            if r is not None and not 0.0 <= r <= 1.0:
                raise RiskOutOfRange(f"{path}:{lineno}: {name} {r} outside [0, 1]")
        records.append(IndividualRecord(risk1=risk1, risk2=risk2, outcome=int(outcome_text)))
    present = [r.risk2 is not None for r in records]
    if any(present) and not all(present):
        raise ParseError(f"{path}: risk2 must be present on all rows or none")
    return IndividualRecords.from_records(records)


def load_individuals(path) -> IndividualRecords:
    """Load `risk1,risk2,outcome` CSV into columns; risk2 may be empty throughout.

    Each column is checked whole; only when a check fails are the rows
    walked one by one, so that the first bad field in file order is reported.
    """
    path, linenos, columns = _read_columns(path, INDIVIDUALS_HEADER)
    risk1_texts, risk2_texts, outcome_texts = columns.values()
    no_risk2 = risk2_texts.count("") == len(linenos)
    risk1 = _unit_column(risk1_texts)
    risk2 = None if no_risk2 else _unit_column(risk2_texts)
    if risk1 is None or (risk2 is None and not no_risk2) or not set(outcome_texts) <= {"0", "1"}:
        return _records_by_row(path, linenos, risk1_texts, risk2_texts, outcome_texts)
    # Every outcome field is "0" or "1" here, one ASCII character each.
    outcome = np.frombuffer("".join(outcome_texts).encode("ascii"), dtype=np.uint8) - ord("0")
    return IndividualRecords(risk1=risk1, risk2=risk2, outcome=outcome)


def _bin_ids(
    risks: np.ndarray, scheme: str, k: int
) -> tuple[np.ndarray, list[str], np.ndarray | None]:
    """Assign each record a bin id; returns ids, ordered bin labels, and the
    exact bin risks when the scheme fixes them (None for computed means)."""
    if scheme == "unique-values":
        values, ids = np.unique(risks, return_inverse=True)
        return ids, [format_label(v) for v in values], values
    if scheme != "quantiles":
        raise ParameterOutOfRange(f"unknown binning scheme {scheme!r}")
    if k < 2:
        raise ParameterOutOfRange(f"quantile bin count {k} must be at least 2")
    n = len(risks)
    if len(np.unique(risks)) < k:
        raise DegenerateBins(f"{len(np.unique(risks))} distinct risks cannot fill {k} bins")
    order = np.argsort(risks, kind="stable")
    sorted_risks = risks[order]
    bounds = []
    for j in range(1, k):
        b = n * j // k
        # A tie run straddling the cut belongs to the lower bin.
        while b < n and b > 0 and sorted_risks[b] == sorted_risks[b - 1]:
            b += 1
        bounds.append(b)
    ids_sorted = np.searchsorted(np.asarray(bounds), np.arange(n), side="right")
    ids = np.empty(n, dtype=int)
    ids[order] = ids_sorted
    kept = np.unique(ids_sorted)  # bins emptied by tie pushing disappear here
    lookup = np.full(k, -1, dtype=int)
    lookup[kept] = np.arange(len(kept))
    width = len(str(k))
    return lookup[ids], [f"q{int(old) + 1:0{width}d}" for old in kept], None


def bin_individuals(
    records: IndividualRecords | list[IndividualRecord],
    scheme: str = "unique-values",
    k: int = 10,
) -> tuple[GroupedModelTable, JointModelTable | None]:
    """Group individual records into a model table.

    scheme is "unique-values" (one group per distinct risk) or "quantiles"
    (k mass-balanced bins, ties to the lower bin; bins emptied by tie pushing
    are dropped). Groups carry the mean member risk (the distinct value itself
    under unique-values), the count share as mass, and the outcome share as
    prevalence. When records carry a second risk, the same scheme bins it and
    the joint table of both models is returned too. A list of
    IndividualRecord is converted to columns first.
    """
    if not isinstance(records, IndividualRecords):
        records = IndividualRecords.from_records(records)
    n = len(records)
    if not n:
        raise EmptyInput("no records to bin")
    risks1, outcomes = records.risk1, records.outcome
    ids1, labels1, exact1 = _bin_ids(risks1, scheme, k)
    counts1 = np.bincount(ids1, minlength=len(labels1))
    if exact1 is None:
        risk1_of = np.bincount(ids1, weights=risks1, minlength=len(labels1)) / counts1
    else:
        risk1_of = exact1
    prev1 = np.bincount(ids1, weights=outcomes, minlength=len(labels1)) / counts1
    grouped = make_grouped_table(
        (labels1[i], risk1_of[i], counts1[i] / n, prev1[i]) for i in range(len(labels1))
    )
    if records.risk2 is None:
        return grouped, None
    risks2 = records.risk2
    ids2, labels2, exact2 = _bin_ids(risks2, scheme, k)
    counts2 = np.bincount(ids2, minlength=len(labels2))
    if exact2 is None:
        risk2_of = np.bincount(ids2, weights=risks2, minlength=len(labels2)) / counts2
    else:
        risk2_of = exact2
    # Sparse pair ids: only occupied (group1, group2) pairs get a slot.
    pair_ids, pair_of = np.unique(ids1 * len(labels2) + ids2, return_inverse=True)
    pair_counts = np.bincount(pair_of)
    pair_cases = np.bincount(pair_of, weights=outcomes)
    cells = []
    for p, pid in enumerate(pair_ids.tolist()):
        i, j = divmod(pid, len(labels2))
        cells.append(
            (
                labels1[i],
                labels2[j],
                risk1_of[i],
                risk2_of[j],
                pair_counts[p] / n,
                pair_cases[p] / pair_counts[p],
            )
        )
    return grouped, make_joint_table(cells)


@dataclass(frozen=True)
class CrossDecileCell:
    decile1: int
    decile2: int
    person_years: float
    cases: int


@dataclass(frozen=True)
class CrossDecileTable:
    """Case counts and follow-up person-years cross-classified by two deciles."""

    cells: tuple[CrossDecileCell, ...]
    mortality: float
    horizon: float

    def to_joint(self) -> JointModelTable:
        """Convert counts to a joint model table of absolute risks.

        Within each first-model decile, mass follows the person-years
        proportions; each decile row then gets equal total mass so that
        decile-level reports weight deciles equally. Cell prevalence converts
        the cell incidence cases/person_years; decile risks are the
        mass-weighted marginal prevalences (well-calibrated convention).
        """
        rows: dict[int, list[CrossDecileCell]] = {}
        for c in self.cells:
            rows.setdefault(c.decile1, []).append(c)
        n_rows = len(rows)
        raw = []
        for d1, cells in rows.items():
            row_py = math.fsum(c.person_years for c in cells)
            for c in cells:
                prev = ten_year_risk(c.cases / c.person_years, self.mortality, self.horizon)
                raw.append((c.decile1, c.decile2, c.person_years / row_py / n_rows, prev))
        risk1 = {d: p for d, _, _, p in _merge_by_key((d1, (), m, p) for d1, _, m, p in raw)}
        risk2 = {d: p for d, _, _, p in _merge_by_key((d2, (), m, p) for _, d2, m, p in raw)}
        width = max(len(str(d)) for d in list(risk1) + list(risk2))
        return make_joint_table(
            (
                f"d{d1:0{width}d}",
                f"d{d2:0{width}d}",
                risk1[d1],
                risk2[d2],
                mass,
                prev,
            )
            for d1, d2, mass, prev in raw
        )


def read_cross_decile(path, mortality: float, horizon: float) -> CrossDecileTable:
    """Parse `decile1,decile2,person_years,cases` CSV without converting."""
    mortality, horizon = float(mortality), float(horizon)
    if mortality < 0.0:
        raise NegativeRate(f"mortality {mortality} must be nonnegative")
    if horizon <= 0.0:
        raise ParameterOutOfRange(f"horizon {horizon} must be positive")
    path, linenos, columns = _read_columns(path, CROSS_DECILE_HEADER)
    cells = []
    seen = set()
    for lineno, d1_text, d2_text, py_text, cases_text in zip(linenos, *columns.values()):
        try:
            d1, d2 = int(d1_text), int(d2_text)
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: decile indices {d1_text!r},{d2_text!r} must be integers"
            ) from None
        py = _parse_float(path, lineno, "person_years", py_text)
        cases_f = _parse_float(path, lineno, "cases", cases_text)
        if not math.isfinite(cases_f) or cases_f < 0 or cases_f != int(cases_f):
            raise ParseError(f"{path}:{lineno}: cases {cases_text!r} must be a nonnegative integer")
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


def load_cross_decile(path, mortality: float, horizon: float) -> JointModelTable:
    """Load a cross-decile count table and convert it to a joint risk table."""
    return read_cross_decile(path, mortality, horizon).to_joint()


def example_cross_decile_path() -> Path:
    """Path of the bundled 40-cell synthetic cross-decile example."""
    return Path(str(resources.files("riskeval").joinpath("data/example_crossdecile.csv")))


def _csv_text(v) -> str:
    text = str(v)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def format_csv(header, rows) -> str:
    """CSV text: the header line, then one line per row of values.

    Floats are written at 12 significant digits, as format_label writes them;
    a text field that holds a comma or a double quote is quoted, its quotes
    doubled.
    """
    lines = [",".join(header)]
    lines += [
        ",".join([format(v, ".12g") if isinstance(v, float) else _csv_text(v) for v in row])
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def grouped_csv(table: GroupedModelTable) -> str:
    """`risk,mass,prevalence` CSV text of a grouped table."""
    return format_csv(GROUPED_HEADER, ((g.risk, g.mass, g.prevalence) for g in table.groups))


def write_grouped(table: GroupedModelTable, path) -> None:
    """Write `risk,mass,prevalence` CSV at 12 significant digits."""
    Path(path).write_text(grouped_csv(table), encoding="utf-8")


def write_joint(table: JointModelTable, path) -> None:
    """Write `r1,r2,mass,prevalence` CSV at 12 significant digits."""
    rows = ((c.risk1, c.risk2, c.mass, c.prevalence) for c in table.cells)
    Path(path).write_text(format_csv(JOINT_HEADER, rows), encoding="utf-8")
