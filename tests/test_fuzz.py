"""Robustness: byte-mutated valid inputs give a result or a clean error.

Each example starts from a small valid file of one input format, applies 1
to 3 byte edits (replace, insert or delete) drawn from the bytes that matter
to a CSV number reader, and runs `eval` and `compare` in process, each as
CSV, JSON and with --percent. Every run must exit 0 or 2 without a
traceback; a run that exits 2 ends stderr with one `error: ` line and
writes nothing.
"""

import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riskeval
from riskeval.cli import main

RISKS = [(0.1, 0.2), (0.3, 0.25), (0.3, 0.6), (0.05, 0.1), (0.7, 0.5), (0.12, 0.08),
         (0.45, 0.5), (0.2, 0.35), (0.9, 0.8), (0.02, 0.01), (0.6, 0.72), (0.33, 0.3)]
SEEDS = {
    "records": b"risk1,risk2,outcome\n"
    + b"".join(b"%g,%g,%d\n" % (r1, r2, i % 3 == 1) for i, (r1, r2) in enumerate(RISKS)),
    "single_model_records": b"risk1,risk2,outcome\n"
    + b"".join(b"%g,,%d\n" % (r1, i % 2) for i, (r1, _) in enumerate(RISKS)),
    "grouped": b"risk,mass,prevalence\n0.0352,0.64,0.0352\n0.0676,0.16,0.07\n0.1,0.1,0.1\n"
    b"0.3592,0.02,0.3\n0.6184,0.08,0.6184\n",
    "joint": b"r1,r2,mass,prevalence\n0.1,0.05,0.3,0.04\n0.1,0.2,0.2,0.18\n"
    b"0.4,0.05,0.1,0.06\n0.4,0.6,0.4,0.62\n",
    "cross_decile": riskeval.example_cross_decile_path().read_bytes(),
}
COMMANDS = {"eval": ["eval"], "compare": ["compare", "--mortality", "0.0053", "--horizon", "10"]}
# The natural command of each seed, which must succeed on the unmutated file.
SEED_COMMAND = {
    "records": "eval", "single_model_records": "eval", "grouped": "eval",
    "joint": "compare", "cross_decile": "compare",
}
OUTPUTS = ([], ["--format", "json"], ["--percent"])
TOKENS = [*(bytes([c]) for c in b'0123456789.,-e+"\n\r\x00\xff'), b"nan"]

EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 10**6),
        st.sampled_from(TOKENS),
    ),
    min_size=1,
    max_size=3,
)


def _mutated(data: bytes, edits) -> bytes:
    for op, at, token in edits:
        at %= len(data) + (op == "insert")
        if op == "insert":
            data = data[:at] + token + data[at:]
        elif data:
            data = data[:at] + (token if op == "replace" else b"") + data[at + 1 :]
    return data


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_run(argv) -> int:
    __tracebackhide__ = True
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.splitlines()[-1].startswith("error: "), (argv, err)
        assert not any(line.startswith("wrote") for line in out.splitlines()), (argv, out)
    return code


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_each_seed_is_valid(tmp_path, name):
    path = tmp_path / "input.csv"
    path.write_bytes(SEEDS[name])
    command, *flags = COMMANDS[SEED_COMMAND[name]]
    assert _check_run([command, str(path), *flags, "--out", str(tmp_path / "out")]) == 0


# tmp_path only holds one fresh directory per example, so sharing it is safe.
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(name=st.sampled_from(sorted(SEEDS)), edits=EDITS)
def test_mutated_inputs_exit_0_or_2_without_a_traceback(tmp_path, name, edits):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    path = work / "input.csv"
    path.write_bytes(_mutated(SEEDS[name], edits))
    for i, ((command, *flags), output) in enumerate(itertools.product(COMMANDS.values(), OUTPUTS)):
        _check_run([command, str(path), *flags, *output, "--out", str(work / f"out{i}")])
