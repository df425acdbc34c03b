"""Golden outputs of `rrdigraph tail`, `sample`, `stats`, `couple`, `bound`,
`enumerate`, `sigma2` and `verify`.

Tail: one small valid config per tail statistic, with the CSV and the
metadata (less `wall_time_s`) that `rrdigraph tail` must write.  Each case
in `tests/golden/` is `tail_<case>.config.json`, `.csv` and `.meta.json`.
It runs through `cli.main` at `--threads 1` and `2`; N = 5000 makes two
shards, so the second run merges shards from two workers.

Sample: one small draw per sampler kind and one of the 6 x 9 biregular
class, each `sample_<case>.argv` (the flags after `sample`) with the
`.stdout` and `.stderr` that `cli.main` must print: the matrix text and
the config echo for the class kinds, the JSON payload for the others.
These hold integers and echoed inputs only, so they compare byte for byte.

Payload: each `<command>_<case>.argv` of the other commands (the flags
after the command) with the `.json` that holds the exit code and the one
JSON payload that `cli.main` must print: `stats` on a square, a 6 x 9 and a
1 x 5 matrix, `couple` with a switch applied and a reflection that is a
no-op (exit 4), `bound` once per theorem, `enumerate --count-only`,
`sigma2` with and without `--alpha`, and `verify --suite all` on the four
configs whose records `tests/test_verify.py::TestPinnedPayload` also pins
by digest.  They run in `tests/golden/`, so the
`matrix_*.txt` inputs are echoed by the name `--in` gives them.

In the tail and payload outputs, integers, booleans and strings compare
exactly.  Floats compare at 1e-12 relative, not bit for bit: the
confidence limits and the bounds go through libm's exp and log and NumPy's
reductions, whose last bits may differ between platforms and NumPy builds
(CI's floor-pin job runs NumPy 2.0), so an exact comparison would fail
correct builds.  A failure names the first differing path.

After an intended change, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py --update

which prints the cases that moved, and stops, naming the case, at a tail
or sample run that exits non-zero.  Never regenerate a case to hide a
change nobody intended.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from rrdigraph.bounds import THEOREMS
from rrdigraph.cli import main
from rrdigraph.experiments import _STATISTICS
from rrdigraph.samplers import SAMPLER_KINDS

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(path.name[: -len(".config.json")] for path in GOLDEN.glob("tail_*.config.json"))
SAMPLE_CASES = sorted(path.name[: -len(".argv")] for path in GOLDEN.glob("sample_*.argv"))
PAYLOAD_CASES = sorted(path.name[: -len(".argv")] for path in GOLDEN.glob("*.argv")
                       if not path.name.startswith("sample_"))


def _cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_csv(text: str) -> list:
    return [[_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def _diff(got, want, path="$"):
    """The first path at which `got` differs from `want`, or None."""
    if type(got) is not type(want):
        return f"{path}: got {got!r}, want {type(want).__name__} {want!r}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)}, want {sorted(want)}"
        return next((d for key in want if (d := _diff(got[key], want[key], f"{path}.{key}"))), None)
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)}, want {len(want)}"
        return next((d for i, (g, w) in enumerate(zip(got, want)) if (d := _diff(g, w, f"{path}[{i}]"))), None)
    same = math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0) if isinstance(want, float) else got == want
    return None if same else f"{path}: got {got!r}, want {want!r}"


def _run(case: str, out: Path, threads: int):
    """(exit code, CSV text, metadata less wall_time_s) of one tail run; a
    refused run writes no file, so it gives (code, None, None)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["tail", "--config", str(GOLDEN / f"{case}.config.json"), "--out", str(out),
                     "--threads", str(threads)])
    if code:
        return code, None, None
    meta = json.loads(Path(f"{out}.meta.json").read_text())
    meta.pop("wall_time_s")
    return code, out.read_text(), meta


def test_one_case_per_statistic():
    statistics = [json.loads((GOLDEN / f"{case}.config.json").read_text())["statistic"] for case in CASES]
    assert sorted(statistics) == sorted(_STATISTICS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", CASES)
def test_tail_matches_golden(case, threads, tmp_path):
    code, text, meta = _run(case, tmp_path / "tail.csv", threads)
    assert code == 0
    want_csv = (GOLDEN / f"{case}.csv").read_text()
    assert text.splitlines()[0] == want_csv.splitlines()[0]  # the header, byte for byte
    for diff in (_diff(_read_csv(text), _read_csv(want_csv), "csv"),
                 _diff(meta, json.loads((GOLDEN / f"{case}.meta.json").read_text()), "meta")):
        assert diff is None, diff


def _sample(case: str):
    """(exit code, stdout, stderr) of one `rrdigraph sample` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sample", *(GOLDEN / f"{case}.argv").read_text().split()])
    return code, out.getvalue(), err.getvalue()


def test_every_sampler_kind_has_a_sample_case():
    kinds = {(GOLDEN / f"{case}.argv").read_text().split("--kind")[1].split()[0] for case in SAMPLE_CASES}
    assert kinds == set(SAMPLER_KINDS)


@pytest.mark.parametrize("case", SAMPLE_CASES)
def test_sample_matches_golden(case):
    code, out, err = _sample(case)
    assert code == 0
    assert out == (GOLDEN / f"{case}.stdout").read_text()
    assert err == (GOLDEN / f"{case}.stderr").read_text()


def _payload(case: str):
    """(exit code, stdout payload, stderr) of one run of the case's command,
    made in tests/golden/."""
    argv = [case.split("_")[0], *(GOLDEN / f"{case}.argv").read_text().split()]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, json.loads(out.getvalue()), err.getvalue()


def test_one_bound_case_per_theorem():
    theorems = [(GOLDEN / f"{case}.argv").read_text().split()[1] for case in PAYLOAD_CASES
                if case.startswith("bound_")]
    assert sorted(theorems) == sorted(THEOREMS)


@pytest.mark.parametrize("case", PAYLOAD_CASES)
def test_payload_matches_golden(case):
    code, payload, err = _payload(case)
    assert err == ""
    diff = _diff({"exit": code, "stdout": payload}, json.loads((GOLDEN / f"{case}.json").read_text()))
    assert diff is None, diff


def _write(files: dict, case: str) -> None:
    """Write each path's text, and print `case` if any of them moved."""
    if any(not path.exists() or path.read_text() != text for path, text in files.items()):
        print(f"moved: {case}")
    for path, text in files.items():
        path.write_text(text)


def _refused(case: str, code: int) -> None:
    """Stop the update at a tail or sample case that exits non-zero."""
    if code:
        sys.exit(f"golden case {case} exited {code}; its files and the later cases' are left as they are")


def _update(scratch: Path) -> None:
    """Rewrite every case's expected files and print the ones that moved;
    stop at the first tail or sample case that exits non-zero."""
    for case in CASES:
        code, text, meta = _run(case, scratch / f"{case}.csv", 1)
        _refused(case, code)
        _write({GOLDEN / f"{case}.csv": text, GOLDEN / f"{case}.meta.json": json.dumps(meta, indent=2) + "\n"}, case)
    for case in SAMPLE_CASES:
        code, out, err = _sample(case)
        _refused(case, code)
        _write({GOLDEN / f"{case}.stdout": out, GOLDEN / f"{case}.stderr": err}, case)
    for case in PAYLOAD_CASES:
        code, payload, _ = _payload(case)
        _write({GOLDEN / f"{case}.json": json.dumps({"exit": code, "stdout": payload}, indent=2) + "\n"}, case)


# A refused case of each kind and the files an update would rewrite.
_REFUSED = {"tail": ("tail_refused", (".csv", ".meta.json")), "sample": ("sample_refused", (".stdout", ".stderr"))}


@pytest.mark.parametrize("kind", sorted(_REFUSED))
def test_update_stops_at_a_refused_case(kind, tmp_path, monkeypatch, capsys):
    """`--update` writes the cases before a refused one and stops there,
    leaving the refused case's files as they were, not holding the output
    of the case before it."""
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "tail_good.config.json").write_text((GOLDEN / "tail_codegree.config.json").read_text())
    config = json.loads((GOLDEN / "tail_er_codegree.config.json").read_text())
    (golden / "tail_refused.config.json").write_text(json.dumps({**config, "c": 0.5}))
    (golden / "sample_refused.argv").write_text("--kind rejection --n 3 --d 5\n")
    case, outputs = _REFUSED[kind]
    old = {golden / f"{case}{ext}": f"old {ext}\n" for ext in outputs}
    for path, text in old.items():
        path.write_text(text)
    want = (GOLDEN / "tail_codegree.csv").read_text()
    cases = ["tail_good"] + ["tail_refused"] * (kind == "tail")
    for name, value in (("GOLDEN", golden), ("CASES", cases), ("SAMPLE_CASES", ["sample_refused"] * (kind == "sample")),
                        ("PAYLOAD_CASES", [])):
        monkeypatch.setitem(globals(), name, value)
    with pytest.raises(SystemExit, match=f"golden case {case} exited 1"):
        _update(tmp_path)
    assert {path: path.read_text() for path in old} == old
    assert capsys.readouterr().out == "moved: tail_good\n"
    assert (golden / "tail_good.csv").read_text() == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _update(Path(scratch))
