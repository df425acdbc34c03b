"""The numeric input boundary: every range goes through samplers.check_ranges,
and malformed numbers end in exit 1 naming their field, never a traceback."""

import contextlib
import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdigraph import experiments
from rrdigraph.bounds import TailBoundSpec, eval_bound
from rrdigraph.cli import main
from rrdigraph.experiments import _STATISTICS, ExperimentConfig
from rrdigraph.samplers import Above, SamplerSpec, check_ranges, check_reads, enumerate_all

NAN, INF = float("nan"), float("inf")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


class TestCheckRanges:
    @pytest.mark.parametrize(
        "row, message",
        [
            (("x", -1, 0), "thing field 'x' must be >= 0, got -1"),
            (("x", 2.5, 0, 2), "thing field 'x' must be in [0, 2], got 2.5"),
            (("x", 0, Above(0)), "thing field 'x' must be > 0, got 0"),
            (("x", 0.0, Above(0), 1), "thing field 'x' must be in (0, 1], got 0.0"),
            (("x", NAN, 0), "thing field 'x' must be finite and >= 0, got nan"),
            (("x", INF, Above(0)), "thing field 'x' must be finite and > 0, got inf"),
            (("x", -INF, 0), "thing field 'x' must be finite and >= 0, got -inf"),
            (("x", NAN, 0, 1), "thing field 'x' must be in [0, 1], got nan"),
        ],
    )
    def test_refuses_with_one_message_shape(self, row, message):
        with pytest.raises(ValueError) as info:
            check_ranges("thing", ("ok", 1, 0), row)
        assert str(info.value) == message

    def test_passes_and_skips_none(self):
        check_ranges("thing", ("a", None, 1), ("b", 0, 0), ("c", 1e308, Above(0)), ("d", 10**400, 1), ("e", 1, 0, 1))


@dataclass(frozen=True)
class _Thing:
    x: int = 0
    y: Optional[int] = None
    z: Optional[int] = None


_ER = dict(kind="erdos_renyi", n=10, p=0.3)


class TestCheckReads:
    @pytest.mark.parametrize(
        "thing, message",
        [
            (_Thing(x=1, y=1), "thing field 'y' is not read by row 'r'"),
            (_Thing(z=1), "thing field 'y' is required by row 'r'"),
        ],
    )
    def test_refuses_with_two_message_shapes(self, thing, message):
        with pytest.raises(ValueError) as info:
            check_reads("thing", thing, ("z",), "row 'r'", requires=("y",) if thing.y is None else ())
        assert str(info.value) == message

    def test_not_read_comes_before_required(self):
        with pytest.raises(ValueError, match="'z' is not read"):
            check_reads("thing", _Thing(z=1), ("y",), "row 'r'", requires=("y",))
        check_reads("thing", _Thing(x=5, y=1), ("y",), "row 'r'", requires=("y",))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SamplerSpec(kind="rejection", n=4, d=2, steps=3),
             "sampler field 'steps' is not read by kind 'rejection'"),
            (lambda: SamplerSpec(kind="erdos_renyi", n=5), "sampler field 'p' is required by kind 'erdos_renyi'"),
            (lambda: TailBoundSpec(theorem="codegree_upper", n=10, d=3, p=0.5),
             "bound field 'p' is not read by theorem 'codegree_upper'"),
            (lambda: TailBoundSpec(theorem="er_edge", n=10, p=0.3, a=2), "bound field 'b' is required by theorem 'er_edge'"),
            (lambda: ExperimentConfig(sampler=SamplerSpec(**_ER), statistic="er_codegree", grid=(0.5,), N=10, a=2),
             "config field 'a' is not read by statistic 'er_codegree'"),
            (lambda: ExperimentConfig(sampler=SamplerSpec(**_ER), statistic="er_edge", grid=(0.5,), N=10, a=2),
             "config field 'b' is required by statistic 'er_edge'"),
        ],
        ids=["sampler-read", "sampler-required", "bound-read", "bound-required", "config-read", "config-required"],
    )
    def test_one_message_per_owner(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_statistic_requires_what_its_theorem_does(self):
        # The sampler feeds p, so er_codegree requires nothing of the config.
        requires = {name: stat.requires for name, stat in _STATISTICS.items()}
        assert requires == {"codegree": (), "codegree_uniform": (), "edge_count": ("a", "b"),
                            "perm_edge_count": ("a", "b"), "er_codegree": (), "er_edge": ("a", "b")}

    def test_cli(self, tmp_path, monkeypatch):
        code, out, err = run("sample", "--kind", "erdos_renyi", "--n", 5)
        assert code == 1 and not out and "sampler field 'p' is required by kind 'erdos_renyi'" in err
        monkeypatch.setattr(experiments, "draw", None)  # a draw would fail with a TypeError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sampler": {"kind": "rejection", "n": 20, "d": 3}, "statistic": "edge_count",
                                    "grid": [0.5], "N": 10**7, "b": 5}))
        code, _, err = run("tail", "--config", path, "--out", tmp_path / "t.csv")
        assert code == 1 and "config field 'a' is required by statistic 'edge_count'" in err
        assert not (tmp_path / "t.csv").exists()


# The cases below each passed the input boundary before it had a row for
# their field: a traceback, a NaN bound reported valid, a set size outside
# the class, a p outside [0, 1], a negative tolerance, or a resource-guard
# exit for a malformed cap.
_BOUND_CASES = [
    ("edge_upper --n 10 --d 3 --a 0 --b 2 --tau 1", "a"),
    ("codegree_upper --n 10 --d 3 --eps nan", "deviation"),
    ("codegree_upper --n 10 --d 3 --eps inf", "deviation"),
    ("er_edge --n 10 --p nan --a 2 --b 2 --tau 1", "p"),
    ("er_codegree --n 10 --p -0.5 --eps 1", "p"),
    ("edge_upper --n 10 --d 3 --a 2 --b 11 --tau 1", "b"),
    ("edge_upper --n 10 --d 3 --a 2 --b 2 --tau 1 --good-eta -1", "eta"),
]
# The CLI names a refused deviation or tolerance by the flag typed: each
# deviation case above types --eps.
_CLI_NAME = {"deviation": "--eps", "eta": "--good-eta"}


class TestClosedGaps:
    @pytest.mark.parametrize("argv, field", _BOUND_CASES)
    def test_bound_cli(self, argv, field):
        code, out, err = run("bound", "--theorem", *argv.split())
        assert code == 1 and not out
        assert f"bound field '{_CLI_NAME.get(field, field)}' must be" in err

    @pytest.mark.parametrize("argv, field", _BOUND_CASES)
    def test_bound_spec(self, argv, field):
        tokens = argv.split()
        flags = {f.lstrip("-").replace("-", "_"): v for f, v in zip(tokens[1::2], tokens[2::2])}
        deviation = next(float(flags.pop(k)) for k in ("eps", "tau") if k in flags)
        if "good_eta" in flags:
            flags["eta"] = flags.pop("good_eta")
        fields = {k: (int(v) if k in ("n", "d", "a", "b") else float(v)) for k, v in flags.items()}
        with pytest.raises(ValueError, match=f"bound field '{field}' must be"):
            TailBoundSpec(theorem=tokens[0], deviation=deviation, **fields)

    _TAIL_CASES = [
        (dict(statistic="edge_count", a=0, b=5), "bound field 'a' must be in [1, 20]"),
        (dict(statistic="edge_count", a=5, b=5, good_event_eta=-1), "config field 'good_event_eta' must be >= 0"),
        (dict(statistic="edge_count", a=5, b=5, good_event_eta=NAN), "config field 'good_event_eta' must be finite"),
        (dict(statistic="codegree", grid=[INF]), "config field 'grid' must be finite"),
        (dict(statistic="edge_count", a=5, b=21), "bound field 'b' must be in [1, 20]"),
        (dict(statistic="codegree", grid=[1e308]), "config field 'grid' must give theorem 'codegree_upper' a finite"),
        (dict(statistic="codegree", grid=[10**400]), "config field 'grid' must hold numbers within float range"),
        (dict(statistic="edge_count", a=5, b=5, grid=[1e308]), "config field 'grid' must give theorem 'edge_upper' a finite"),
        (dict(statistic="codegree", grid=[]), "config field 'grid' must hold at least one value"),
    ]

    @pytest.mark.parametrize("fields, message", _TAIL_CASES)
    def test_tail_refused_before_any_draw(self, tmp_path, monkeypatch, fields, message):
        def no_draw(*args):
            raise AssertionError("draw called on a config that should be refused")

        monkeypatch.setattr(experiments, "draw", no_draw)
        payload = dict({"sampler": {"kind": "rejection", "n": 20, "d": 3}, "grid": [0.5], "N": 10**7}, **fields)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        code, _, err = run("tail", "--config", path, "--out", tmp_path / "t.csv")
        assert code == 1 and message in err
        assert not (tmp_path / "t.csv").exists()
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize("threads", [0, -5])
    def test_tail_needs_a_thread(self, tmp_path, monkeypatch, threads):
        def no_draw(*args):
            raise AssertionError("draw called on a run that should be refused")

        monkeypatch.setattr(experiments, "draw", no_draw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sampler": {"kind": "rejection", "n": 20, "d": 3}, "statistic": "codegree",
                                    "grid": [0.5], "N": 10}))
        code, out, err = run("tail", "--config", path, "--out", tmp_path / "t.csv", "--threads", threads)
        assert (code, out) == (1, "")
        assert f"tail field 'threads' must be >= 1, got {threads}" in err
        assert not (tmp_path / "t.csv").exists()

    # A formula that overflows is refused, naming its largest input: at the
    # CLI the flag typed for a deviation, in the spec its field.
    @pytest.mark.parametrize(
        "argv, flag, field",
        [
            ("perm_edge --n 10 --d 3 --a 2 --b 3 --tau 1e308", "--tau", "deviation"),
            ("edge_upper --n 10 --d 3 --a 2 --b 3 --tau 1e308", "--tau", "deviation"),
            ("codegree_upper --n 10 --d 3 --eta 1e308", "--eta", "deviation"),
            (f"codegree_upper --n {10**400} --d 3 --eps 1", "n", "n"),
        ],
        ids=["perm_edge-tau", "edge_upper-tau", "codegree_upper-eta", "codegree_upper-n"],
    )
    def test_bound_must_be_finite(self, argv, flag, field):
        code, out, err = run("bound", "--theorem", *argv.split())
        assert code == 1 and not out
        assert f"bound field '{flag}' must give theorem '{argv.split()[0]}' a finite bound" in err
        tokens = argv.split()
        fields = {f[2:]: v for f, v in zip(tokens[1::2], tokens[2::2])}
        deviation = float(next(fields.pop(k) for k in ("eps", "tau", "eta") if k in fields))
        fields = {k: (int(v) if k in ("n", "d", "a", "b") else float(v)) for k, v in fields.items()}
        with pytest.raises(ValueError, match=f"bound field '{field}' must give"):
            eval_bound(TailBoundSpec(theorem=tokens[0], deviation=deviation, **fields))

    def test_max_states_is_a_usage_error(self):
        with pytest.raises(ValueError, match="enumeration field 'max_states' must be >= 1, got -1"):
            enumerate_all(3, 3, 1, max_states=-1)
        code, _, err = run("enumerate", "--n", 3, "--d", 1, "--max-states", -1)
        assert code == 1 and "'max_states'" in err

    @pytest.mark.parametrize("samples", [0, -1])
    def test_verify_needs_a_sample(self, samples):
        # With no sample every record would be vacuous and the run "ok".
        code, out, err = run("verify", "--suite", "all", "--n", 8, "--d", 3, "--samples", samples)
        assert (code, out) == (1, "")
        assert f"verify field 'samples' must be >= 1, got {samples}" in err


class TestVerifyCsv:
    @pytest.mark.parametrize("suite, n, d", [("reflection", 8, 3), ("all", 8, 3)])
    def test_rows_parse_and_equal_the_json_records(self, suite, n, d):
        argv = ("verify", "--suite", suite, "--n", n, "--d", d, "--samples", 5)
        code, text, _ = run(*argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["suite", "invariant", "status", "checked", "worst_margin"]
        assert all(len(row) == 5 for row in rows)
        _, payload, _ = run(*argv)
        records = [
            [s["suite"], r["invariant"], r["status"], r["checked"], r["worst_margin"]]
            for s in json.loads(payload)["suites"] for r in s["records"]
        ]
        parsed = [[s, i, st_, int(c), None if m == "" else float(m)] for s, i, st_, c, m in rows[1:]]
        assert parsed == records
        assert any("," in r[1] for r in records) and any(r[4] is None for r in records)


# -- property tests ------------------------------------------------------------------


@st.composite
def tail_configs(draw):
    """A valid ExperimentConfig: any statistic, a sampler kind it is defined
    under and every optional field it reads, set or left to its default."""
    statistic = draw(st.sampled_from(sorted(_STATISTICS)))
    stat = _STATISTICS[statistic]
    kind = draw(st.sampled_from(stat.kinds))
    n = draw(st.integers(2, 40))
    sampler = dict(kind=kind, n=n, stream=draw(st.integers(0, 2**32)))
    if kind == "erdos_renyi":
        sampler["p"] = draw(st.floats(0, 1))
    else:
        sampler["d"] = draw(st.integers(0, n))
    if kind == "switch_mcmc":
        sampler["steps"] = draw(st.none() | st.integers(0, 10**6))
    if kind == "rejection":
        sampler["max_attempts"] = draw(st.none() | st.integers(1, 10**9))
    fields = {}
    if stat.row_pair:
        fields["i1"], fields["i2"] = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if "a" in stat.reads:
        fields["a"], fields["b"] = draw(st.integers(1, n)), draw(st.integers(1, n))
    if "good_event_eta" in stat.reads:
        fields["good_event_eta"] = draw(st.none() | st.floats(0, 10))
    return ExperimentConfig(
        sampler=SamplerSpec(**sampler),
        statistic=statistic,
        grid=tuple(draw(st.lists(st.floats(0, 1e6), min_size=1, max_size=4))),
        N=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**63)),
        **fields,
    )


# A value in range for each optional config field, and a sampler of each kind, at n = 8.
_CONFIG_VALUES = dict(good_event_eta=0.1, i1=0, i2=1, a=2, b=3)
_SAMPLERS = {"rejection": dict(n=8, d=2), "switch_mcmc": dict(n=8, d=2, steps=10),
             "permutation_model": dict(n=8, d=2), "erdos_renyi": dict(n=8, p=0.3)}


class TestBoundaryProperties:
    """Fixed budgets and a fixed seed (derandomize), chosen before the runs."""

    @given(st.sampled_from(sorted(_STATISTICS)), st.sets(st.sampled_from(sorted(_CONFIG_VALUES))))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_config_accepts_exactly_the_fields_its_statistic_reads(self, statistic, names):
        stat = _STATISTICS[statistic]
        accepted = names <= set(stat.reads) and set(stat.requires) <= names
        try:
            ExperimentConfig(sampler=SamplerSpec(kind=stat.kinds[0], **_SAMPLERS[stat.kinds[0]]), statistic=statistic,
                             grid=(0.5,), N=10, **{name: _CONFIG_VALUES[name] for name in names})
        except ValueError:
            assert not accepted
        else:
            assert accepted

    @given(tail_configs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_config_round_trip(self, cfg):
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    _VALUES = (-1, 0, 1, "n", "n+1", NAN, INF, -INF, 1e308)

    # One small valid config per statistic, N <= 50, every numeric field set.
    _TAIL_BASE = {
        "codegree": {"sampler": {"kind": "rejection", "n": 8, "d": 2, "max_attempts": 1000}, "i1": 0, "i2": 1},
        "codegree_uniform": {"sampler": {"kind": "switch_mcmc", "n": 8, "d": 2, "steps": 20}},
        "edge_count": {"sampler": {"kind": "rejection", "n": 8, "d": 2}, "a": 2, "b": 3, "good_event_eta": 0.25},
        "perm_edge_count": {"sampler": {"kind": "permutation_model", "n": 8, "d": 2}, "a": 2, "b": 3},
        "er_codegree": {"sampler": {"kind": "erdos_renyi", "n": 8, "p": 0.3}, "i1": 0, "i2": 1},
        "er_edge": {"sampler": {"kind": "erdos_renyi", "n": 8, "p": 0.3}, "a": 2, "b": 3},
    }

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_tail_numbers(self, tmp_path_factory, data):
        statistic = data.draw(st.sampled_from(sorted(self._TAIL_BASE)))
        cfg = json.loads(json.dumps(self._TAIL_BASE[statistic]))
        cfg.update(statistic=statistic, grid=[0.5], N=20, seed=1)
        paths = [("sampler", k) for k in cfg["sampler"] if k != "kind"] + [(k,) for k in cfg if k != "sampler"]
        paths.remove(("statistic",))
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from(self._VALUES))
        value = {"n": 8, "n+1": 9}.get(value, value) if isinstance(value, str) else value
        target = cfg["sampler"] if path[0] == "sampler" else cfg
        target[path[-1]] = [value] if path[-1] == "grid" else value
        folder = tmp_path_factory.mktemp("tail")
        (folder / "cfg.json").write_text(json.dumps(cfg))
        code, _, err = run("tail", "--config", folder / "cfg.json", "--out", folder / "t.csv")
        # 2 is the verdict of a run whose bound fails, which only a defect
        # can make now that no constant is set; 3 the rejection budget's guard.
        assert code in (0, 1, 2) or (code == 3 and cfg["sampler"]["kind"] == "rejection"), (code, err)
        if code == 1:
            named = re.findall(r"'([\w.]+)'", err)
            # A small n can push the fields it bounds out of range first.
            assert named and (path == ("sampler", "n") or path[-1] in {x.split(".")[-1] for x in named}), err
            assert not (folder / "t.csv").exists()
        if code == 2:
            assert ",fail\n" in (folder / "t.csv").read_text()

    _BOUND_BASE = {
        "codegree_upper": "--n 10 --d 3 --eps 1",
        "codegree_uniform": "--n 10 --d 3 --eps 1",
        "edge_upper": "--n 10 --d 3 --a 2 --b 3 --tau 1 --good-eta 0.1",
        "edge_lower": "--n 10 --d 3 --a 2 --b 3 --tau 1 --good-eta 0.1",
        "edge_twosided": "--n 10 --d 3 --a 2 --b 3 --tau 1 --good-eta 0.1",
        "perm_edge": "--n 10 --d 3 --a 2 --b 3 --tau 1",
        "er_codegree": "--n 10 --p 0.3 --eps 1",
        "er_edge": "--n 10 --p 0.3 --a 2 --b 3 --tau 1",
        "bipartite_codegree_uniform": "--n 10 --m 5 --d 3 --eps 1",
        "bipartite_edge": "--n 10 --m 5 --d 3 --a 2 --b 3 --tau 1 --good-eta 0.1",
    }
    # The spec field each flag feeds, where the names differ.
    _BOUND_FIELD = {"eps": "deviation", "tau": "deviation", "good-eta": "eta"}

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bound_numbers(self, data):
        theorem = data.draw(st.sampled_from(sorted(self._BOUND_BASE)))
        tokens = self._BOUND_BASE[theorem].split()
        i = data.draw(st.sampled_from(range(1, len(tokens), 2)))
        value = data.draw(st.sampled_from(self._VALUES))
        tokens[i] = {"n": "10", "n+1": "11"}.get(value, value) if isinstance(value, str) else repr(value)
        code, out, err = run("bound", "--theorem", theorem, *tokens)
        assert code in (0, 1), (code, err)
        if code == 0:
            json.loads(out)
        else:
            flag = tokens[i - 1][2:]
            field = self._BOUND_FIELD.get(flag, flag)
            # An out-of-range n or m can push d, a or b out of range first.
            assert f"--{flag}" in err or f"'{field}'" in err or (flag in ("n", "m") and "field '" in err), err

