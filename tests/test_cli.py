import json
import re

import pytest

from rrdigraph import cli
from rrdigraph.bounds import THEOREMS
from rrdigraph.cli import main
from rrdigraph.matrices import format_matrix, parse_matrices, parse_matrix
from rrdigraph.samplers import SamplerSpec, circulant, sample_many
from rrdigraph.spectral import ALPHA_EXACT_CAP

from conftest import MALFORMED_TEXT, gram_codegrees


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_writes_matrices_and_echoes_config(self, tmp_path, capsys):
        out = tmp_path / "mats.txt"
        code, stdout, _ = run(
            capsys,
            "sample", "--kind", "switch_mcmc", "--n", "6", "--d", "2",
            "--steps", "100", "--seed", "3", "--count", "3", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["schema_version"] == 2
        assert payload["config"]["steps"] == 100
        assert payload["config"]["m"] == 6  # defaults filled
        mats = parse_matrices(out.read_text())
        assert len(mats) == 3
        for mat in mats:
            mat.validate()

    @pytest.mark.parametrize("kind, echoed", [("rejection", 10**6), ("switch_mcmc", None), ("permutation_model", None)])
    def test_max_attempts_echoed_only_where_read(self, tmp_path, capsys, kind, echoed):
        out = tmp_path / "x.txt"
        code, stdout, _ = run(capsys, "sample", "--kind", kind, "--n", "4", "--d", "2", "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["config"]["max_attempts"] == echoed

    def test_stdout_matrix_when_no_out(self, capsys):
        code, stdout, _ = run(
            capsys, "sample", "--kind", "switch_mcmc", "--n", "4", "--d", "2",
            "--steps", "0",
        )
        assert code == 0
        assert stdout.startswith("4 4 2 2\n")
        parse_matrix(stdout)

    def test_rejection_guard_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "sample", "--kind", "rejection", "--n", "50", "--d", "20",
            "--max-attempts", "1500",
        )
        assert code == 3
        assert "resource guard" in err

    def test_rejection_on_a_near_complete_class(self, capsys):
        # The (16, 12) class keeps about e^-60 of its attempts; rejection
        # draws its complement, the (16, 4) class, which keeps about 0.8%.
        code, stdout, _ = run(capsys, "sample", "--kind", "rejection", "--n", "16", "--d", "12",
                              "--count", "2", "--seed", "1")
        assert code == 0
        mats = parse_matrices(stdout)
        assert len(mats) == 2
        for mat in mats:
            mat.validate()
            assert (mat.m, mat.n, mat.d, mat.dp) == (16, 16, 12, 12)

    def test_permutation_model_json(self, capsys):
        code, stdout, _ = run(
            capsys, "sample", "--kind", "permutation_model", "--n", "5", "--d", "2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert len(payload["samples"][0]) == 2  # d permutations

    def test_determinism(self, tmp_path, capsys):
        args = ("sample", "--kind", "rejection", "--n", "8", "--d", "2",
                "--seed", "5", "--count", "4")
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_text() == b.read_text()


class TestStatsRoundTrip:
    def test_sample_then_stats_reads_identical_matrix(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        run(capsys, "sample", "--kind", "switch_mcmc", "--n", "6", "--d", "3",
            "--steps", "200", "--seed", "4", "--out", str(src))
        echo = tmp_path / "echo.txt"
        code, stdout, _ = run(capsys, "stats", "--in", str(src), "--out", str(echo))
        assert code == 0
        report = json.loads(stdout)
        assert (report["m"], report["n"], report["d"], report["dp"]) == (6, 6, 3, 3)
        assert echo.read_bytes() == src.read_bytes()  # bit-exact round trip
        mat = parse_matrix(src.read_text())
        assert report["edges"] == mat.m * mat.d

    def test_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2 1 1\n10\n10\n")
        code, _, err = run(capsys, "stats", "--in", str(bad))
        assert code == 1
        assert "column" in err


class TestStatsCodegrees:
    """stats' least and greatest out- and in-codegrees against a dense Gram
    oracle, on one-word and multi-word rows and on square and rectangular
    classes; with fewer than two rows (columns) there is no pair to report."""

    @pytest.mark.parametrize(
        "spec",
        [
            dict(kind="switch_mcmc", n=6, d=3, steps=200, seed=4),
            dict(kind="rejection", n=9, d=3, m=6, dp=2, seed=77),
            dict(kind="switch_mcmc", n=130, d=40, steps=2600, seed=1),
            dict(kind="switch_mcmc", n=300, d=7, steps=6000, seed=2),
        ],
        ids=["square-6", "biregular-6x9", "n130", "n300"],
    )
    def test_equal_to_the_gram_oracle(self, tmp_path, capsys, spec):
        mat = sample_many(SamplerSpec(**spec), 1)[0]
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(mat))
        code, stdout, _ = run(capsys, "stats", "--in", str(path))
        assert code == 0
        report = json.loads(stdout)
        for key, dense in (("codegree_out", mat.dense()), ("codegree_in", mat.dense().T)):
            co = gram_codegrees(dense)
            assert report[key] == {"min": int(co.min()), "max": int(co.max())}

    @pytest.mark.parametrize(
        "rows, out, in_",
        [
            (["11111"], None, 1),
            (["1", "1", "1", "1", "1"], 1, None),
        ],
        ids=["1x5", "5x1"],
    )
    def test_one_line_has_no_pair(self, tmp_path, capsys, rows, out, in_):
        from conftest import matrix_from_strings

        path = tmp_path / "m.txt"
        path.write_text(format_matrix(matrix_from_strings(rows)))
        code, stdout, _ = run(capsys, "stats", "--in", str(path))
        assert code == 0
        report = json.loads(stdout)
        assert report["codegree_out"] == {"min": out, "max": out}
        assert report["codegree_in"] == {"min": in_, "max": in_}


class TestCouple:
    @pytest.fixture()
    def block_matrix_file(self, tmp_path):
        from conftest import matrix_from_strings

        mat = matrix_from_strings(["1100", "1100", "0011", "0011"])
        path = tmp_path / "block.txt"
        path.write_text(format_matrix(mat))
        return path, mat

    def test_switch_applied(self, block_matrix_file, tmp_path, capsys):
        path, mat = block_matrix_file
        out = tmp_path / "switched.txt"
        code, stdout, _ = run(
            capsys, "couple", "--op", "switch", "--i1", "0", "--i2", "2",
            "--j1", "0", "--j2", "2", "--in", str(path), "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["applied"] is True
        switched = parse_matrix(out.read_text())
        assert switched != mat
        switched.validate()

    def test_switch_noop_exit_4(self, block_matrix_file, tmp_path, capsys):
        path, _ = block_matrix_file
        code, stdout, _ = run(
            capsys, "couple", "--op", "switch", "--i1", "0", "--i2", "1",
            "--j1", "0", "--j2", "1", "--in", str(path),
        )
        assert code == 4
        assert json.loads(stdout)["applied"] is False

    def test_reflect_applied(self, block_matrix_file, tmp_path, capsys):
        path, mat = block_matrix_file
        out = tmp_path / "reflected.txt"
        code, _, _ = run(
            capsys, "couple", "--op", "reflect", "--j1", "0", "--j2", "2",
            "--in", str(path), "--out", str(out),
        )
        assert code == 0
        reflected = parse_matrix(out.read_text())
        assert reflected != mat
        # applying the same reflection again restores the original
        back = tmp_path / "back.txt"
        code, _, _ = run(
            capsys, "couple", "--op", "reflect", "--j1", "0", "--j2", "2",
            "--in", str(out), "--out", str(back),
        )
        assert code == 0
        assert parse_matrix(back.read_text()) == mat


class TestCoupleIndices:
    """Indices outside the input matrix, and a reflection along a row and
    itself, are usage errors raised before any output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--op", "reflect", "--i1", "2", "--i2", "2", "--j1", "0", "--j2", "2"],
            ["--op", "switch", "--i1", "9", "--j1", "0", "--j2", "2"],
            ["--op", "reflect", "--i1", "9", "--j1", "0", "--j2", "2"],
            ["--op", "reflect", "--j1", "0", "--j2", "9"],
            ["--op", "switch", "--i1", "0", "--i2", "2", "--j1", "0", "--j2", "9"],
            ["--op", "switch", "--i1", "0", "--i2", "-1", "--j1", "0", "--j2", "2"],
            ["--op", "reflect", "--j1", "-1", "--j2", "2"],
        ],
        ids=["reflect-equal-rows", "switch-i1-above-m", "reflect-i1-above-m", "reflect-j2-above-n",
             "switch-j2-above-n", "switch-i2-negative", "reflect-j1-negative"],
    )
    def test_bad_index_is_usage_error(self, tmp_path, capsys, argv):
        from conftest import matrix_from_strings

        path = tmp_path / "block.txt"
        path.write_text(format_matrix(matrix_from_strings(["1100", "1100", "0011", "0011"])))
        out = tmp_path / "out.txt"
        code, stdout, err = run(capsys, "couple", *argv, "--in", str(path), "--out", str(out))
        assert code == 1
        assert err.startswith("usage error: ")
        assert stdout == ""
        assert not out.exists()


class TestErdosRenyiFields:
    @pytest.mark.parametrize("flag", ["--m", "--dp", "--steps"])
    def test_sample_rejects_unread_field(self, capsys, flag):
        code, stdout, err = run(capsys, "sample", "--kind", "erdos_renyi", "--n", "3", "--p", "0.5", flag, "2")
        assert code == 1
        assert f"'{flag[2:]}' is not read" in err
        assert stdout == ""

    def test_tail_config_rejects_unread_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "sampler": {"kind": "erdos_renyi", "n": 10, "p": 0.3, "m": 10},
            "statistic": "er_codegree", "grid": [0.5], "N": 100,
        }))
        code, _, err = run(capsys, "tail", "--config", str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "'m' is not read" in err
        assert not (tmp_path / "t.csv").exists()


class TestVerifyCli:
    def test_reflection_suite_passes(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "--suite", "reflection", "--n", "16", "--d", "4",
            "--samples", "40", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["ok"] is True
        suite = payload["suites"][0]
        assert suite["suite"] == "reflection"
        assert all(rec["status"] == "pass" for rec in suite["records"])

    def test_all_suites(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "--suite", "all", "--n", "10", "--d", "3",
            "--samples", "15", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert [s["suite"] for s in payload["suites"]] == [
            "reflection", "switching", "permutation",
        ]

    def test_csv_format(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "--suite", "permutation", "--n", "8", "--d", "2",
            "--samples", "10", "--format", "csv",
        )
        assert code == 0
        assert stdout.startswith("suite,invariant,status,checked,worst_margin")

    def test_zero_check_record_is_vacuous(self, capsys):
        # At d = 0 no minor is switchable, so membership of switched
        # outputs is never checked, and a tuple of no permutations has no
        # factor to transpose.
        for suite, vacuous in (
            ("switching", "switching outputs stay in the class"),
            ("permutation", "transposing one factor twice is the identity"),
        ):
            code, stdout, _ = run(
                capsys, "verify", "--suite", suite, "--n", "6", "--d", "0",
                "--samples", "10",
            )
            assert code == 0
            payload = json.loads(stdout)
            assert payload["ok"] is True
            status = {rec["invariant"]: (rec["status"], rec["checked"]) for rec in payload["suites"][0]["records"]}
            assert status.pop(vacuous) == ("vacuous", 0)
            assert all(value == ("pass", 10) for value in status.values())

    def test_payload_version_and_config(self, capsys):
        code, stdout, _ = run(
            capsys, "verify", "--suite", "all", "--n", "8", "--d", "3", "--samples", "3",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["schema_version"] == 4
        for suite in payload["suites"]:
            assert suite["schema_version"] == 4
            assert suite["config"] == {
                "n": 8, "d": 3, "m": 8, "dp": 3, "samples": 3, "seed": 0, "steps": None,
            }


# The optional bound fields each theorem reads, and those of them it requires.
_BOUND_READS = {
    "codegree_upper": ("", ""),
    "codegree_uniform": ("", ""),
    "edge_upper": ("m a b eta", "a b"),
    "edge_lower": ("m a b eta", "a b"),
    "edge_twosided": ("m a b eta", "a b"),
    "perm_edge": ("a b", "a b"),
    "er_codegree": ("p", "p"),
    "er_edge": ("p a b", "p a b"),
    "bipartite_codegree_uniform": ("m", "m"),
    "bipartite_edge": ("m a b eta", "a b"),
}
# A `bound` flag and value in range at n = 24, d = 6 for each optional field.
_BOUND_FLAGS = {
    "m": ["--m", "24"], "a": ["--a", "6"], "b": ["--b", "8"], "eta": ["--good-eta", "0.1"],
    "p": ["--p", "0.25"],
}
# The theorem constants, which are no flags: every theorem refuses them.
_CONSTANT_FLAGS = {"c1": ["--c1", "2"], "c2": ["--c2", "3"], "c": ["--c", "0.5"]}


class TestBoundCli:
    def test_edge_twosided_at_zero_prints_two(self, capsys):
        code, stdout, _ = run(
            capsys, "bound", "--theorem", "edge_twosided", "--tau", "0",
            "--n", "10", "--d", "3", "--a", "2", "--b", "2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["bound"] == 2.0
        assert payload["valid"] is True
        assert payload["config"]["deviation"] == 0.0

    def test_constant_sources_reported(self, capsys):
        _, stdout, _ = run(
            capsys, "bound", "--theorem", "er_edge", "--eps", "1", "--n", "30",
            "--p", "0.2", "--a", "5", "--b", "5",
        )
        payload = json.loads(stdout)
        assert payload["constants"]["c"]["source"] == "chosen"

    def test_payload_version_and_config(self, capsys):
        code, stdout, _ = run(capsys, "bound", "--theorem", "codegree_upper", "--tau", "1", "--n", "10", "--d", "3")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["schema_version"] == 6
        assert "dp" not in payload["config"] and payload["config"]["deviation"] == 1.0

    def test_constants_are_the_theorems_own(self, tmp_path, capsys):
        code, stdout, err = run(
            capsys, "bound", "--theorem", "edge_upper", "--tau", "0.5", "--n", "8", "--d", "3",
            "--a", "2", "--b", "2", "--c1", "5",
        )
        assert (code, stdout) == (1, "") and "unrecognized arguments: --c1 5" in err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sampler": {"kind": "erdos_renyi", "n": 20, "p": 0.3},
                                    "statistic": "er_codegree", "grid": [0.5], "N": 100, "c": 0.5}))
        code, stdout, err = run(capsys, "tail", "--config", str(path), "--out", str(tmp_path / "t.csv"))
        assert (code, stdout) == (1, "") and "unknown config field(s): c" in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "theorem, name",
        [(theorem, name) for theorem in _BOUND_READS for name in (*_BOUND_FLAGS, *_CONSTANT_FLAGS)],
    )
    def test_each_theorem_takes_only_the_fields_it_reads(self, capsys, theorem, name):
        reads, requires = (set(names.split()) for names in _BOUND_READS[theorem])
        argv = ["bound", "--theorem", theorem, "--n", "24", "--d", "6", "--eps", "1"]
        for field in sorted(requires | {name}):
            argv += {**_BOUND_FLAGS, **_CONSTANT_FLAGS}[field]
        code, stdout, err = run(capsys, *argv)
        if name in reads:
            assert code == 0
            assert json.loads(stdout)["config"][name] == float(_BOUND_FLAGS[name][1])
        else:
            assert code == 1
            assert stdout == ""
            # A refused field is named by the flag typed: --good-eta for eta.
            typed = _BOUND_FLAGS[name][0] if name == "eta" else name
            refusal = (f"unrecognized arguments: --{name}" if name in _CONSTANT_FLAGS
                       else f"bound field '{typed}' is not read by theorem '{theorem}'")
            assert refusal in err

    @pytest.mark.parametrize(
        "theorem, eta, message",
        [("perm_edge", "0.1", "bound field '--good-eta' is not read by theorem 'perm_edge'"),
         ("edge_upper", "-1", "bound field '--good-eta' must be >= 0, got -1.0")],
        ids=["not-read", "out-of-range"],
    )
    def test_good_eta_named_by_its_flag(self, capsys, theorem, eta, message):
        code, stdout, err = run(
            capsys, "bound", "--theorem", theorem, "--n", "10", "--d", "3", "--a", "2", "--b", "2",
            "--tau", "0.5", "--good-eta", eta,
        )
        assert (code, stdout) == (1, "")
        assert message in err and "'eta'" not in err

    def test_the_read_pairs(self):
        assert set(_BOUND_READS) == set(THEOREMS)
        assert sum(len(reads.split()) for reads, _ in _BOUND_READS.values()) == 23

    @pytest.mark.parametrize("p", ["2", "-0.5", "nan"])
    def test_p_outside_the_unit_interval_exit_1(self, capsys, p):
        code, stdout, err = run(capsys, "bound", "--theorem", "er_codegree", "--n", "10", "--p", p, "--eps", "1")
        assert code == 1
        assert stdout == ""
        assert "bound field 'p' must be in [0, 1]" in err

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(capsys, "bound", "--theorem", "no_such_theorem")
        assert code == 1
        assert "usage error" in err


class TestTailCli:
    def _config(self, tmp_path):
        cfg = {
            "sampler": {"kind": "permutation_model", "n": 40, "d": 3},
            "statistic": "perm_edge_count",
            "grid": [0.5, 1.0],
            "N": 3000,
            "seed": 17,
            "a": 12,
            "b": 12,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "tail.csv"
        code, stdout, _ = run(capsys, "tail", "--config", str(cfg), "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "grid_value,empirical,ci_lo,ci_hi,bound,valid,verdict"
        assert len(lines) == 3
        sidecar = tmp_path / "tail.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        assert meta["config"]["N"] == 3000
        assert meta["schema_version"] == 4

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        run(capsys, "tail", "--config", str(cfg), "--out", str(out1))
        run(capsys, "tail", "--config", str(cfg), "--out", str(out2), "--threads", "4")
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = json.loads((tmp_path / "t1.csv.meta.json").read_text())
        meta2 = json.loads((tmp_path / "t2.csv.meta.json").read_text())
        meta1.pop("wall_time_s")
        meta2.pop("wall_time_s")
        assert meta1 == meta2

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda cfg: cfg.update(bogus=3), "bogus"),
            (lambda cfg: cfg.pop("sampler"), "sampler"),
            (lambda cfg: cfg.pop("grid"), "grid"),
            (lambda cfg: cfg.update(sampler=[1, 2]), "sampler"),
            (lambda cfg: cfg["sampler"].update(bogus=1), "sampler"),
            (lambda cfg: cfg.update(N="many"), "field 'N' must be int"),
            (lambda cfg: cfg["sampler"].update(n="40"), "field 'sampler.n' must be int"),
            (lambda cfg: cfg.update(grid=[0.5, None]), "grid"),
            (lambda cfg: cfg.update(b=50), "field 'b' must be in [1, 40]"),
        ],
        ids=["unknown-key", "missing-sampler", "missing-grid", "sampler-not-object",
             "unknown-sampler-key", "wrong-type-N", "wrong-type-sampler-n",
             "non-number-grid", "set-size-above-n"],
    )
    def test_malformed_config_exit_1(self, tmp_path, capsys, edit, field):
        path = self._config(tmp_path)
        cfg = json.loads(path.read_text())
        edit(cfg)
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "tail", "--config", str(path), "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "t.csv").exists()


class TestSigma2Cli:
    def test_from_file(self, tmp_path, capsys):
        from conftest import matrix_from_strings

        mat = matrix_from_strings(["111", "111", "111"])
        path = tmp_path / "full.txt"
        path.write_text(format_matrix(mat))
        code, stdout, _ = run(capsys, "sigma2", "--in", str(path), "--alpha")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["sigma1"] == pytest.approx(3.0, abs=1e-9)
        assert payload["sigma2"] == pytest.approx(0.0, abs=1e-9)
        assert payload["alpha_exact"] == pytest.approx(0.0, abs=1e-12)

    def test_from_sampler(self, capsys):
        code, stdout, _ = run(
            capsys, "sigma2", "--kind", "switch_mcmc", "--n", "10", "--d", "3",
            "--steps", "300", "--seed", "9",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["converged"] is True

    @staticmethod
    def refuse_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the alpha guard should refuse before this")

        monkeypatch.setattr(cli, "sample_many", refuse)
        monkeypatch.setattr(cli, "sigma2", refuse)
        monkeypatch.setattr(cli, "alpha_exact", refuse)

    @pytest.mark.parametrize("n, d", [(15, 3), (100, 50), (300, 150)])
    def test_alpha_guard_before_the_draw(self, capsys, monkeypatch, n, d):
        self.refuse_work(monkeypatch)
        code, stdout, err = run(capsys, "sigma2", "--kind", "switch_mcmc", "--n", str(n),
                                "--d", str(d), "--alpha")
        assert code == 3 and stdout == ""
        assert err == (f"resource guard: alpha_exact enumerates 2^{n} row sets; "
                       f"cap is n <= {ALPHA_EXACT_CAP}\n")

    def test_alpha_guard_before_the_decomposition_of_a_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c15.txt"
        path.write_text(format_matrix(circulant(15, 3)))
        self.refuse_work(monkeypatch)
        code, stdout, err = run(capsys, "sigma2", "--in", str(path), "--alpha")
        assert code == 3 and stdout == ""
        assert "alpha_exact enumerates 2^15 row sets" in err

    def test_alpha_on_a_rectangular_class_is_a_usage_error_first(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "rect.txt"
        path.write_text(format_matrix(circulant(20, 2, 10)))
        self.refuse_work(monkeypatch)
        for argv in (["--in", str(path)],
                     ["--kind", "rejection", "--m", "10", "--n", "20", "--d", "2", "--dp", "1"]):
            code, stdout, err = run(capsys, "sigma2", *argv, "--alpha")
            assert code == 1 and stdout == ""
            assert "square" in err

    def test_rectangular_class_is_refused_before_the_draw(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "rect.txt"
        path.write_text(format_matrix(circulant(20, 2, 10)))
        self.refuse_work(monkeypatch)
        for argv in (["--in", str(path)],
                     ["--kind", "rejection", "--m", "10", "--n", "20", "--d", "2", "--dp", "1"]):
            code, stdout, err = run(capsys, "sigma2", *argv)
            assert code == 1 and stdout == ""
            assert err == "error: sigma2 is defined here for the square digraph case\n"

    def test_alpha_at_the_cap_runs(self, capsys):
        code, stdout, _ = run(capsys, "sigma2", "--kind", "switch_mcmc", "--n", str(ALPHA_EXACT_CAP),
                              "--d", "3", "--steps", "100", "--alpha")
        assert code == 0
        assert json.loads(stdout)["alpha_exact"] > 0.0

    def test_needs_source(self, capsys):
        code, _, err = run(capsys, "sigma2")
        assert code == 1

    def test_exact_payload_has_no_iteration_settings(self, capsys):
        code, stdout, _ = run(capsys, "sigma2", "--kind", "switch_mcmc", "--n", "8", "--d", "3", "--steps", "50")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["schema_version"] == 3
        assert "tol" not in payload["config"] and "max_iters" not in payload["config"]
        assert (payload["iterations"], payload["residual"], payload["converged"]) == (0, 0.0, True)

    @pytest.mark.parametrize("flag", ["--tol", "--max-iters"])
    def test_iteration_flags_removed(self, capsys, flag):
        code, _, _ = run(capsys, "sigma2", "--kind", "switch_mcmc", "--n", "8", "--d", "3", flag, "5")
        assert code == 1


class TestSigma2CommonFlags:
    @pytest.fixture
    def full_file(self, tmp_path):
        from conftest import matrix_from_strings

        path = tmp_path / "full.txt"
        path.write_text(format_matrix(matrix_from_strings(["111", "111", "111"])))
        return str(path)

    def test_out_writes_the_payload(self, full_file, tmp_path, capsys):
        out = tmp_path / "sigma.json"
        code, stdout, _ = run(capsys, "sigma2", "--in", full_file, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == json.loads(stdout)
        assert json.loads(stdout)["sigma1"] == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize(
        "flags, message",
        [(("--format", "csv"), "--format"), (("--threads", "8"), "--threads")],
    )
    def test_unsupported_flags_are_usage_errors(self, full_file, tmp_path, capsys, flags, message):
        out = tmp_path / "sigma.json"
        code, stdout, err = run(capsys, "sigma2", "--in", full_file, "--out", str(out), *flags)
        assert code == 1
        assert err.startswith("usage error: ") and message in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--kind", "rejection"), ("--n", "3"), ("--d", "3"), ("--m", "3"), ("--dp", "3"), ("--p", "0.5"),
         ("--steps", "9"), ("--stream", "0"), ("--max-attempts", "5")],
    )
    def test_sampler_flags_with_in_are_usage_errors(self, full_file, tmp_path, capsys, flag, value):
        out = tmp_path / "sigma.json"
        code, stdout, err = run(capsys, "sigma2", "--in", full_file, "--out", str(out), flag, value)
        assert code == 1
        assert err.startswith("usage error: ") and flag in err
        assert stdout == "" and not out.exists()

    def test_seed_only_with_sampler_flags(self, full_file, capsys):
        code, _, err = run(capsys, "sigma2", "--in", full_file, "--seed", "5")
        assert code == 1
        assert err.startswith("usage error: ") and "--seed" in err

    def test_seed_seeds_the_sampler_flags(self, capsys):
        flags = ("sigma2", "--kind", "switch_mcmc", "--n", "10", "--d", "3", "--steps", "300")
        seeded = []
        for seed in ("9", "10"):
            code, stdout, _ = run(capsys, *flags, "--seed", seed)
            assert code == 0
            payload = json.loads(stdout)
            assert payload["config"]["seed"] == int(seed)
            seeded.append(payload["sigma2"])
        code, stdout, _ = run(capsys, *flags)
        assert code == 0 and json.loads(stdout)["config"]["seed"] == 0
        assert seeded[0] != seeded[1]


class TestEnumerateCli:
    def test_count_only(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--n", "4", "--d", "2",
                              "--count-only")
        assert code == 0
        assert json.loads(stdout)["count"] == 90

    def test_writes_class(self, tmp_path, capsys):
        out = tmp_path / "class.txt"
        code, _, _ = run(capsys, "enumerate", "--n", "3", "--d", "1",
                         "--out", str(out))
        assert code == 0
        mats = parse_matrices(out.read_text())
        assert len(mats) == 6

    def test_guard_exit_3(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "12", "--d", "5",
                           "--count-only")
        assert code == 3


class TestFlagMatrix:
    """Each subcommand takes only the flags it reads; any other is a usage
    error raised before any work or output."""

    @staticmethod
    def _run(tmp_path, capsys, argv):
        """Run argv with {in}, {cfg} and {out} filled in; (code, stdout, err,
        outputs), `outputs` the directory that {out} names a file in."""
        from conftest import matrix_from_strings

        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "m.txt").write_text(format_matrix(matrix_from_strings(["1100", "1100", "0011", "0011"])))
        cfg = {
            "sampler": {"kind": "permutation_model", "n": 40, "d": 3},
            "statistic": "perm_edge_count", "grid": [0.5], "N": 100, "a": 12, "b": 12,
        }
        (inputs / "cfg.json").write_text(json.dumps(cfg))
        cfg["sampler"]["seed"] = 999
        (inputs / "cfg-sampler-seed.json").write_text(json.dumps(cfg))
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        paths = {"{in}": str(inputs / "m.txt"), "{cfg}": str(inputs / "cfg.json"),
                 "{cfg-sampler-seed}": str(inputs / "cfg-sampler-seed.json"), "{out}": str(outputs / "x")}
        return (*run(capsys, *(paths.get(arg, arg) for arg in argv)), outputs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--kind", "rejection", "--n", "4", "--d", "2", "--out", "{out}", "--threads", "2"],
            ["sample", "--kind", "rejection", "--n", "4", "--d", "2", "--out", "{out}", "--format", "csv"],
            ["stats", "--in", "{in}", "--out", "{out}", "--format", "csv"],
            ["stats", "--in", "{in}", "--out", "{out}", "--seed", "1"],
            ["stats", "--in", "{in}", "--out", "{out}", "--threads", "2"],
            ["couple", "--op", "reflect", "--j1", "0", "--j2", "2", "--in", "{in}", "--out", "{out}", "--seed", "1"],
            ["couple", "--op", "reflect", "--j1", "0", "--j2", "2", "--in", "{in}", "--out", "{out}", "--threads", "2"],
            ["couple", "--op", "reflect", "--j1", "0", "--j2", "2", "--in", "{in}", "--out", "{out}", "--format", "csv"],
            ["verify", "--suite", "permutation", "--n", "8", "--d", "2", "--samples", "5", "--out", "{out}", "--threads", "2"],
            ["verify", "--suite", "reflection", "--n", "8", "--d", "2", "--samples", "5", "--out", "{out}", "--exact-cap", "100"],
            ["bound", "--theorem", "codegree_upper", "--eps", "1", "--n", "10", "--d", "3", "--out", "{out}"],
            ["bound", "--theorem", "codegree_upper", "--eps", "1", "--n", "10", "--d", "3", "--seed", "1"],
            ["bound", "--theorem", "codegree_upper", "--eps", "1", "--n", "10", "--d", "3", "--threads", "2"],
            ["bound", "--theorem", "codegree_upper", "--eps", "1", "--n", "10", "--d", "3", "--format", "csv"],
            ["tail", "--config", "{cfg}", "--out", "{out}", "--seed", "3"],
            ["tail", "--config", "{cfg}", "--out", "{out}", "--format", "csv"],
            ["tail", "--config", "{cfg}"],
            ["enumerate", "--n", "3", "--d", "1", "--out", "{out}", "--threads", "2"],
            ["enumerate", "--n", "3", "--d", "1", "--out", "{out}", "--seed", "1"],
            ["enumerate", "--n", "3", "--d", "1", "--out", "{out}", "--format", "csv"],
        ],
        ids=["sample-threads", "sample-format", "stats-format", "stats-seed", "stats-threads",
             "couple-seed", "couple-threads", "couple-format", "verify-threads", "verify-exact-cap", "bound-out",
             "bound-seed", "bound-threads", "bound-format", "tail-seed", "tail-format",
             "tail-without-out", "enumerate-threads", "enumerate-seed", "enumerate-format"],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv):
        code, stdout, err, outputs = self._run(tmp_path, capsys, argv)
        assert code == 1
        assert err.startswith("usage error: ")
        assert stdout == ""
        assert list(outputs.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["sample", "--kind", "rejection", "--n", "4", "--d", "2", "--out", "{out}", "--steps", "3"], "'steps'"),
            (["sample", "--kind", "rejection", "--n", "4", "--d", "2", "--out", "{out}", "--p", "0.9"], "'p'"),
            (["sample", "--kind", "permutation_model", "--n", "4", "--d", "2", "--m", "2", "--dp", "1",
              "--out", "{out}"], "'m'"),
            (["sigma2", "--kind", "switch_mcmc", "--n", "8", "--d", "3", "--p", "0.5", "--out", "{out}"], "'p'"),
            (["sigma2", "--sample", "kind=switch_mcmc,n=8,d=3", "--out", "{out}"], "--sample"),
            (["sigma2", "--in", "{in}", "--out", "{out}", "--format", "json"], "--format"),
            (["verify", "--suite", "all", "--n", "8", "--d", "2", "--samples", "5", "--out", "{out}",
              "--steps", "1"], "'steps'"),
            (["verify", "--suite", "switching", "--n", "8", "--d", "6", "--samples", "5", "--out", "{out}",
              "--steps", "1"], "'steps'"),
            (["verify", "--suite", "permutation", "--n", "8", "--d", "3", "--samples", "5", "--out", "{out}",
              "--steps", "1"], "'steps'"),
            (["bound", "--theorem", "codegree_upper", "--eps", "1", "--n", "10", "--d", "3", "--dp", "3"], "--dp"),
            (["bound", "--theorem", "codegree_upper", "--eps", "1", "--tau", "2", "--n", "10", "--d", "3"],
             "--eps --tau"),
            (["enumerate", "--n", "3", "--d", "1", "--count-only", "--out", "{out}"], "--out"),
            (["bound", "--theorem", "codegree_upper", "--eps", "1", "--n", "10", "--d", "3", "--c1", "5"],
             "--c1"),
            (["bound", "--theorem", "codegree_upper", "--eps", "1", "--n", "10", "--d", "3", "--p", "0.5"],
             "'p' is not read by theorem 'codegree_upper'"),
            (["sigma2", "--in", "{in}", "--out", "{out}", "--kind", "rejection"], "--kind"),
            (["sample", "--kind", "switch_mcmc", "--n", "4", "--d", "2", "--steps", "3", "--max-attempts", "5",
              "--out", "{out}"], "'max_attempts'"),
            (["tail", "--config", "{cfg-sampler-seed}", "--out", "{out}"], "'sampler.seed'"),
            (["verify", "--suite", "permutation", "--n", "6", "--d", "2", "--m", "3", "--dp", "4",
              "--out", "{out}"], "'m'"),
            (["sample", "--kind", "rejection", "--n", "6", "--d", "2", "--max-attempts", "0", "--out", "{out}"],
             "'max_attempts'"),
            (["bound", "--theorem", "edge_lower", "--tau", "0.5", "--n", "10", "--d", "3", "--a", "2", "--b", "2",
              "--c2", "8"], "--c2"),
            (["bound", "--theorem", "perm_edge", "--tau", "0.5", "--n", "10", "--d", "3", "--a", "2", "--b", "2",
              "--good-eta", "0.1"], "'--good-eta' is not read by theorem 'perm_edge'"),
        ],
        ids=["sample-rejection-steps", "sample-rejection-p", "sample-permutation-m", "sigma2-switch-p",
             "sigma2-sample", "sigma2-format", "verify-steps-d2", "verify-steps-n-d2",
             "verify-steps-permutation", "bound-dp", "bound-two-deviations", "enumerate-count-only-out",
             "bound-codegree-c1", "bound-codegree-p", "sigma2-in-kind", "sample-switch-max-attempts",
             "tail-sampler-seed", "verify-permutation-m", "sample-max-attempts-0", "bound-edge-lower-c2",
             "bound-perm-good-eta"],
    )
    def test_unread_input_is_rejected(self, tmp_path, capsys, argv, name):
        # Flags and sampler fields nothing reads; the message names each one.
        code, stdout, err, outputs = self._run(tmp_path, capsys, argv)
        assert code == 1
        assert err.startswith(("usage error: ", "error: ")) and name in err
        assert stdout == ""
        assert list(outputs.iterdir()) == []

    def test_stats_payload_has_no_format(self, tmp_path, capsys):
        from conftest import matrix_from_strings

        path = tmp_path / "m.txt"
        path.write_text(format_matrix(matrix_from_strings(["1100", "1100", "0011", "0011"])))
        code, stdout, _ = run(capsys, "stats", "--in", str(path))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["schema_version"] == 2
        assert payload["config"] == {"in": str(path)}


class TestMalformedInputs:
    """Inputs outside a command's domain exit 1 with a message, before any
    output, never with a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sigma2", "--kind", "permutation_model", "--n", "5", "--d", "2"],
            ["sigma2", "--kind", "erdos_renyi", "--n", "5", "--p", "0.5"],
            ["bound", "--theorem", "codegree_upper", "--n", "0", "--d", "0", "--eps", "1"],
            ["bound", "--theorem", "perm_edge", "--n", "0", "--d", "1", "--a", "1", "--b", "1", "--tau", "1"],
            ["bound", "--theorem", "er_codegree", "--n", "0", "--p", "0.5", "--eps", "1"],
            ["bound", "--theorem", "bipartite_edge", "--n", "4", "--m", "0", "--d", "2", "--a", "1",
             "--b", "1", "--tau", "1"],
            ["enumerate", "--n", "0", "--d", "0"],
            ["enumerate", "--n", "3", "--m", "0", "--d", "0", "--count-only"],
            ["sample", "--kind", "enumerate", "--n", "3", "--d", "1"],
            ["verify", "--suite", "all", "--n", "1", "--d", "1", "--samples", "3"],
            ["verify", "--suite", "reflection", "--n", "4", "--m", "1", "--d", "1", "--dp", "4"],
            ["bound", "--theorem", "edge_upper", "--n", "5", "--d", "2", "--a", "7", "--b", "1", "--tau", "1"],
            ["bound", "--theorem", "codegree_upper", "--n", "5", "--d", "9", "--eps", "1"],
        ],
        ids=["sigma2-permutation-model", "sigma2-erdos-renyi",
             "bound-codegree-n0", "bound-perm-edge-n0", "bound-er-codegree-n0", "bound-m0",
             "enumerate-n0", "enumerate-m0", "sample-kind-enumerate", "verify-n1", "verify-m1",
             "bound-a-above-n", "bound-d-above-n"],
    )
    def test_exit_1_without_traceback(self, capsys, argv):
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert err.startswith(("usage error: ", "error: ")) and "Traceback" not in err


class TestMalformedMatrixText:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
    @pytest.mark.parametrize("mat", [circulant(5, 2), circulant(4, 0), circulant(3, 3)],
                             ids=["n5-d2", "n4-d0", "n3-d3"])
    def test_stats_exits_1_naming_the_fault(self, tmp_path, capsys, mat, case):
        corrupt, message = MALFORMED_TEXT[case]
        path = tmp_path / "bad.txt"
        path.write_text(corrupt(format_matrix(mat), mat))
        code, stdout, err = run(capsys, "stats", "--in", str(path))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.search(message, err)


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "sample", "--kind", "rejection", "--n", "4",
                           "--d", "2", "--frobnicate")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_value(self, capsys):
        code, _, _ = run(capsys, "sample", "--kind", "rejection", "--n", "9",
                         "--d", "3", "--m", "6", "--dp", "3")
        assert code == 1


class TestFieldNamedInMessages:
    """Malformed input to the subcommands (non-numbers, negative sizes,
    d > n, missing required flags) exits 1 with empty stdout and a message
    that names the field or flag at fault, never with a traceback.  "{in}"
    is a valid 4 x 4 matrix file and "{missing}" a path that does not
    exist.  Sizes stay at n <= 64 and no case passes --threads."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--suite", "all", "--n", "8", "--d", "3", "--samples", "-3"],
             "verify field 'samples' must be >= 1, got -3"),
            (["sample", "--kind", "rejection", "--n", "0", "--d", "0"],
             "sampler field 'n' must be >= 1, got 0"),
            (["sample", "--kind", "switch_mcmc", "--n", "3", "--m", "0", "--d", "0", "--dp", "0"],
             "sampler field 'm' must be >= 1, got 0"),
            (["verify", "--suite", "all", "--n", "16", "--d", "18", "--samples", "2"],
             "verify field 'd' must be in [0, 16], got 18"),
            (["verify", "--suite", "permutation", "--n", "16", "--d", "18", "--samples", "2"],
             "verify field 'd' must be in [0, 16], got 18"),
            (["verify", "--suite", "switching", "--n", "9", "--m", "6", "--d", "3", "--dp", "7"],
             "verify field 'dp' must be in [0, 6], got 7"),
            (["sample", "--kind", "switch_mcmc", "--n", "abc", "--d", "3"],
             "argument --n: invalid int value: 'abc'"),
            (["sample", "--kind", "rejection", "--n", "8", "--d", "2.5"],
             "argument --d: invalid int value: '2.5'"),
            (["sample", "--kind", "erdos_renyi", "--n", "8", "--p", "half"],
             "argument --p: invalid float value: 'half'"),
            (["sample", "--kind", "rejection", "--n", "-4", "--d", "2"],
             "sampler field 'n' must be >= 1, got -4"),
            (["sample", "--kind", "switch_mcmc", "--n", "8", "--d", "3", "--steps", "-1"],
             "sampler field 'steps' must be >= 0, got -1"),
            (["sample", "--kind", "rejection", "--n", "8", "--d", "2", "--count", "-1"],
             "sample field 'count' must be >= 0, got -1"),
            (["sample", "--kind", "rejection", "--n", "8", "--d", "9"],
             "sampler field 'd' must be in [0, 8], got 9"),
            (["sample", "--kind", "permutation_model", "--n", "64", "--d", "65"],
             "sampler field 'd' must be in [0, 64], got 65"),
            (["sample", "--n", "8", "--d", "2"],
             "the following arguments are required: --kind"),
            (["sample", "--kind", "erdos_renyi", "--n", "8"],
             "sampler field 'p' is required"),
            (["verify", "--suite", "all", "--n", "x", "--d", "3"],
             "argument --n: invalid int value: 'x'"),
            (["verify", "--suite", "all", "--n", "8", "--d", "3", "--samples", "1e3"],
             "argument --samples: invalid int value: '1e3'"),
            (["verify", "--suite", "all", "--n", "-8", "--d", "3"],
             "verify field 'n' must be >= 2, got -8"),
            (["verify", "--suite", "permutation", "--n", "8", "--d", "-1"],
             "verify field 'd' must be in [0, 8], got -1"),
            (["verify", "--suite", "switching", "--n", "9", "--m", "-6", "--d", "3", "--dp", "2"],
             "verify field 'm' must be >= 2, got -6"),
            (["verify", "--n", "8", "--d", "3"],
             "the following arguments are required: --suite"),
            (["verify", "--suite", "all", "--n", "8"],
             "the following arguments are required: --d"),
            (["verify", "--suite", "all", "--d", "3"],
             "the following arguments are required: --n"),
            (["enumerate", "--n", "four", "--d", "2"],
             "argument --n: invalid int value: 'four'"),
            (["enumerate", "--n", "4", "--d", "2", "--max-states", "1.5"],
             "argument --max-states: invalid int value: '1.5'"),
            (["enumerate", "--n", "-4", "--d", "2"],
             "enumeration field 'n' must be >= 1, got -4"),
            (["enumerate", "--n", "4", "--m", "-2", "--d", "2"],
             "enumeration field 'm' must be >= 1, got -2"),
            (["enumerate", "--n", "4", "--d", "5"],
             "enumeration field 'd' must be in [0, 4], got 5"),
            (["enumerate", "--n", "4", "--d", "2", "--dp", "5"],
             "enumeration field 'dp' must be in [0, 4], got 5"),
            (["enumerate", "--d", "2"],
             "the following arguments are required: --n"),
            (["enumerate", "--n", "4"],
             "the following arguments are required: --d"),
            (["sigma2", "--kind", "switch_mcmc", "--n", "abc", "--d", "3"],
             "argument --n: invalid int value: 'abc'"),
            (["sigma2", "--kind", "switch_mcmc", "--n", "8", "--d", "3", "--steps", "many"],
             "argument --steps: invalid int value: 'many'"),
            (["sigma2", "--kind", "switch_mcmc", "--n", "-8", "--d", "3"],
             "sampler field 'n' must be >= 1, got -8"),
            (["sigma2", "--kind", "rejection", "--n", "8", "--d", "-2"],
             "sampler field 'd' must be in [0, 8], got -2"),
            (["sigma2", "--kind", "switch_mcmc", "--n", "64", "--d", "65"],
             "sampler field 'd' must be in [0, 64], got 65"),
            (["sigma2"],
             "sigma2 needs --in or sampler flags"),
            (["sigma2", "--kind", "switch_mcmc", "--d", "3"],
             "sigma2 needs --in or sampler flags"),
            (["sigma2", "--n", "8", "--d", "3"],
             "sigma2 needs --in or sampler flags"),
            (["sigma2", "--in", "{missing}"],
             "No such file or directory"),
            (["couple", "--op", "switch", "--in", "{in}", "--j1", "one", "--j2", "2"],
             "argument --j1: invalid int value: 'one'"),
            (["couple", "--op", "switch", "--in", "{in}", "--j1", "0", "--j2", "1", "--i1", "-1"],
             "--i1 must be in [0, 4), got -1"),
            (["couple", "--op", "reflect", "--in", "{in}", "--j1", "0", "--j2", "9"],
             "--j2 must be in [0, 4), got 9"),
            (["couple", "--in", "{in}", "--j1", "0", "--j2", "1"],
             "the following arguments are required: --op"),
            (["couple", "--op", "switch", "--j1", "0", "--j2", "1"],
             "the following arguments are required: --in"),
            (["couple", "--op", "switch", "--in", "{in}", "--j1", "0"],
             "the following arguments are required: --j2"),
            (["couple", "--op", "switch", "--in", "{missing}", "--j1", "0", "--j2", "1"],
             "No such file or directory"),
        ],
        ids=["verify-samples-negative", "sample-n0", "sample-m0", "verify-d-above-n",
             "verify-permutation-d-above-n", "verify-dp-above-m", "sample-n-not-a-number",
             "sample-d-fraction", "sample-p-not-a-number", "sample-n-negative", "sample-steps-negative",
             "sample-count-negative", "sample-d-above-n", "sample-permutation-d-above-n", "sample-no-kind",
             "sample-no-p", "verify-n-not-a-number", "verify-samples-float", "verify-n-negative",
             "verify-d-negative", "verify-m-negative", "verify-no-suite", "verify-no-d", "verify-no-n",
             "enumerate-n-not-a-number", "enumerate-cap-fraction", "enumerate-n-negative",
             "enumerate-m-negative", "enumerate-d-above-n", "enumerate-dp-above-m", "enumerate-no-n",
             "enumerate-no-d", "sigma2-n-not-a-number", "sigma2-steps-not-a-number", "sigma2-n-negative",
             "sigma2-d-negative", "sigma2-d-above-n", "sigma2-nothing", "sigma2-no-n", "sigma2-no-kind",
             "sigma2-missing-file", "couple-j1-not-a-number", "couple-i1-negative", "couple-j2-above-n",
             "couple-no-op", "couple-no-in", "couple-no-j2", "couple-missing-file"],
    )
    def test_exit_1_naming_the_field(self, tmp_path, capsys, argv, message):
        matrix = tmp_path / "m.txt"
        matrix.write_text("4 4 2 2\n1100\n0110\n0011\n1001\n")
        paths = {"{in}": str(matrix), "{missing}": str(tmp_path / "missing.txt")}
        code, stdout, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert code == 1
        assert stdout == ""
        assert err.startswith(("usage error: ", "error: ")) and "Traceback" not in err
        assert message in err


class TestVerifyNearCompleteCli:
    def test_n16_d14_exits_0(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "all", "--n", "16", "--d", "14", "--samples", "20")
        assert code == 0
        assert json.loads(stdout)["ok"] is True
