import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import strongmatch.certify
import strongmatch.cli
import strongmatch.graph
import strongmatch.greedy
import strongmatch.reduction
from strongmatch import (
    LedgerResult,
    count_invariants,
    gen_extremal_cubic,
    gen_k33plus,
    gen_random_girth6,
    gen_random_subcubic,
    write_edge_list,
)
from strongmatch.cli import main

from util import make_mixed, make_petersen


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def extremal_file(tmp_path):
    p = tmp_path / "extremal.el"
    p.write_text(write_edge_list(gen_extremal_cubic(), []))
    return str(p)


@pytest.fixture
def k33_file(tmp_path):
    p = tmp_path / "k33.el"
    p.write_text(write_edge_list(gen_k33plus(), []))
    return str(p)


@pytest.fixture
def audits(monkeypatch):
    """Count trace audits, wherever the CLI reaches them from."""
    calls = []
    real = strongmatch.certify._audit

    def counting(trace, census=None):
        calls.append(trace)
        return real(trace, census)

    monkeypatch.setattr(strongmatch.certify, "_audit", counting)
    monkeypatch.setattr(strongmatch.reduction, "_audit", counting)
    monkeypatch.setattr(strongmatch.cli, "_audit", counting)
    return calls


def write_graph(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestStats:
    def test_extremal_json(self, run, extremal_file):
        code, out, err = run(["stats", extremal_file, "--json"])
        assert code == 0 and err == ""
        assert out == (
            '{"n": 30, "m": 45, "i": 0, "n33plus": 0, "max_degree": 3, '
            '"min_degree": 3, "girth": 4, "components": 1}\n'
        )

    def test_k33plus_text(self, run, k33_file):
        code, out, _ = run(["stats", k33_file])
        assert code == 0
        assert out == (
            "n=7\nm=10\ni=0\nn33plus=1\nmax_degree=3\nmin_degree=2\n"
            "girth=4\ncomponents=1\n"
        )

    def test_stdin_acyclic(self, run):
        code, out, _ = run(["stats", "-", "--json"], stdin="n 3\n0 1\n")
        assert code == 0
        obj = json.loads(out)
        assert obj["girth"] == "acyclic"
        assert obj["i"] == 1
        assert obj["components"] == 2

    def test_stdin_acyclic_text(self, run):
        code, out, err = run(["stats", "-"], stdin="n 3\n0 1\n")
        assert code == 0 and err == ""
        assert out == (
            "n=3\nm=1\ni=1\nn33plus=0\nmax_degree=1\nmin_degree=0\n"
            "girth=acyclic\ncomponents=2\n"
        )

    def test_dimacs_format(self, run, tmp_path):
        p = write_graph(tmp_path, "d.col", "p edge 3 2\ne 1 2\ne 2 3\n")
        code, out, _ = run(["stats", p, "--format", "dimacs"])
        assert code == 0
        assert "n=3\nm=2\n" in out

    def test_parse_error_reports_line(self, run, tmp_path):
        p = write_graph(tmp_path, "bad.el", "n 3\n0 1\n1 x\n")
        code, out, err = run(["stats", p])
        assert code == 2 and out == ""
        assert "line 3" in err

    def test_missing_file(self, run, tmp_path):
        code, _, err = run(["stats", str(tmp_path / "absent.el")])
        assert code == 2
        assert "cannot read" in err


class TestMatch:
    def test_extremal_json(self, run, extremal_file):
        code, out, _ = run(["match", extremal_file, "--json"])
        assert code == 0
        assert out == (
            '{"n": 30, "m": 45, "i": 0, "n33plus": 0, "girth": 4, '
            '"bound_thm1": 5, "bound_thm2": 5, "bound_prop1": null, '
            '"bound": 5, "matching": [[1, 4], [6, 28], [8, 11], [15, 18], '
            '[21, 25]], "size": 5, "verified": true}\n'
        )

    def test_k33plus_trace_text(self, run, k33_file):
        code, out, _ = run(["match", k33_file, "--trace"])
        assert code == 0
        assert out == (
            "rule=COMPONENT-K33PLUS removed=0,1,2,3,4,5,6 added=1-4 isolated=0\n"
            "matching=1 bound=1 ok=true\n"
            "matching=1-4\nsize=1\nbound=1\nverified=true\n"
        )

    def test_k33plus_trace_json(self, run, k33_file):
        code, out, _ = run(["match", k33_file, "--trace", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["trace"] == [
            {
                "rule": "COMPONENT-K33PLUS",
                "removed": [0, 1, 2, 3, 4, 5, 6],
                "added": [[1, 4]],
                "isolated": 0,
            }
        ]
        assert obj["bound_thm1"] is None
        assert obj["n33plus"] == 1

    def test_greedy_method(self, run, extremal_file):
        code, out, _ = run(["match", extremal_file, "--method", "greedy", "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        assert obj["size"] >= obj["bound"] >= 1

    @pytest.mark.parametrize(
        "graph,argv,length,digest",
        [
            ("g5000", ["match", "--method", "greedy", "--json"], 17537,
             "ee0bf292d984d95bebdac6e448fecac7e5706a989366209ec1512baac40092bf"),
            ("g5000", ["match", "--json"], 18537,
             "13fba92fc24245ebd4c959256fbbddcfb7587353cfc4538a89688869ca531cab"),
            ("g5000", ["match", "--trace"], 94160,
             "1c56cd123cc6e365dce43494fe3cf72c47b51fe524a37abb58abfde021d07ac7"),
            ("g5000", ["stats", "--json"], 108,
             "12dc9f4a119ab07948b74c7279fe3d41a8cf38a775019a665927723afef7aa79"),
            ("mixed", ["match", "--json"], 1321,
             "0ee08cbc8ba6548813e51d83786b930b109023d629805e71ddd7037e6c7d522c"),
            ("mixed", ["match", "--trace"], 5968,
             "a09a07d4f08a1f9d917d743a21fa98e355bc3b0c25cd9ab876bea9189eec774d"),
            ("mixed", ["stats", "--json"], 107,
             "83f10d73a268d2acb339fd6ce23d2350a809e4800cf224c5f11280aa90adc98c"),
        ],
        ids=[
            "g5000-greedy-json", "g5000-match-json", "g5000-match-trace",
            "g5000-stats-json", "mixed-match-json", "mixed-match-trace",
            "mixed-stats-json",
        ],
    )
    def test_golden_sha256(self, run, tmp_path, graph, argv, length, digest):
        # pins output across revisions, not just between two runs
        g = (
            gen_random_subcubic(5000, 7500, 975_001)
            if graph == "g5000"
            else make_mixed()
        )
        p = write_graph(tmp_path, "golden.el", write_edge_list(g, []))
        code, out, _ = run([argv[0], p, *argv[1:]])
        assert code == 0
        assert len(out) == length
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--trace"], ["--trace", "--json"]])
    def test_one_audit_per_request(self, run, audits, extremal_file, flags):
        code, _, _ = run(["match", extremal_file, *flags])
        assert code == 0
        assert len(audits) == 1

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--trace"], ["--trace", "--json"]])
    def test_one_census_per_request(self, run, monkeypatch, tmp_path, flags):
        calls = []
        real = strongmatch.certify._census

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(strongmatch.certify, "_census", counting)
        p = write_graph(tmp_path, "mixed.el", write_edge_list(make_mixed(), []))
        code, _, _ = run(["match", p, *flags])
        assert code == 0
        assert len(calls) == 1

    def test_failed_audit_shows_in_trace_and_exit_code(
        self, run, monkeypatch, k33_file
    ):
        monkeypatch.setattr(
            strongmatch.cli, "_audit", lambda trace, census: (LedgerResult(False, 0), 1)
        )
        code, out, err = run(["match", k33_file, "--trace"])
        assert code == 1
        assert out.splitlines()[1] == "matching=1 bound=1 ok=false"
        assert "guarantee or verification failure" in err

    def test_non_edge_matching_is_a_violation(self, run, monkeypatch, tmp_path):
        monkeypatch.setattr(
            strongmatch.cli, "greedy_induced_matching", lambda g: [(0, g.n - 1)]
        )
        p = write_graph(tmp_path, "p5.el", "n 5\n0 1\n1 2\n2 3\n3 4\n")
        assert run(["match", p, "--method", "greedy"]) == (
            1,
            "",
            "greedy: invalid matching: matching edge (0, 4) is not an edge of the graph\n",
        )

    def test_trace_flag_without_reduction_is_null(self, run, extremal_file):
        code, out, _ = run(
            ["match", extremal_file, "--method", "greedy", "--json", "--trace"]
        )
        assert code == 0
        assert json.loads(out)["trace"] is None

    def test_reduction_rejects_degree_four(self, run, tmp_path):
        p = write_graph(tmp_path, "k14.el", "n 5\n0 1\n0 2\n0 3\n0 4\n")
        code, _, err = run(["match", p])
        assert code == 2
        assert "max degree" in err

    def test_forest_rejects_cycle(self, run, tmp_path):
        p = write_graph(tmp_path, "c6.el", "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
        assert run(["match", p, "--method", "forest"]) == (
            2, "", "forest strategy requires an acyclic graph\n"
        )

    def test_girth6_rejects_c5(self, run, tmp_path):
        p = write_graph(tmp_path, "c5.el", "n 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        assert run(["match", p, "--method", "girth6"]) == (
            2, "", "girth-6 strategy requires girth >= 6, got 5\n"
        )

    @pytest.fixture
    def girths(self, monkeypatch):
        """Count girth computations, from count_invariants or the greedy."""
        calls = []
        real = strongmatch.graph.girth

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(strongmatch.graph, "girth", counting)
        monkeypatch.setattr(strongmatch.certify, "girth", counting)
        monkeypatch.setattr(strongmatch.greedy, "girth", counting)
        return calls

    def test_girth6_text_computes_girth_once(self, run, girths, tmp_path):
        g = gen_random_girth6(60, 3, 4242)
        p = write_graph(tmp_path, "g6.el", write_edge_list(g, []))
        code, out, _ = run(["match", p, "--method", "girth6"])
        assert code == 0
        assert len(girths) == 1
        fields = dict(line.split("=") for line in out.splitlines())
        assert fields["verified"] == "true"
        assert int(fields["size"]) >= int(fields["bound"])
        assert int(fields["bound"]) == count_invariants(g).prop1_bound

    def test_girth6_text_rejects_petersen(self, run, girths, tmp_path):
        p = write_graph(tmp_path, "petersen.el", write_edge_list(make_petersen(), []))
        code, out, err = run(["match", p, "--method", "girth6"])
        assert (code, out) == (2, "")
        assert err == "girth-6 strategy requires girth >= 6, got 5\n"
        assert len(girths) == 1


class TestExact:
    def test_k33plus_json(self, run, k33_file):
        code, out, _ = run(["exact", k33_file, "--json"])
        assert code == 0
        assert out == (
            '{"n": 7, "m": 10, "size": 1, "matching": [[0, 4]], '
            '"verified": true}\n'
        )

    def test_k33plus_text(self, run, k33_file):
        code, out, _ = run(["exact", k33_file])
        assert code == 0
        assert out == "size=1\nmatching=0-4\nverified=true\n"

    def test_budget_exit_code(self, run, extremal_file):
        code, out, err = run(["exact", extremal_file, "--budget", "0"])
        assert code == 3 and out == ""
        assert "budget exceeded" in err

    def test_negative_budget_is_input_error(self, run, extremal_file):
        assert run(["exact", extremal_file, "--budget", "-5"]) == (
            2, "", "--budget must be >= 0, got -5\n"
        )

    def test_edge_cap_exit_code(self, run, tmp_path):
        text = "n 70\n" + "".join(f"{i} {(i + 1) % 70}\n" for i in range(70))
        p = write_graph(tmp_path, "c70.el", text)
        assert run(["exact", p]) == (
            2, "", "oracle supports at most 64 edges, got 70\n"
        )


def run_module(argv, stdin: bytes, io_encoding: str):
    """Run ``python -m strongmatch`` with PYTHONIOENCODING=io_encoding;
    returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "strongmatch", *argv],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": io_encoding},
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


class TestInputNotUtf8:
    """Bytes that are not UTF-8 are bad input, exit 2, never a traceback.
    A file keeps them as surrogate escapes, so a parser names the line;
    stdin fails where its own decoding is strict."""

    BAD_EDGE = b"n 3\n0 1\n\xff\xfe 2\n"
    BAD_COMMENT = b"# \xff\xfe\nn 3\n0 1\n1 2\n"
    BAD_EDGE_ERR = ": line 3: non-integer vertex id in '\\udcff\\udcfe 2'\n"

    def test_bad_edge_line(self, run, tmp_path):
        p = tmp_path / "bad.el"
        p.write_bytes(self.BAD_EDGE)
        assert run(["stats", str(p)]) == (2, "", f"{p}{self.BAD_EDGE_ERR}")

    def test_bad_comment_line_reads_as_on_stdin(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_bytes(self.BAD_COMMENT)
        stats = (
            "n=3\nm=2\ni=0\nn33plus=0\nmax_degree=2\nmin_degree=1\n"
            "girth=acyclic\ncomponents=1\n"
        )
        for argv, data in [([str(p)], b""), (["-"], self.BAD_COMMENT)]:
            got = run_module(["stats", *argv], data, "utf-8:surrogateescape")
            assert got == (0, stats, "")

    def test_bad_matching_file(self, run, tmp_path):
        g = write_graph(tmp_path, "ok.el", "n 3\n0 1\n1 2\n")
        m = tmp_path / "bad.el"
        m.write_bytes(self.BAD_EDGE)
        assert run(["verify", g, str(m)]) == (2, "", f"{m}{self.BAD_EDGE_ERR}")

    @pytest.mark.parametrize(
        "data,at", [(BAD_EDGE, 8), (BAD_COMMENT, 2)], ids=["edge", "comment"]
    )
    def test_strict_stdin(self, data, at):
        assert run_module(["stats", "-"], data, "utf-8:strict") == (
            2,
            "",
            f"-: 'utf-8' codec can't decode byte 0xff in position {at}: "
            "invalid start byte\n",
        )


class TestStrictInput:
    """Ids and counts are ASCII decimal digits, and one leading UTF-8
    byte-order mark is dropped: the same on files and on stdin, in both
    formats."""

    STATS = '{"n": 3, "m": 2, "i": 0, "n33plus": 0, "max_degree": 2, ' \
        '"min_degree": 1, "girth": "acyclic", "components": 1}\n'
    BOM = b"\xef\xbb\xbf"
    GOOD = [(b"n 3\n0 1\n1 2\n", "edge-list"), (b"p edge 3 2\ne 1 2\ne 2 3\n", "dimacs")]
    BAD = [
        (
            "n 12\n1_0 2\n\u0663 4\n", "edge-list",
            ": line 2: non-integer vertex id in '1_0 2'\n",
        ),
        (
            "n 12\n\u0663 4\n", "edge-list",
            ": line 2: non-integer vertex id in '\u0663 4'\n",
        ),
        (
            "p edge 3 1\ne +3 1_1\n", "dimacs",
            ": line 2: non-integer vertex id in 'e +3 1_1'\n",
        ),
    ]

    @pytest.mark.parametrize("data,fmt", GOOD, ids=["edge-list", "dimacs"])
    def test_bom_file_and_stdin(self, tmp_path, data, fmt):
        p = tmp_path / "bom.txt"
        p.write_bytes(self.BOM + data)
        for argv, stdin in [([str(p)], b""), (["-"], self.BOM + data)]:
            got = run_module(["stats", *argv, "--format", fmt, "--json"], stdin, "utf-8")
            assert got == (0, self.STATS, "")

    @pytest.mark.parametrize(
        "text,fmt,err", BAD, ids=["underscore", "arabic-indic", "dimacs-plus"]
    )
    def test_non_decimal_ids_file_and_stdin(self, run, tmp_path, text, fmt, err):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        assert run(["stats", str(p), "--format", fmt, "--json"]) == (2, "", f"{p}{err}")
        assert run(["stats", "-", "--format", fmt, "--json"], stdin=text) == (
            2, "", f"-{err}",
        )


# the characters str.splitlines ends a line at, besides the line ends
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    """Only LF, CR LF and CR end a line, on files (where open() translates
    them) and on stdin (where the parsers do); any other separator stays
    inside its line, which is then malformed: exit 2."""

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=ascii)
    @pytest.mark.parametrize(
        "text,fmt,want",
        [
            ("n 4\n0 1{}2 3\n", "edge-list", "expected 'u v'"),
            ("p edge 4 2\ne 1 2{}e 3 4\n", "dimacs", "expected 'e <u> <v>'"),
        ],
        ids=["edge-list", "dimacs"],
    )
    def test_other_separators_file_and_stdin(self, run, tmp_path, sep, text, fmt, want):
        text = text.format(sep)
        line = text.split("\n")[1]
        err = f": line 2: {want}, got {line!r}\n"
        p = tmp_path / "g.txt"
        p.write_text(text, encoding="utf-8")
        assert run(["stats", str(p), "--format", fmt]) == (2, "", f"{p}{err}")
        assert run(["stats", "-", "--format", fmt], stdin=text) == (2, "", f"-{err}")

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_file_and_stdin(self, tmp_path, end):
        data = end.join(["n 3", "0 1", "1 1", ""]).encode()
        p = tmp_path / "g.el"
        p.write_bytes(data)
        err = ": line 3: loop at vertex 1\n"
        assert run_module(["stats", str(p)], b"", "utf-8") == (2, "", f"{p}{err}")
        assert run_module(["stats", "-"], data, "utf-8") == (2, "", f"-{err}")


class TestVerify:
    @pytest.fixture
    def p5_file(self, tmp_path):
        return write_graph(tmp_path, "p5.el", "n 5\n0 1\n1 2\n2 3\n3 4\n")

    def test_valid(self, run, tmp_path, p5_file):
        m = write_graph(tmp_path, "m.el", "n 5\n0 1\n3 4\n")
        assert run(["verify", p5_file, m]) == (0, "valid\n", "")

    def test_valid_json(self, run, tmp_path, p5_file):
        m = write_graph(tmp_path, "m.el", "n 5\n0 1\n3 4\n")
        code, out, _ = run(["verify", p5_file, m, "--json"])
        assert code == 0
        assert out == '{"verified": true, "witness": null}\n'

    def test_shared_vertex(self, run, tmp_path, p5_file):
        m = write_graph(tmp_path, "m.el", "n 5\n0 1\n1 2\n")
        code, out, _ = run(["verify", p5_file, m])
        assert code == 1
        assert out == "invalid witness=1,1\n"

    def test_shared_vertex_json(self, run, tmp_path, p5_file):
        m = write_graph(tmp_path, "m.el", "n 5\n0 1\n1 2\n")
        code, out, _ = run(["verify", p5_file, m, "--json"])
        assert code == 1
        assert out == '{"verified": false, "witness": [1, 1]}\n'

    def test_adjacent_edges(self, run, tmp_path, p5_file):
        m = write_graph(tmp_path, "m.el", "n 5\n0 1\n2 3\n")
        code, out, _ = run(["verify", p5_file, m])
        assert code == 1
        assert out == "invalid witness=1,2\n"

    def test_non_edge_is_input_error(self, run, tmp_path, p5_file):
        m = write_graph(tmp_path, "m.el", "n 5\n0 2\n")
        assert run(["verify", p5_file, m]) == (
            2, "", "matching edge (0, 2) is not an edge of the graph\n"
        )

    def test_missing_matching_file(self, run, tmp_path, p5_file):
        code, _, err = run(["verify", p5_file, str(tmp_path / "gone.el")])
        assert code == 2
        assert "cannot read" in err


class TestGen:
    def test_k33plus_frozen(self, run):
        code, out, _ = run(["gen", "k33plus"])
        assert code == 0
        assert out == (
            "# gen=k33plus\nn 7\n0 4\n0 5\n0 6\n1 3\n1 4\n1 5\n2 3\n2 4\n"
            "2 5\n3 6\n"
        )

    def test_random_forest_frozen(self, run):
        code, out, _ = run(["gen", "random-forest", "--n", "6", "--seed", "3"])
        assert code == 0
        assert out == "# gen=random-forest n=6 seed=3\nn 6\n0 1\n1 2\n1 3\n2 4\n2 5\n"

    def test_random_subcubic_golden_sha256(self, run):
        code, out, _ = run(["gen", "random-subcubic", "--n", "300", "--seed", "12345"])
        assert code == 0
        assert len(out) == 3293
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "82f9f67cf3a8d39f30322e5c50d799b12066de878fa780956d99e8240737f468"
        )

    def test_output_parses_back(self, run):
        for argv in (
            ["gen", "extremal-cubic"],
            ["gen", "c5-blowup", "--delta", "4"],
            ["gen", "odd-regular", "--delta", "3"],
            ["gen", "random-subcubic", "--n", "20", "--seed", "1"],
            ["gen", "random-cubic", "--n", "12", "--seed", "1"],
            ["gen", "random-girth6", "--n", "20", "--max-degree", "3", "--seed", "1"],
        ):
            code, out, _ = run(argv)
            assert code == 0
            code2, out2, _ = run(["stats", "-", "--json"], stdin=out)
            assert code2 == 0
            assert json.loads(out2)["n"] > 0

    def test_gen_match_roundtrip(self, run):
        code, out, _ = run(["gen", "random-subcubic", "--n", "40", "--seed", "9"])
        assert code == 0
        code2, out2, _ = run(["match", "-", "--json"], stdin=out)
        assert code2 == 0
        assert json.loads(out2)["verified"] is True

    @pytest.mark.parametrize("name", ["c5-blowup", "odd-regular"])
    def test_blowup_requires_delta(self, run, name):
        assert run(["gen", name]) == (2, "", f"{name} requires --delta\n")

    @pytest.mark.parametrize("name", ["random-subcubic", "random-girth6", "random-forest"])
    def test_negative_n_is_input_error(self, run, name):
        assert run(["gen", name, "--n", "-1"]) == (2, "", "negative vertex count -1\n")

    def test_negative_target_m_is_input_error(self, run):
        assert run(["gen", "random-subcubic", "--n", "5", "--target-m", "-3"]) == (
            2, "", "--target-m must be >= 0, got -3\n"
        )

    def test_odd_regular_rejects_even_delta(self, run):
        assert run(["gen", "odd-regular", "--delta", "4"]) == (
            2, "", "delta must be odd and >= 3, got 4\n"
        )

    def test_random_cubic_rejects_odd_n(self, run):
        assert run(["gen", "random-cubic", "--n", "3"]) == (
            2, "", "cubic graphs need even n >= 4, got 3\n"
        )

    def test_determinism(self, run):
        a = run(["gen", "random-cubic", "--n", "16", "--seed", "5"])
        b = run(["gen", "random-cubic", "--n", "16", "--seed", "5"])
        assert a == b

    # criterion 10's generator argv; it checks only that two runs agree,
    # these pin each output across revisions
    @pytest.mark.parametrize(
        "argv,length,digest",
        [
            (["k33plus"], 58,
             "507366bdf2091b1ec5c209760e5714be250fd657e6ceed254029b006a234d659"),
            (["extremal-cubic"], 266,
             "332a123c10b18d2092e789a8e5d68daaeb4c1086c22c21451c3468eb0358a03f"),
            (["c5-blowup", "--delta", "6"], 239,
             "f22f1ea89b0b974eee237d0cc803200d70c104276f0f62d20cdd88444561d0bd"),
            (["odd-regular", "--delta", "5"], 914,
             "78aed9ea75f3234a2922339f5aa6980d28ef4111905b90b4eff2db894309c6b7"),
            (["random-subcubic", "--n", "60", "--seed", "31"], 557,
             "3dcd1c6b3e2a95ba5bad5f073bf69017ad67513211cbb68c5599753fad2399e6"),
            (["random-cubic", "--n", "30", "--seed", "32"], 277,
             "8181dd1e148e076fbe359fbf9e2156969014bc0841e356ee6091c21c25211d2b"),
            (["random-girth6", "--n", "40", "--max-degree", "3", "--seed", "33"], 369,
             "e3e9291af2237be8e449f094143c07ef7ed444e1e00564b82814a2da8156796c"),
            (["random-forest", "--n", "40", "--seed", "34"], 198,
             "046c0848e64532ac7f22d9bc4d303b8b91389b9ca2cfa2064b11c39ffdbfc520"),
        ],
        ids=lambda x: x[0] if isinstance(x, list) else None,
    )
    def test_golden_sha256_per_name(self, run, argv, length, digest):
        code, out, err = run(["gen", *argv])
        assert (code, err) == (0, "")
        assert len(out) == length
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHelpText:
    """The gen and fuzz help, byte for byte: the choices keep their order."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        # argparse wraps help to the terminal width it reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def help_of(capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        return out

    def test_gen(self, capsys):
        names = (
            "{k33plus,extremal-cubic,c5-blowup,odd-regular,random-subcubic,"
            "random-cubic,random-girth6,random-forest}"
        )
        assert self.help_of(capsys, "gen") == (
            "usage: strongmatch gen [-h] [--delta DELTA] [--n N] [--target-m TARGET_M]\n"
            "                       [--max-degree MAX_DEGREE] [--seed SEED]\n"
            f"                       {names}\n"
            "\n"
            "positional arguments:\n"
            f"  {names}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --delta DELTA\n"
            "  --n N\n"
            "  --target-m TARGET_M\n"
            "  --max-degree MAX_DEGREE\n"
            "  --seed SEED\n"
        )

    def test_fuzz(self, capsys):
        assert self.help_of(capsys, "fuzz") == (
            "usage: strongmatch fuzz [-h] [--count COUNT] [--size SIZE] [--seed SEED]\n"
            "                        [--json]\n"
            "                        {subcubic,cubic,girth6,forest}\n"
            "\n"
            "positional arguments:\n"
            "  {subcubic,cubic,girth6,forest}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --count COUNT\n"
            "  --size SIZE\n"
            "  --seed SEED\n"
            "  --json\n"
        )


class TestFuzz:
    def test_forest_json(self, run):
        code, out, _ = run(
            ["fuzz", "forest", "--count", "5", "--size", "12", "--seed", "2", "--json"]
        )
        assert code == 0
        assert out == (
            '{"family": "forest", "instances": 5, "pass": 5, "fail": 0, '
            '"first_failure_seed": null}\n'
        )

    def test_subcubic_text(self, run):
        code, out, _ = run(["fuzz", "subcubic", "--count", "3", "--size", "10", "--seed", "4"])
        assert code == 0
        assert out == "family=subcubic\ninstances=3\npass=3\nfail=0\n"

    @pytest.mark.parametrize("family", ["cubic", "girth6"])
    def test_other_families_pass(self, run, family):
        code, out, _ = run(
            ["fuzz", family, "--count", "4", "--size", "14", "--seed", "1", "--json"]
        )
        assert code == 0
        assert json.loads(out)["fail"] == 0

    @pytest.mark.parametrize("family", ["subcubic", "cubic", "girth6", "forest"])
    def test_records_pinned(self, run, family):
        argv = ["fuzz", family, "--count", "10", "--size", "20", "--seed", "77"]
        assert run(argv) == (
            0, f"family={family}\ninstances=10\npass=10\nfail=0\n", ""
        )
        assert run([*argv, "--json"]) == (
            0,
            f'{{"family": "{family}", "instances": 10, "pass": 10, "fail": 0, '
            '"first_failure_seed": null}\n',
            "",
        )

    def test_thm2_not_compared_above_max_degree_three(self, run):
        # a tree with a degree-4 vertex plus one isolated vertex: optimum 1,
        # thm2 = 2, which holds only for subcubic graphs
        code, out, err = run(["fuzz", "forest", "--count", "1", "--size", "8", "--seed", "42"])
        assert (code, err) == (0, "")
        assert out == "family=forest\ninstances=1\npass=1\nfail=0\n"

    @pytest.fixture
    def instances(self, monkeypatch):
        """Record the instances fuzz runs, passing each one."""
        calls = []
        monkeypatch.setattr(
            strongmatch.cli, "_fuzz_instance", lambda *args: calls.append(args) or []
        )
        return calls

    @pytest.mark.parametrize("family", ["subcubic", "cubic", "girth6", "forest"])
    def test_negative_size_is_input_error(self, run, instances, family):
        assert run(["fuzz", family, "--size", "-5"]) == (
            2, "", "--count and --size must be >= 0\n"
        )
        assert instances == []

    def test_negative_count_is_input_error(self, run, instances):
        assert run(["fuzz", "subcubic", "--count", "-2"]) == (
            2, "", "--count and --size must be >= 0\n"
        )
        assert instances == []

    # each failure is injected through a name the CLI looks up at call time

    @staticmethod
    def all_failed(family, count, seed):
        return (
            f"family={family}\ninstances={count}\npass=0\nfail={count}\n"
            f"first_failure_seed={seed}\n"
        )

    def test_understated_size_is_reported(self, run, monkeypatch):
        real = strongmatch.cli.count_invariants

        def inflated(g):
            return dataclasses.replace(
                real(g),
                thm2_bound=10**6,
                thm1_bound=10**6,
                greedy_general_bound=Fraction(10**6),
            )

        monkeypatch.setattr(strongmatch.cli, "count_invariants", inflated)
        code, out, err = run(["fuzz", "cubic", "--count", "3", "--size", "8", "--seed", "9"])
        assert code == 1
        assert out == self.all_failed("cubic", 3, 9)
        assert err.splitlines() == [
            "seed 9: reduction: size 2 below bound 1000000",
            "seed 9: reduction: size 2 below cubic bound 1000000",
            "seed 9: greedy: size 2 below bound 1000000",
            "seed 9: bound thm1=1000000 exceeds exact value 2",
            "seed 9: bound thm2=1000000 exceeds exact value 2",
        ]

    def test_bad_witness_is_reported(self, run, monkeypatch):
        monkeypatch.setattr(
            strongmatch.cli, "verify_induced_matching", lambda g, matching: (1, 2)
        )
        code, out, err = run(["fuzz", "girth6", "--count", "3", "--size", "8", "--seed", "9"])
        assert code == 1
        assert out == self.all_failed("girth6", 3, 9)
        assert err.splitlines() == [
            "seed 9: reduction: invalid matching, witness (1, 2)",
            "seed 9: greedy: invalid matching, witness (1, 2)",
            "seed 9: girth6: invalid matching, witness (1, 2)",
        ]

    def test_non_edge_matching_is_reported(self, run, monkeypatch):
        monkeypatch.setattr(
            strongmatch.cli, "greedy_induced_matching", lambda g: [(0, g.n - 1)]
        )
        code, out, err = run(["fuzz", "subcubic", "--count", "2", "--size", "10", "--seed", "9"])
        assert code == 1
        assert out == self.all_failed("subcubic", 2, 9)
        assert err == (
            "seed 9: greedy: invalid matching: "
            "matching edge (0, 9) is not an edge of the graph\n"
        )

    def test_failed_audit_is_reported(self, run, monkeypatch):
        def failing(trace, census=None):
            return LedgerResult(False, 0), 1

        monkeypatch.setattr(strongmatch.certify, "_audit", failing)
        monkeypatch.setattr(strongmatch.reduction, "_audit", failing)
        monkeypatch.setattr(strongmatch.cli, "_audit", failing)
        code, out, err = run(["fuzz", "subcubic", "--count", "3", "--size", "10", "--seed", "9"])
        assert code == 1
        assert out == self.all_failed("subcubic", 3, 9)
        assert err == "seed 9: reduction: ledger check failed at step 0\n"
        code, out, _ = run(
            ["fuzz", "subcubic", "--count", "3", "--size", "10", "--seed", "9", "--json"]
        )
        assert code == 1
        assert out == (
            '{"family": "subcubic", "instances": 3, "pass": 0, "fail": 3, '
            '"first_failure_seed": 9}\n'
        )

    def test_failed_precondition_is_reported(self, run, monkeypatch):
        monkeypatch.setattr(strongmatch.greedy, "girth", lambda g: 5)
        code, out, err = run(["fuzz", "girth6", "--count", "3", "--size", "10", "--seed", "9"])
        assert code == 1
        assert out == self.all_failed("girth6", 3, 9)
        assert err == (
            "seed 9: girth6: precondition unexpectedly failed: "
            "girth-6 strategy requires girth >= 6, got 5\n"
        )

    def test_one_audit_per_reduction_run(self, run, audits):
        code, _, _ = run(["fuzz", "subcubic", "--count", "4", "--size", "10", "--seed", "9"])
        assert code == 0
        assert len(audits) == 4


class TestCollector:
    """main runs a request with the cyclic garbage collector off and puts
    the caller's setting back; a request leaves no cycles behind for it."""

    @pytest.fixture
    def files(self, tmp_path):
        return {
            "graph": write_graph(tmp_path, "g.el", write_edge_list(make_mixed(), [])),
            "p5": write_graph(tmp_path, "p5.el", "n 5\n0 1\n1 2\n2 3\n3 4\n"),
            "valid": write_graph(tmp_path, "valid.el", "n 5\n0 1\n3 4\n"),
            "shared": write_graph(tmp_path, "shared.el", "n 5\n0 1\n1 2\n"),
            "absent": str(tmp_path / "absent.el"),
        }

    @staticmethod
    def argv(files, words):
        return [files.get(w, w) for w in words]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "words,code",
        [
            (["match", "graph", "--json"], 0),
            (["verify", "p5", "shared"], 1),
            (["stats", "absent"], 2),
        ],
        ids=["exit-0", "exit-1", "exit-2"],
    )
    def test_setting_is_restored(self, run, files, enabled, words, code):
        try:
            gc.enable() if enabled else gc.disable()
            assert run(self.argv(files, words))[0] == code
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    def test_request_runs_with_collector_off(self, run, files, monkeypatch):
        seen = []
        real = strongmatch.cli.count_invariants

        def recording(g):
            seen.append(gc.isenabled())
            return real(g)

        monkeypatch.setattr(strongmatch.cli, "count_invariants", recording)
        assert gc.isenabled()
        assert run(["stats", files["graph"], "--json"])[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_setting_is_restored_on_usage_error(self, capsys, enabled):
        try:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(SystemExit) as exc:
                main(["match", "--bogus"])
            assert exc.value.code == 2
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "words",
        [
            ["match", "graph", "--json"],
            ["match", "graph", "--method", "greedy", "--json"],
            ["match", "graph", "--trace"],
            ["stats", "graph", "--json"],
            ["verify", "p5", "valid"],
            ["fuzz", "subcubic", "--count", "3", "--size", "20", "--json"],
            ["fuzz", "forest", "--count", "3", "--size", "20"],
            ["gen", "random-subcubic", "--n", "40", "--seed", "3"],
        ],
        ids=lambda words: " ".join(words),
    )
    def test_request_leaves_no_cycles(self, run, files, words):
        argv = self.argv(files, words)
        gc.collect()
        gc.disable()
        try:
            code = run(argv)[0]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert code == 0
        assert unreachable == 0


PARSER_ARGVS = [["--help"], ["match", "--bogus"], ["gen", "nope"], []]
PARSER_ARGVS += [
    [command, "--help"] for command in ("stats", "match", "exact", "verify", "gen", "fuzz")
]


class TestParserReuse:
    """main shares one parser across calls; help and usage errors read byte
    for byte as from a parser built for the call, with the same exit code."""

    @pytest.mark.parametrize(
        "argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments"
    )
    def test_same_as_fresh_parser(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            out, err = capsys.readouterr()
            return exc.value.code, out, err

        fresh = outcome(strongmatch.cli._build_parser().parse_args)
        assert fresh[1] or fresh[2]
        assert outcome(main) == fresh
        assert outcome(main) == fresh

    def test_main_builds_no_parser(self, run, k33_file, monkeypatch):
        monkeypatch.setattr(strongmatch.cli, "_build_parser", None)
        assert run(["stats", k33_file])[0] == 0
        assert run(["match", k33_file])[0] == 0


class TestEntryPoint:
    def test_console_script_pipeline(self):
        gen = subprocess.run(
            ["strongmatch", "gen", "k33plus"], capture_output=True, text=True
        )
        assert gen.returncode == 0
        match = subprocess.run(
            ["strongmatch", "match", "-", "--json"],
            input=gen.stdout,
            capture_output=True,
            text=True,
        )
        assert match.returncode == 0
        obj = json.loads(match.stdout)
        assert obj["size"] == 1 and obj["verified"] is True

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "strongmatch", "gen", "k33plus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("# gen=k33plus\n")
