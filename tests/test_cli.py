"""End-to-end tests for the command line interface."""

import hashlib
import json
import sys

import pytest

from blockstoch import demos, extremality, graphs
from blockstoch.cli import main
from blockstoch.family import build_family, max_multiplicity

from helpers import KAPPA3_BLOCKS, diamond_chain_blocks, odd_ring_chain

TRIANGLE = {
    "blocks": [[2, 3], [1, 3], [1, 2]],
    "weights": {"1": "1/2", "2": "1/2", "3": "1/2"},
}
SQUARE = {
    "blocks": [[1, 2], [3, 4], [1, 3], [2, 4]],
    "weights": {"1": "1/2", "2": "1/2", "3": "1/2", "4": "1/2"},
}
# a tree of four blocks whose point gets a tree-propagation witness
TREE = {
    "blocks": [[1, 2], [2, 3, 4], [4, 5], [3, 6]],
    "weights": {"1": "2/3", "2": "1/3", "3": "1/4", "4": "5/12", "5": "7/12", "6": "3/4"},
}
SEGMENT = {
    "blocks": [[2, 3], [1, 3], [1, 2], [4, 5]],
    "weights": {"1": "1/2", "2": "1/2", "3": "1/2", "4": "1/2", "5": "1/2"},
}


# `classify` on the uniform 6x6 matrix at 1/6, as the full primitive-cycle
# enumeration chose its witness
MATRIX_6_CLASSIFY = (
    "verdict: not_extreme\n"
    "detail: the support component containing 1 admits a two_coloring perturbation\n"
    "construction: two_coloring\n"
    "epsilon: 1/6\n"
    "slack: 1/6\n"
    "w_plus: {1=1/3, 3=1/6, 4=1/6, 5=1/6, 6=1/6, 8=1/3, 9=1/6, "
    "10=1/6, 11=1/6, 12=1/6, 13=1/6, 14=1/6, 15=1/6, 16=1/6, "
    "17=1/6, 18=1/6, 19=1/6, 20=1/6, 21=1/6, 22=1/6, 23=1/6, "
    "24=1/6, 25=1/6, 26=1/6, 27=1/6, 28=1/6, 29=1/6, 30=1/6, "
    "31=1/6, 32=1/6, 33=1/6, 34=1/6, 35=1/6, 36=1/6}\n"
    "w_minus: {2=1/3, 3=1/6, 4=1/6, 5=1/6, 6=1/6, 7=1/3, 9=1/6, "
    "10=1/6, 11=1/6, 12=1/6, 13=1/6, 14=1/6, 15=1/6, 16=1/6, "
    "17=1/6, 18=1/6, 19=1/6, 20=1/6, 21=1/6, 22=1/6, 23=1/6, "
    "24=1/6, 25=1/6, 26=1/6, 27=1/6, 28=1/6, 29=1/6, 30=1/6, "
    "31=1/6, 32=1/6, 33=1/6, 34=1/6, 35=1/6, 36=1/6}\n"
)


def matrix_doc(m):
    rows = [[m * r + c + 1 for c in range(m)] for r in range(m)]
    cols = [[m * r + c + 1 for r in range(m)] for c in range(m)]
    weight = f"1/{m}"
    weights = {str(g): weight for g in range(1, m * m + 1)}
    return {"blocks": rows + cols, "weights": weights}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_reports_structure_and_membership(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, TRIANGLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "blocks: 3" in out
        assert "ground elements: 3" in out
        assert "stochastic: yes" in out

    def test_instance_without_weights(self, tmp_path, capsys):
        doc = {"blocks": [[1, 2], [2, 3]]}
        code = main(["check", write(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "block sums" not in out

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="integers have no digit limit before Python 3.11",
    )
    @pytest.mark.parametrize(
        "text",
        [
            '{"blocks": [[1, 2]], "weights": {"1": "%s/%s"}}' % ("1" * 5000, "1" * 5000),
            '{"blocks": [[%s]]}' % ("1" * 5000),
        ],
        ids=["weight", "label"],
    )
    def test_integer_past_the_digit_limit(self, tmp_path, capsys, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main(["check", str(path)])
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "4300 digits" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")


class TestWeightLabelGivenTwice:
    """Two weight keys naming one label are an input error, not a collapse."""

    SPELLED = "error: weight label 1 is given twice\n"
    VERBATIM = "error: key '1' is given twice\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"blocks": [[1, 2]], "weights": {"1": "1/2", "01": "1/2", "2": "1/2"}}', SPELLED),
            ('{"blocks": [[1, 2]], "weights": {"1": "1/2", "1": "1/2", "2": "1/2"}}', VERBATIM),
        ],
        ids=["spelled-twice", "verbatim"],
    )
    def test_instance(self, tmp_path, capsys, text, message):
        path = tmp_path / "inst.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "text, message",
        [('{"weights": {"1": 1, " 1": 1}}', SPELLED), ('{"weights": {"1": 1, "1": 1}}', VERBATIM)],
        ids=["spelled-twice", "verbatim"],
    )
    def test_generator_weights(self, tmp_path, capsys, text, message):
        path = tmp_path / "w.json"
        path.write_text(text)
        argv = ["extend", str(path), "--generator", "path", "--n", "1", "--horizon", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().err == message


class TestGraph:
    def test_edge_list_and_cycle_census(self, tmp_path, capsys):
        code = main(["graph", write(tmp_path, TRIANGLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 -- 2" in out
        assert "primitive cycles: 1 (1 odd, 0 even)" in out

    def test_even_cycle_census(self, tmp_path, capsys):
        code = main(["graph", write(tmp_path, SQUARE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "primitive cycles: 1 (0 odd, 1 even)" in out

    def test_matrix_5x5_stdout(self, tmp_path, capsys):
        # the SHA-256 of this stdout as the primitive walks listed the census
        rows = [[5 * r + c + 1 for c in range(5)] for r in range(5)]
        blocks = rows + [list(c) for c in zip(*rows)]
        assert main(["graph", write(tmp_path, {"blocks": blocks})]) == 0
        out = capsys.readouterr().out
        assert "primitive cycles: 3940 (0 odd, 3940 even)\n" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e033975c29870f5bc288f0a2930f6314cda2e433b53266ad77b86bbe3d1f0b21"
        )

    def test_census_builds_no_path(self, tmp_path, capsys, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("the census built a graphs.Path")

        monkeypatch.setattr(graphs, "Path", no_path)
        self.test_matrix_5x5_stdout(tmp_path, capsys)

    @pytest.mark.parametrize(
        "blocks, digest",
        [
            (
                matrix_doc(4)["blocks"],
                "ac7d62b3008696fe5c061531377b006d5461d52494a0f5d04db00e3df97d4316",
            ),
            (
                [[1, 2, 3], [2, 3, 4]],
                "eebcda22f727d6bf35755183c6f812f89a45f946a8bd0a5125dc2af424cff294",
            ),
            (
                [[1, 2, 3, 5], [1, 2, 4], [3, 4, 6]],
                "f6d67b1cd2cab44bf123b01d7e31c6764594f3de100d17d23d3ed7ecba6b9537",
            ),
            (
                [[1, 3, 4, 9], [1, 2], [2, 3], [4, 6, 7], [5, 6], [5, 7, 8], [8]],
                "d0a689903d902bea57bee63be934762dde1105b435213cf19761222260f7e767",
            ),
            (
                [[1, 2, 5], [1, 2, 3], [3, 4, 6], [4, 5, 6]],
                "b05f67a2245568df417c6f4feb2856bb2293aa019161817c4aca6fe2c4dd0bc5",
            ),
            (
                [[i, i % 201 + 1] for i in range(1, 202)],
                "d6b8f7078a998aa9c9e3ec4bb2841aedb8184542db6a5dd18d25439bb98c46d2",
            ),
        ],
        ids=[
            "matrix-4x4",
            "parallels",
            "doubled-triangle",
            "bridged-triangles",
            "doubled-square",
            "ring-201",
        ],
    )
    def test_stdout_is_pinned(self, tmp_path, capsys, blocks, digest):
        # the SHA-256 of the stdout as the census rooted at each cycle's
        # lowest block printed it, line by line
        assert main(["graph", write(tmp_path, {"blocks": blocks})]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_long_ring_without_walks(self, tmp_path, capsys, monkeypatch):
        blocks = [[i, i % 3000 + 1] for i in range(1, 3001)]
        path = write(tmp_path, {"blocks": blocks})

        def no_walks(*args, **kwargs):
            raise AssertionError("the census walked the element graph")

        monkeypatch.setattr(graphs, "_primitive_walks", no_walks)
        assert main(["graph", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["vertices: 3000", "edges: 3000"]
        assert lines[-2:] == [
            "primitive cycles: 1 (0 odd, 1 even)",
            "  even: (" + ", ".join(map(str, range(1, 3001))) + ")",
        ]

    def test_long_listing_is_written_in_chunks(self, tmp_path, capsys, monkeypatch):
        n = 9000
        path = write(tmp_path, {"blocks": [[i, i % n + 1] for i in range(1, n + 1)]})
        captured = sys.stdout
        sizes = []

        class Recording:
            def write(self, text):
                sizes.append(text.count("\n"))
                return captured.write(text)

        monkeypatch.setattr(sys, "stdout", Recording())
        assert main(["graph", path]) == 0
        monkeypatch.undo()
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"vertices: {n}", f"edges: {n}"]
        assert lines[-2] == "primitive cycles: 1 (0 odd, 1 even)"
        # the 9000 edge lines take three writes
        assert sum(sizes) == len(lines) == n + 4
        assert sorted(sizes, reverse=True)[:3] == [4096, 4096, 808]

    def test_diamond_chain_without_walks(self, tmp_path, capsys, monkeypatch):
        # labels reversed along the chain: the walks from the smallest label
        # run down every diamond, 2^29 ways
        path = write(tmp_path, {"blocks": diamond_chain_blocks(30)})

        def no_walks(*args, **kwargs):
            raise AssertionError("the census walked the element graph")

        monkeypatch.setattr(graphs, "_primitive_walks", no_walks)
        assert main(["graph", path]) == 0
        out = capsys.readouterr().out
        census = out[out.index("primitive cycles:") :].splitlines()
        assert census == ["primitive cycles: 30 (0 odd, 30 even)"] + [
            f"  even: ({b + 1}, {b + 2}, {b + 4}, {b + 3})" for b in range(0, 120, 4)
        ]


class TestClassify:
    def test_extreme_triangle(self, tmp_path, capsys):
        code = main(["classify", write(tmp_path, TRIANGLE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "extreme" in out

    def test_requires_weights(self, tmp_path, capsys):
        code = main(["classify", write(tmp_path, {"blocks": [[1, 2]]})])
        err = capsys.readouterr().err
        assert code == 1
        assert "weights" in err

    def test_non_member_is_precondition_error(self, tmp_path, capsys):
        doc = {
            "blocks": [[1, 2], [2, 3], [3, 1]],
            "weights": {"1": "1/2", "2": "1/2", "3": "3/4"},
        }
        code = main(["classify", write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: block 2 sums to 5/4\n"


    def test_long_even_ring_gets_a_witness(self, tmp_path, capsys):
        n = 1000
        doc = {
            "blocks": [[i, i % n + 1] for i in range(1, n + 1)],
            "weights": {str(g): "1/2" for g in range(1, n + 1)},
        }
        code = main(["classify", write(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "construction: two_coloring" in out


    def test_six_by_six_matrix_output_is_unchanged(self, tmp_path, capsys):
        code = main(["classify", write(tmp_path, matrix_doc(6))])
        assert code == 0
        assert capsys.readouterr().out == MATRIX_6_CLASSIFY


class TestWitness:
    def test_square_has_witness(self, tmp_path, capsys):
        code = main(["witness", write(tmp_path, SQUARE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "construction:" in out
        assert "w_plus" in out
        assert "w_minus" in out

    def test_extreme_point_has_no_witness(self, tmp_path, capsys):
        code = main(["witness", write(tmp_path, TRIANGLE)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no perturbation witness exists" in err


class TestVertices:
    def test_segment_lists_two(self, tmp_path, capsys):
        code = main(["vertices", write(tmp_path, SEGMENT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "vertex count: 2" in out

    def test_budget_exhaustion_is_exit_three(self, tmp_path, capsys):
        doc = {"blocks": [[1, 2], [3, 4], [1, 3], [2, 4]]}
        code = main(["vertices", write(tmp_path, doc), "--budget", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:")

    def test_budget_message_goes_to_stderr(self, tmp_path, capsys):
        doc = {"blocks": [[1, 2], [3, 4], [1, 3], [2, 4]]}
        code = main(["vertices", write(tmp_path, doc), "--budget", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: vertex search exceeded the budget of 2 search nodes:"
            " 3 visited, 1 found\n"
        )

    def test_pivot_budget_message_goes_to_stderr(self, tmp_path, capsys):
        # an element in three blocks: the pivot search, one node a pivot
        code = main(["vertices", write(tmp_path, {"blocks": KAPPA3_BLOCKS}), "--budget", "105"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: vertex search exceeded the budget of 105 search nodes:"
            " 106 visited, 5 found\n"
        )

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize(
        "blocks", [[[1, 2], [3, 4], [1, 3], [2, 4]], [[1, 2], [1, 3], [1, 4]]]
    )
    def test_budget_below_one_is_input_error(self, tmp_path, capsys, blocks, budget):
        code = main(["vertices", write(tmp_path, {"blocks": blocks}), "--budget", budget])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: budget must be at least 1\n"

    def test_five_by_five_matrix(self, tmp_path, capsys):
        rows = [[5 * r + c + 1 for c in range(5)] for r in range(5)]
        cols = [[5 * r + c + 1 for r in range(5)] for c in range(5)]
        code = main(["vertices", write(tmp_path, {"blocks": rows + cols})])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("vertex count: 120\n")
        assert len(out.splitlines()) == 121

    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write(tmp_path, SEGMENT)
        main(["vertices", path])
        first = capsys.readouterr().out
        main(["vertices", path])
        second = capsys.readouterr().out
        assert first == second


class TestJobsFlag:
    """``--jobs`` is accepted and has no effect; a value below 1 is refused."""

    def test_kappa3_output_does_not_depend_on_jobs(self, tmp_path, capsys):
        path = write(tmp_path, {"blocks": KAPPA3_BLOCKS})
        gen = ["gen", "--elements", "7", "--blocks", "6", "--kappa-max", "3", "--seed", "0"]
        for argv, code in ((["vertices", path], 0), (["validate", path], 2), (gen, 0)):
            assert main(argv) == code
            plain = capsys.readouterr()
            assert main([*argv, "--jobs", "2"]) == code
            assert capsys.readouterr() == plain
            assert main([*argv, "--jobs", "0"]) == 1
            assert capsys.readouterr() == ("", "error: jobs must be at least 1\n")
        # the generated family has κ = 3 too, so gen also ran the basis search
        assert max_multiplicity(build_family(json.loads(plain.out)["blocks"])) == 3


class TestDecompose:
    def test_midpoint_splits_evenly(self, tmp_path, capsys):
        code = main(["decompose", write(tmp_path, SEGMENT)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("1/2 *") == 2
        assert "recombines exactly: yes" in out

    def test_bad_weights_exit_two(self, tmp_path, capsys):
        doc = {
            "blocks": [[1, 2], [2, 3], [3, 1]],
            "weights": {"1": "1/2", "2": "1/2", "3": "3/4"},
        }
        code = main(["decompose", write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: block 2 sums to 5/4\n"


    def test_coefficients_past_the_digit_limit(self, tmp_path, capsys):
        """Coefficients of about 5000 digits print in full."""
        p, q = 10**2500 + 7, 10**2500 + 9
        weights = {"1": f"1/{p}", "2": f"{p - 1}/{p}", "3": f"1/{q}", "4": f"{q - 1}/{q}"}
        path = write(tmp_path, {"blocks": [[1, 2], [3, 4]], "weights": weights})
        code = main(["decompose", path])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "terms: 3"
        assert lines[-1] == "recombines exactly: yes"
        coefficients = [line.split(" * ")[0].strip() for line in lines[1:4]]
        assert max(len(c) for c in coefficients) > 5000
        assert all(set(c) <= set("0123456789/") for c in coefficients)


class TestIntegerFlags:
    """Integer flags take the ASCII integers instance documents take."""

    GEN = ["gen", "--elements", "6", "--blocks", "4", "--kappa-max", "2"]

    # "\u0666" is the Arabic-Indic digit six
    def test_non_ascii_digits_and_underscores_are_refused(self, capsys):
        argv = ["gen", "--elements", "\u0666", "--blocks", "4", "--kappa-max", "2"]
        assert main([*argv, "--seed", "1_0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "blockstoch gen: error: argument --elements: '\u0666' is not an integer\n"
        )
        assert main([*self.GEN, "--seed", "1_0"]) == 1
        assert capsys.readouterr().err == (
            "blockstoch gen: error: argument --seed: '1_0' is not an integer\n"
        )

    @pytest.mark.parametrize("value", ["1_0", "\u0666", "", " ", "1.0", "0x10", "1e3", "1-"])
    def test_refused(self, capsys, value):
        assert main([*self.GEN, "--seed", value]) == 1
        assert capsys.readouterr() == (
            "",
            f"blockstoch gen: error: argument --seed: {value!r} is not an integer\n",
        )

    def test_sign_and_space_read_as_before(self, capsys):
        assert main([*self.GEN, "--seed", "1"]) == 0
        plain = capsys.readouterr()
        assert main([*self.GEN, "--seed", " +1 "]) == 0
        assert capsys.readouterr() == plain


class TestExtend:
    def test_generator_run(self, tmp_path, capsys):
        path = write(tmp_path, {"weights": {"1": 1}})
        code = main(
            ["extend", path, "--generator", "path", "--n", "1", "--horizon", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "complete: yes" in out
        for element in (3, 5, 7, 9, 11):
            assert f"element {element}" in out

    def test_generator_rejects_instance_blocks(self, tmp_path, capsys):
        path = write(tmp_path, {"blocks": [[1, 2]], "weights": {"1": 1}})
        code = main(
            ["extend", path, "--generator", "path", "--n", "1", "--horizon", "4"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "weights-only" in err

    def test_wrapped_instance_run(self, tmp_path, capsys):
        doc = {"blocks": [[1, 2], [3, 4], [5, 6]], "weights": {"1": 1}}
        code = main(["extend", write(tmp_path, doc), "--n", "1", "--horizon", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "complete: yes" in out

    def test_unknown_generator(self, tmp_path, capsys):
        path = write(tmp_path, {"weights": {"1": 1}})
        code = main(
            ["extend", path, "--generator", "spiral", "--n", "1", "--horizon", "4"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "spiral" in err

    def test_exhausted_family_is_exit_three(self, tmp_path, capsys):
        doc = {"blocks": [[1], [1, 2], [2]], "weights": {"1": 1}}
        code = main(["extend", write(tmp_path, doc), "--n", "1", "--horizon", "3"])
        assert code == 3


class TestValidate:
    def test_triangle_validates(self, tmp_path, capsys):
        doc = {"blocks": [[2, 3], [1, 3], [1, 2]]}
        code = main(["validate", write(tmp_path, doc), "--samples", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "discrepancies: 0" in out

    def test_discrepancies_are_listed(self, tmp_path, capsys, monkeypatch):
        # a classifier that calls everything unsupported: the square's two
        # vertices are not extreme and its mixtures have no witness
        def unsupported(family, w):
            return extremality.Verdict("unsupported", None, "patched")

        monkeypatch.setattr(extremality, "classify_extreme", unsupported)
        doc = {"blocks": [[1, 2], [2, 3], [3, 4], [4, 1]]}
        code = main(["validate", write(tmp_path, doc), "--samples", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:3] == ["vertex count: 2", "samples checked: 2", "discrepancies: 4"]
        assert lines[3:5] == [
            "  vertex {1: Fraction(1, 1), 3: Fraction(1, 1)} classified unsupported",
            "  vertex {2: Fraction(1, 1), 4: Fraction(1, 1)} classified unsupported",
        ]
        assert all(
            line.startswith("  mixture ") and line.endswith(" classified unsupported")
            for line in lines[5:7]
        )
        assert lines[7:] == ["agreement: no"]

    def test_high_multiplicity_is_exit_two(self, tmp_path, capsys):
        doc = {"blocks": [[1, 2], [1, 3], [1, 4]]}
        code = main(["validate", write(tmp_path, doc)])
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budget", "0"], "budget must be at least 1"),
            (["--budget", "-1"], "budget must be at least 1"),
            (["--samples", "-1"], "samples must be nonnegative"),
        ],
    )
    def test_nonsensical_counts_are_input_errors(self, tmp_path, capsys, flags, message):
        doc = {"blocks": [[2, 3], [1, 3], [1, 2]]}
        code = main(["validate", write(tmp_path, doc), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestDemo:
    @pytest.mark.parametrize(
        "name",
        ["square-matrix", "odd-cycle", "fan", "pinned-segment", "growing-blocks"],
    )
    def test_each_demo_passes(self, name, capsys):
        code = main(["demo", name])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert ".. ok" in out

    def test_a_wrong_value_fails_the_demo(self, monkeypatch, capsys):
        def wrong():
            out = demos._Checker()
            out.check("vertex count", 3, 3)
            out.check("edge count", 2, 5)
            out.check("odd cycles", 0, 0)
            return out.result("fan", "three checks, one wrong")

        monkeypatch.setitem(demos.DEMOS, "fan", wrong)
        code = main(["demo", "fan"])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == [
            "demo fan: three checks, one wrong",
            "  vertex count: expected 3, computed 3 .. ok",
            "  edge count: expected 2, computed 5 .. FAIL",
            "  odd cycles: expected 0, computed 0 .. ok",
            "result: FAIL",
        ]

    def test_unknown_demo_is_usage_error(self, capsys):
        code = main(["demo", "nope"])
        assert code == 1


class TestGen:
    def test_deterministic_output(self, capsys):
        args = [
            "gen",
            "--elements",
            "6",
            "--blocks",
            "4",
            "--kappa-max",
            "2",
            "--seed",
            "7",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_output_is_loadable_and_capped(self, capsys):
        args = [
            "gen",
            "--elements",
            "8",
            "--blocks",
            "5",
            "--kappa-max",
            "2",
            "--seed",
            "3",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        from blockstoch.family import build_family, max_multiplicity

        fam = build_family(doc["blocks"], doc.get("ground"))
        assert max_multiplicity(fam) <= 2
        if "weights" in doc:
            assert doc["feasible"] is True

    def test_invalid_counts(self, capsys):
        code = main(
            ["gen", "--elements", "0", "--blocks", "1", "--kappa-max", "1", "--seed", "0"]
        )
        assert code == 1

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one(self, capsys, budget):
        code = main(
            ["gen", "--elements", "6", "--blocks", "4", "--kappa-max", "2", "--seed", "7"]
            + ["--budget", budget]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: budget must be at least 1\n"


def ring_chain_doc(k, n):
    blocks, weights = odd_ring_chain(k, n)
    return {"blocks": blocks, "weights": {str(g): str(v) for g, v in weights.items()}}


def half_ring_doc(n):
    return {
        "blocks": [[i, i % n + 1] for i in range(1, n + 1)],
        "weights": {str(g): "1/2" for g in range(1, n + 1)},
    }


ROWS_4 = [[4 * r + c + 1 for c in range(4)] for r in range(4)]

# (argv, instance document placed after the subcommand, SHA-256 of stdout),
# the digests captured once from the code before the rank dispatch moved
# into one place and the even-cycle test moved onto H
PINNED_RUNS = {
    "demo-square-matrix": (
        ["demo", "square-matrix"],
        None,
        "0c47db7d99a9d66795c6795a3ad57758d09c0fa4c070b41c7127d41e1fd0542d",
    ),
    "demo-odd-cycle": (
        ["demo", "odd-cycle"],
        None,
        "0574cd9dced611723631e3ad543c7b9c5fe0ef027d62d9ad61dfbd72f365418f",
    ),
    "demo-fan": (
        ["demo", "fan"],
        None,
        "5e9eb707acb5b4702f53cc5cf49de35051de5fbd1177677b6cec5c78adc6caf7",
    ),
    "demo-pinned-segment": (
        ["demo", "pinned-segment"],
        None,
        "96d9f66553cec26c2e52b802b96bcafe23b56981f4537767046fe70fbd99d126",
    ),
    "demo-growing-blocks": (
        ["demo", "growing-blocks"],
        None,
        "f26ce7d8a1afba6641686e114a49aff6060d24442f58937d46ab2109a5cdef4d",
    ),
    "extend-path": (
        ["extend", "--generator", "path", "--n", "1", "--horizon", "40"],
        {"weights": {"1": 1}},
        "83d9970ce398110ad51922d749191a407d27f8c376f8921a631cd511ff9d231a",
    ),
    "extend-grid": (
        ["extend", "--generator", "grid", "--n", "2", "--horizon", "40"],
        {"weights": {"1": 1}},
        "dad40f2bee96a7d546c96d6c0093a4aa736fd47447eb9f1a2197c7814f04f1db",
    ),
    "extend-wrapped": (
        ["extend", "--n", "1", "--horizon", "8"],
        {"blocks": ROWS_4 + [list(c) for c in zip(*ROWS_4)], "weights": {"1": 1}},
        "bcf00ff5a14ceeabe467427b80f452bf65649480481eb960a38e423ec1057bbd",
    ),
    "classify-pentagon-chain-12": (
        ["classify"],
        ring_chain_doc(12, 5),
        "ed0242d83e4885c5f1de91dd82f91bdaf777381ba123285405790d3fcc3763f5",
    ),
    "classify-ring-pair-401": (
        ["classify"],
        ring_chain_doc(2, 401),
        "1c018221bb8ddf235ebbb34c57aa0ee0bec73d6f062ecb170902e2708cef8ba0",
    ),
    # the shapes of the benchmark's sparse ladder, captured before the
    # witnesses were built on integer numerators
    "classify-ring-200": (
        ["classify"],
        half_ring_doc(200),
        "f3c8498ca19bfaca64050aaf564575c8da9de153f35c09b2622bd76c5e274f31",
    ),
    "classify-ring-201": (
        ["classify"],
        half_ring_doc(201),
        "94d9d4f82a168bca5815b8e62f78c2906411f67bc226243d2c49e5038296bf1d",
    ),
    "validate-path-20": (
        ["validate", "--seed", "7"],
        {"blocks": [[k, k + 1] for k in range(1, 21)]},
        "f59c9303553cb67a9a897b57dde27dcbf60dec191907e06c55b8a8e7b05e46e6",
    ),
    "witness-tree": (
        ["witness"],
        TREE,
        "3d2f053c01fa39468e11e8b5cf02ad38e973463924cee663d80144866c74b3d2",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_pinned_stdout(tmp_path, capsys, name):
    argv, doc, digest = PINNED_RUNS[name]
    if doc is not None:
        argv = [argv[0], write(tmp_path, doc), *argv[1:]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["check", "--frobnicate"]) == 1


class TestRepeatedCalls:
    """One process may call ``main`` many times; no call leaks into the next."""

    def test_budget_does_not_stick(self, tmp_path, capsys):
        path = write(tmp_path, {"blocks": [[1, 2], [3, 4], [1, 3], [2, 4]]})
        assert main(["vertices", path, "--budget", "2"]) == 3
        capsys.readouterr()
        assert main(["vertices", path]) == 0
        assert capsys.readouterr().out.startswith("vertex count: 2\n")

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        assert main(["check", "--frobnicate"]) == 1
        capsys.readouterr()
        assert main(["check", write(tmp_path, TRIANGLE)]) == 0
        assert "blocks: 3" in capsys.readouterr().out

    def test_witness_then_classify_print_as_alone(self, tmp_path, capsys):
        path = write(tmp_path, SQUARE)
        main(["witness", path])
        witness_alone = capsys.readouterr().out
        main(["classify", path])
        classify_alone = capsys.readouterr().out
        assert main(["witness", path]) == 0
        assert capsys.readouterr().out == witness_alone
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out == classify_alone
