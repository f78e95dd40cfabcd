"""End-to-end tests for the command line interface."""

import json

import pytest

from blockstoch.cli import main

TRIANGLE = {
    "blocks": [[2, 3], [1, 3], [1, 2]],
    "weights": {"1": "1/2", "2": "1/2", "3": "1/2"},
}
SQUARE = {
    "blocks": [[1, 2], [3, 4], [1, 3], [2, 4]],
    "weights": {"1": "1/2", "2": "1/2", "3": "1/2", "4": "1/2"},
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

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")


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
