"""End-to-end driver tests: exit codes, JSON errors, deterministic files."""

import json

import pytest

from dimlab import (
    DyadicTree,
    FormatError,
    MoranSpec,
    distance_set,
    grid_product,
    index_sumset,
    iterated_sumset,
    moran_tree,
)
from dimlab.arithmetic import load_grid
from dimlab.cli import main
from dimlab.dyadic import dumps_tree, load_tree, loads_tree


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def err_code(err: str) -> str:
    return json.loads(err.splitlines()[-1])["code"]


class TestGen:
    def test_stdout_tree(self, capsys):
        code, out, _ = run(capsys, ["gen", "--ifs", "r=1/3", "t=0,2/3", "--depth", "3"])
        assert code == 0
        tree = loads_tree(out)
        assert tree.levels[3] == (0, 1, 2, 5, 6, 7)

    def test_identical_bytes_on_rerun(self, capsys, tmp_path):
        a, b = tmp_path / "a.tree", tmp_path / "b.tree"
        argv = ["gen", "--moran", "k=2", "lengths=4^-j", "--depth", "10", "--out"]
        assert run(capsys, argv + [str(a)])[0] == 0
        assert run(capsys, argv + [str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_moran_lengths(self, capsys):
        code, out, _ = run(
            capsys, ["gen", "--moran", "k=2", "lengths=0.25,0.0625", "--depth", "4"]
        )
        assert code == 0
        assert loads_tree(out).levels[4] == (0, 1, 2, 3, 8, 9, 10, 11)

    def test_semigroup(self, capsys):
        code, out, _ = run(
            capsys, ["gen", "--semigroup", "gens=1", "bound=8", "--depth", "0"]
        )
        assert code == 0
        assert loads_tree(out).levels[0] == tuple(range(1, 8))

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"type": "moran", "k": 2, "lengths": "4^-j"}))
        code, out, _ = run(capsys, ["gen", "--spec", str(spec), "--depth", "2"])
        assert code == 0
        assert loads_tree(out).levels[2] == (0, 2)

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, ["gen", "--reciprocal", "--ifs", "r=1/2", "t=0"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"
        code, _, err = run(capsys, ["gen"])
        assert code == 2

    def test_invalid_spec(self, capsys):
        code, _, err = run(capsys, ["gen", "--ifs", "r=1.5", "t=0"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_budget_flag(self, capsys):
        code, _, err = run(
            capsys, ["--budget-cells", "100", "gen", "--reciprocal", "--depth", "12"]
        )
        assert code == 3
        assert err_code(err) == "RESOURCE_LIMIT"

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DIMLAB_BUDGET_CELLS", "100")
        code, _, err = run(capsys, ["gen", "--reciprocal", "--depth", "12"])
        assert code == 3
        monkeypatch.setenv("DIMLAB_BUDGET_CELLS", "lots")
        code, _, err = run(capsys, ["gen", "--reciprocal", "--depth", "12"])
        assert code == 2

    def test_zero_budget_is_honoured(self, capsys):
        code, _, err = run(capsys, ["--budget-cells", "0", "gen", "--reciprocal", "--depth", "12"])
        assert code == 3
        assert err_code(err) == "RESOURCE_LIMIT"

    @pytest.mark.parametrize("env, argv", [
        (None, ["--budget-cells", "-5"]),
        ("-1", []),
    ])
    def test_negative_budget_is_invalid(self, capsys, monkeypatch, env, argv):
        if env is not None:
            monkeypatch.setenv("DIMLAB_BUDGET_CELLS", env)
        code, _, err = run(capsys, argv + ["gen", "--reciprocal", "--depth", "4"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_negative_depth(self, capsys):
        code, _, err = run(capsys, ["gen", "--reciprocal", "--depth", "-1"])
        assert code == 2
        assert "negative depth -1" in err

    def test_product_grid(self, capsys, tmp_path):
        t = tmp_path / "t.tree"
        g = tmp_path / "g.grid"
        run(capsys, ["gen", "--ifs", "r=1/3", "t=0,2/3", "--depth", "4", "--out", str(t)])
        code, _, _ = run(capsys, ["gen", "--product", str(t), str(t), "--out", str(g)])
        assert code == 0
        grid = load_grid(g)
        assert grid == grid_product([load_tree(t), load_tree(t)])


class TestSumDiffDist:
    @pytest.fixture()
    def small(self, tmp_path):
        path = tmp_path / "s.tree"
        path.write_text(dumps_tree(DyadicTree.from_leaves(3, 1, [0, 2])))
        return path

    def test_pairwise_sum_with_report(self, capsys, small, tmp_path):
        out, rep = tmp_path / "o.tree", tmp_path / "r.json"
        code, _, _ = run(
            capsys, ["sum", str(small), str(small), "--out", str(out), "--report", str(rep)]
        )
        assert code == 0
        assert load_tree(out).levels[3] == (0, 2, 4)
        body = json.loads(rep.read_text())
        assert body["count_exact"] == 3
        assert body["inputs"] == 2

    def test_iterated_sum(self, capsys, small):
        code, out, _ = run(capsys, ["sum", str(small), "--k", "3"])
        assert code == 0
        tree = loads_tree(out)
        assert tree.span == 3
        assert tree.levels[3] == (0, 2, 4, 6)

    def test_k_rejected_for_two_inputs(self, capsys, small):
        code, _, err = run(capsys, ["sum", str(small), str(small), "--k", "2"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_three_inputs_rejected(self, capsys, small):
        code, _, err = run(capsys, ["sum", str(small), str(small), str(small)])
        assert code == 2

    def test_empty_input_warns_and_succeeds(self, capsys, small, tmp_path):
        empty = tmp_path / "empty.tree"
        empty.write_text(dumps_tree(DyadicTree.from_leaves(3, 1, [])))
        code, out, err = run(capsys, ["sum", str(small), str(empty)])
        assert code == 0
        assert err_code(err) == "EMPTY_INPUT"
        assert loads_tree(out).is_empty()

    def test_level_above_input(self, capsys, small):
        code, _, err = run(capsys, ["sum", str(small), str(small), "--level", "9"])
        assert code == 2

    def test_diff_report(self, capsys, small, tmp_path):
        rep = tmp_path / "d.json"
        code, out, _ = run(capsys, ["diff", str(small), "--report", str(rep)])
        assert code == 0
        assert loads_tree(out).levels[3] == (0, 2, 4)
        assert json.loads(rep.read_text())["offset"] == 2

    def test_dist_matches_library(self, capsys, tmp_path):
        t = tmp_path / "t.tree"
        g = tmp_path / "g.grid"
        run(capsys, ["gen", "--ifs", "r=1/3", "t=0,2/3", "--depth", "5", "--out", str(t)])
        run(capsys, ["gen", "--product", str(t), str(t), "--out", str(g)])
        code, out, _ = run(capsys, ["dist", str(g)])
        assert code == 0
        assert loads_tree(out) == distance_set(load_grid(g))


class TestAnalyze:
    @pytest.fixture()
    def moran(self, capsys, tmp_path):
        path = tmp_path / "m.tree"
        run(capsys, ["gen", "--moran", "k=2", "lengths=4^-j", "--depth", "12",
                     "--out", str(path)])
        return path

    def test_estimates_to_files(self, capsys, moran, tmp_path):
        out, csv = tmp_path / "r.json", tmp_path / "r.csv"
        code, _, _ = run(
            capsys,
            ["analyze", str(moran), "--box", "6,12", "--assouad", "6", "--lower", "6",
             "--json", str(out), "--csv", str(csv)],
        )
        assert code == 0
        results = json.loads(out.read_text())["results"]
        assert [r["kind"] for r in results] == ["box_upper", "box_lower", "assouad", "lower"]
        assert results[3]["value"] == 0.5
        lines = csv.read_text().splitlines()
        assert lines[0] == "scale,log2_count"
        assert len(lines) == 8

    def test_stdout_by_default(self, capsys, moran):
        code, out, _ = run(capsys, ["analyze", str(moran), "--assouad", "4"])
        assert code == 0
        assert json.loads(out)["results"][0]["kind"] == "assouad"

    def test_covering_check_passes_on_uniform_tree(self, capsys, tmp_path):
        t = tmp_path / "full.tree"
        run(capsys, ["gen", "--ifs", "r=1/2", "t=0,1/2", "--depth", "8", "--out", str(t)])
        code, out, _ = run(capsys, ["analyze", str(t), "--covering-check", "0.25,2"])
        row = json.loads(out)["results"][0]
        assert code == 0
        assert row["ok"] is True
        assert row["uniform"]["fired"] is True

    def test_profile_with_splitting_measure(self, capsys, moran):
        code, out, _ = run(
            capsys, ["analyze", str(moran), "--profile", "0.25,2", "--measure", "splitting"]
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["kind"] == "profile"
        assert row["eps"] == 0.25

    def test_profiles_need_tree_input(self, capsys, tmp_path):
        t = tmp_path / "t.tree"
        g = tmp_path / "g.grid"
        run(capsys, ["gen", "--ifs", "r=1/3", "t=0,2/3", "--depth", "4", "--out", str(t)])
        run(capsys, ["gen", "--product", str(t), str(t), "--out", str(g)])
        code, _, err = run(capsys, ["analyze", str(g), "--profile", "0.1"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_grid_box_estimate(self, capsys, tmp_path):
        t = tmp_path / "t.tree"
        g = tmp_path / "g.grid"
        run(capsys, ["gen", "--ifs", "r=1/2", "t=0,1/2", "--depth", "4", "--out", str(t)])
        run(capsys, ["gen", "--product", str(t), str(t), "--out", str(g)])
        code, out, _ = run(capsys, ["analyze", str(g), "--box", "2,4"])
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == 2.0

    @pytest.mark.parametrize("flag", ["--profile", "--covering-check"])
    def test_empty_eps_rejected(self, capsys, moran, flag):
        code, _, err = run(capsys, ["analyze", str(moran), flag, ","])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_needs_input_or_config(self, capsys):
        code, _, err = run(capsys, ["analyze", "--box", "2,4"])
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["analyze", "nope.tree", "--box", "2,4"])
        assert code == 2
        assert err_code(err) == "IO_ERROR"

    @pytest.mark.parametrize(
        "text",
        [
            "dyadic-tree v1 depth=1000000000000000000 span=1\n0: 0\n",
            "dyadic-tree v1 depth=1 span=1\n0: 0\n1: RUNS 0 3000000\n",
            "dyadic-tree v1 depth=1 span\n0: 0\n1: 0\n",
        ],
        ids=["huge-depth", "run-past-capacity", "token-without-equals"],
    )
    def test_hostile_tree_rejected(self, capsys, tmp_path, text):
        with pytest.raises(FormatError):
            loads_tree(text)
        path = tmp_path / "bad.tree"
        path.write_text(text)
        code, _, err = run(capsys, ["analyze", str(path), "--assouad", "1"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_flags_match_config_form(self, capsys, moran, tmp_path):
        flag_json, flag_csv = tmp_path / "f.json", tmp_path / "f.csv"
        code, _, _ = run(
            capsys,
            ["analyze", str(moran), "--box", "6,12", "--box", "3,9", "--assouad", "6",
             "--lower", "5", "--profile", "0.25,2,8", "--covering-check", "0.25,2",
             "--measure", "splitting", "--json", str(flag_json), "--csv", str(flag_csv)],
        )
        assert code == 0
        cfg_json, cfg_csv = tmp_path / "c.json", tmp_path / "c.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "name": "m4", "depth": 12,
            "generators": [{"type": "moran", "k": 2, "lengths": "4^-j"}],
            "analyses": [
                {"kind": "box", "window": [6, 12]},
                {"kind": "box", "window": [3, 9]},
                {"kind": "assouad", "m": 6},
                {"kind": "lower", "m": 5},
                {"kind": "profile", "eps": 0.25, "m": 2, "n": 8, "measure": "splitting"},
                {"kind": "covering-check", "eps": 0.25, "m": 2, "measure": "splitting"},
            ],
        }))
        code, _, _ = run(capsys, ["analyze", "--config", str(cfg), "--json", str(cfg_json),
                                  "--csv", str(cfg_csv)])
        assert code == 0

        def rows(path):
            return [{k: v for k, v in r.items() if k != "set"}
                    for r in json.loads(path.read_text())["results"]]

        assert rows(flag_json) == rows(cfg_json)
        assert [r["kind"] for r in rows(flag_json)] == [
            "box_upper", "box_lower", "box_upper", "box_lower", "assouad", "lower",
            "profile", "covering-check",
        ]
        assert flag_csv.read_bytes() == cfg_csv.read_bytes()


class TestConfigPipeline:
    def test_end_to_end(self, capsys, tmp_path):
        cfg = {
            "name": "m4-growth",
            "depth": 12,
            "generators": [{"type": "moran", "k": 2, "lengths": "4^-j"}],
            "pipeline": [{"op": "iterate", "k": 2}],
            "analyses": [
                {"kind": "box", "window": [6, 12]},
                {"kind": "assouad", "m": 6},
                {"kind": "growth", "k_max": 2},
            ],
            "out": {
                "tree": str(tmp_path / "out.tree"),
                "json": str(tmp_path / "out.json"),
                "csv": str(tmp_path / "out.csv"),
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run(capsys, ["analyze", "--config", str(path)])
        assert code == 0
        tree = load_tree(tmp_path / "out.tree")
        assert tree.span == 2
        body = json.loads((tmp_path / "out.json").read_text())
        assert body["name"] == "m4-growth"
        kinds = [r["kind"] for r in body["results"]]
        assert kinds == ["box_upper", "box_lower", "assouad", "growth"]
        growth = body["results"][-1]
        assert [r["k"] for r in growth["rows"]] == [1, 2]
        assert (tmp_path / "out.csv").read_text().startswith("scale,log2_count")

    def test_unknown_op(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "bad", "depth": 4,
            "generators": [{"type": "reciprocal"}],
            "pipeline": [{"op": "fold"}],
        }))
        code, _, err = run(capsys, ["analyze", "--config", str(path)])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_depth_required(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"generators": [{"type": "reciprocal"}]}))
        code, _, err = run(capsys, ["analyze", "--config", str(path)])
        assert code == 2

    def test_depth_zero_flag_is_not_unset(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"depth": 6, "generators": [{"type": "reciprocal"}]}))
        code, _, err = run(capsys, ["analyze", "--config", str(path), "--depth", "0"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"

    def test_sum_acts_on_the_current_stage(self, capsys, tmp_path):
        a_spec = {"type": "moran", "k": 2, "lengths": "4^-j"}
        b_spec = {"type": "moran", "k": 3, "lengths": "6^-j"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "depth": 8, "generators": [a_spec, b_spec],
            "pipeline": [{"op": "iterate", "k": 2}, {"op": "sum"}],
            "out": {"tree": str(tmp_path / "out.tree"), "json": str(tmp_path / "out.json")},
        }))
        code, _, _ = run(capsys, ["analyze", "--config", str(path)])
        assert code == 0
        a, b = moran_tree(MoranSpec(2, "4^-j"), 8), moran_tree(MoranSpec(3, "6^-j"), 8)
        want, _ = index_sumset(iterated_sumset(a, 2, 8), b, 8)
        assert load_tree(tmp_path / "out.tree") == want

    def test_growth_is_charged_to_the_budget(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "depth": 8, "generators": [{"type": "moran", "k": 2, "lengths": "4^-j"}],
            "analyses": [{"kind": "growth", "k_max": 3}],
        }))
        code, _, err = run(capsys, ["--budget-cells", "300", "analyze", "--config", str(path)])
        assert code == 3
        assert err_code(err) == "RESOURCE_LIMIT"

    def test_config_budget_overrides_flag(self, capsys, tmp_path):
        def attempt(config_budget, flag_budget):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({
                "depth": 8, "budget_cells": config_budget,
                "generators": [{"type": "reciprocal"}],
            }))
            argv = ["--budget-cells", str(flag_budget), "analyze", "--config", str(path)]
            return run(capsys, argv)[0]

        assert attempt(100, 1 << 20) == 3
        assert attempt(1 << 20, 100) == 0
        assert attempt(0, 1 << 20) == 3

    def test_negative_config_budget_is_invalid(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "depth": 8, "budget_cells": -1, "generators": [{"type": "reciprocal"}],
        }))
        code, _, err = run(capsys, ["analyze", "--config", str(path)])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "sumset-saturation"])
        assert code == 0
        assert out.startswith("PASS sumset-saturation")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["verify", "entropy-extremes", "--json"])
        assert code == 0
        body = json.loads(out)
        assert body["passed"] is True
        assert body["criteria"][0]["name"] == "entropy-extremes"

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        import dimlab.verify as verify

        def stub():
            return verify.CriterionResult("stub", False, 0.01, 1.0, {})

        monkeypatch.setitem(verify.CHECKS, "stub", stub)
        monkeypatch.setitem(verify.SUITES, "stub", ("stub",))
        code, out, _ = run(capsys, ["verify", "stub"])
        assert code == 1
        assert out.startswith("FAIL stub")

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, ["verify", "nope"])
        assert code == 2
        assert err_code(err) == "SPEC_INVALID"
