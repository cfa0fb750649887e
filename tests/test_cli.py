"""End-to-end driver tests: exit codes, JSON errors, deterministic files."""

import json
import os
import stat

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
    reciprocal_tree,
)
from dimlab.cli import main
from dimlab.io import atomic_write_text, dumps_tree, load_grid, load_tree, loads_tree


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def err_code(err: str) -> str:
    return json.loads(err.splitlines()[-1])["code"]


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    old = os.umask(request.param)
    try:
        yield request.param
    finally:
        os.umask(old)


def mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


class TestFileModes:
    """Written files get mode 0o666 less the umask, as open() makes them."""

    def test_atomic_write_text(self, umask, tmp_path):
        path = tmp_path / "o.txt"
        atomic_write_text(path, "a\n")
        assert mode(path) == 0o666 & ~umask
        path.chmod(0o640)
        atomic_write_text(path, "b\n")
        assert (path.read_text(), mode(path)) == ("b\n", 0o666 & ~umask)
        assert [p.name for p in tmp_path.iterdir()] == ["o.txt"]

    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "o.txt"
        atomic_write_text(path, "a\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "\u00e9\n")
        assert [p.name for p in tmp_path.iterdir()] == ["o.txt"]
        assert path.read_text() == "a\n"

    def test_cli_out(self, umask, capsys, tmp_path):
        path = tmp_path / "o.tree"
        assert run(capsys, ["gen", "--ifs", "r=1/3", "t=0,2/3", "--depth", "3", "--out", str(path)])[0] == 0
        assert mode(path) == 0o666 & ~umask


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

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "ifs", "r": "1/3", "translations": [0, None]},
            {"type": "semigroup", "generators": "15", "bound": 8},
            {"type": "ifs", "r": "1/2", "translations": [0, True], "span": 2},
        ],
        ids=["null-number", "string-array", "boolean-number"],
    )
    def test_spec_file_of_the_wrong_json_type_is_invalid(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, ["gen", "--spec", str(path), "--depth", "3"])
        assert (code, out, err_code(err)) == (2, "", "SPEC_INVALID")

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

    @pytest.mark.parametrize(
        "flag, tokens",
        [
            ("--ifs", ["r=1/3", "t=0,2/3", "spn=2"]),
            ("--moran", ["k=2", "lengths=4^-j", "span=1"]),
            ("--semigroup", ["gens=1", "bound=8", "bnd=4"]),
        ],
    )
    def test_unknown_flag_key_is_invalid(self, capsys, flag, tokens):
        # the key was ignored: spn=2 built a span-1 tree
        code, out, err = run(capsys, ["gen", flag, *tokens, "--depth", "3"])
        assert (code, out, err_code(err)) == (2, "", "SPEC_INVALID")
        key = tokens[-1].split("=")[0]
        assert json.loads(err.splitlines()[-1])["message"] == f"{flag} has unknown key {key!r}"

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

    def test_deep_dust_product_at_the_default_budget(self, capsys, tmp_path):
        # 1,340^2 cells of 2 coordinates each, charged 3,591,200
        t = tmp_path / "t.tree"
        g = tmp_path / "g.grid"
        run(capsys, ["gen", "--ifs", "r=1/3", "t=0,2/3", "--depth", "15", "--out", str(t)])
        assert run(capsys, ["gen", "--product", str(t), str(t), "--out", str(g)])[0] == 0
        assert g.read_text().count("\n") == 1 + 1340 * 1340
        code, _, err = run(capsys, ["--budget-cells", "3591199", "gen", "--product", str(t), str(t)])
        assert code == 3
        assert json.loads(err)["message"] == "grid product needs 3591200 cells, budget is 3591199"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--reciprocal"], "gen needs exactly one of --ifs/--moran/--reciprocal/--semigroup/--spec/"
                               "--product, got ['reciprocal', 'product']"),
            (["--depth", "9"], "gen --product takes no --depth: the trees set it"),
        ],
        ids=["second-source", "depth"],
    )
    def test_product_is_one_source_and_takes_no_depth(self, capsys, tmp_path, extra, message):
        # each once wrote the product grid and dropped the flag without a word
        t = tmp_path / "t.tree"
        t.write_text(dumps_tree(reciprocal_tree(4)))
        code, out, err = run(capsys, ["gen", "--product", str(t), str(t), *extra])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"code": "SPEC_INVALID", "message": message}

    def test_depth_defaults_to_12(self, capsys):
        code, out, _ = run(capsys, ["gen", "--reciprocal"])
        assert (code, loads_tree(out).max_depth) == (0, 12)


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

    @pytest.mark.parametrize(
        "argv, report",
        [
            (["e"], {"level": 3, "count_exact": 0, "bracket": [0.0, 0.0], "k": 1, "inputs": 1}),
            (["e", "--k", "3"], {"level": 3, "count_exact": 0, "bracket": [0.0, 0.0], "k": 3, "inputs": 1}),
            (["s", "e"], {"level": 3, "count_exact": 0, "bracket": [0.0, 0.0], "k": 1, "inputs": 2}),
        ],
        ids=["single", "iterated", "pair"],
    )
    def test_empty_input_report_has_every_field(self, capsys, small, tmp_path, argv, report):
        # the report once lacked k and inputs for an empty input
        empty = tmp_path / "empty.tree"
        empty.write_text(dumps_tree(DyadicTree.from_leaves(3, 1, [])))
        rep = tmp_path / "r.json"
        paths = [str(empty) if a == "e" else str(small) if a == "s" else a for a in argv]
        code, out, err = run(capsys, ["sum", *paths, "--report", str(rep)])
        assert (code, err_code(err)) == (0, "EMPTY_INPUT")
        assert loads_tree(out).is_empty()
        assert json.loads(rep.read_text()) == report

    def test_empty_input_fold_count_zero_is_invalid(self, capsys, tmp_path):
        empty = tmp_path / "empty.tree"
        empty.write_text(dumps_tree(DyadicTree.from_leaves(3, 1, [])))
        code, out, err = run(capsys, ["sum", str(empty), "--k", "0"])
        assert (code, out, err_code(err)) == (2, "", "SPEC_INVALID")

    @pytest.mark.parametrize("argv", [["sum"], ["sum", "--k", "2"], ["diff"]])
    def test_negative_level_is_outside_the_tree(self, capsys, small, argv):
        code, _, err = run(capsys, [*argv, str(small), "--level", "-1"])
        assert code == 2
        assert json.loads(err.splitlines()[-1]) == {
            "code": "SPEC_INVALID", "message": "level -1 outside 0..3",
        }

    @pytest.mark.parametrize("argv", [["sum"], ["sum", "--k", "2"], ["diff"], ["sum", "DEEP"]])
    def test_level_past_an_input_has_the_same_text(self, capsys, small, tmp_path, argv):
        # the least input depth bounds the level, with one text for either end
        deep = tmp_path / "deep.tree"
        deep.write_text(dumps_tree(DyadicTree.from_leaves(5, 1, [0])))
        argv = [str(deep) if a == "DEEP" else a for a in argv]
        code, _, err = run(capsys, [*argv, str(small), "--level", "4"])
        assert code == 2
        assert json.loads(err.splitlines()[-1]) == {
            "code": "SPEC_INVALID", "message": "level 4 outside 0..3",
        }

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

    @pytest.mark.parametrize("kind", ["assouad", "lower"])
    def test_empty_grid_local_estimate_named(self, capsys, tmp_path, kind):
        path = tmp_path / "empty.grid"
        path.write_text("grid-set v1 d=2 depth=4 span=1\n")
        code, _, err = run(capsys, ["analyze", str(path), f"--{kind}", "2"])
        assert code == 2
        assert json.loads(err.splitlines()[-1]) == {
            "code": "SPEC_INVALID",
            "message": f"empty set has no {kind} estimate",
        }

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

    def _config_exit(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, ["analyze", "--config", str(path)])
        return code, out, err_code(err) if err else None

    def test_boolean_depth_is_invalid(self, capsys, tmp_path):
        cfg = {"depth": True, "generators": [{"type": "reciprocal"}], "analyses": [{"kind": "box"}]}
        assert self._config_exit(capsys, tmp_path, cfg) == (2, "", "SPEC_INVALID")

    def test_boolean_budget_is_invalid(self, capsys, tmp_path):
        cfg = {"depth": 4, "budget_cells": True, "generators": [{"type": "reciprocal"}]}
        assert self._config_exit(capsys, tmp_path, cfg) == (2, "", "SPEC_INVALID")

    def test_boolean_fold_count_is_invalid(self, capsys, tmp_path):
        cfg = {"depth": 4, "generators": [{"type": "reciprocal"}],
               "pipeline": [{"op": "iterate", "k": True}]}
        assert self._config_exit(capsys, tmp_path, cfg) == (2, "", "SPEC_INVALID")

    @pytest.mark.parametrize(
        "analysis",
        [
            {"kind": "assouad", "m": True},
            {"kind": "lower", "m": 2.0},
            {"kind": "box", "window": [True, 6]},
            {"kind": "box", "window": [2, 4, 6]},
            {"kind": "growth", "k_max": 2.7},
            {"kind": "profile", "eps": True},
            {"kind": "profile", "eps": 0.1, "m": True},
            {"kind": "profile", "eps": 0.1, "n": True},
            {"kind": "covering-check", "eps": "0.1"},
        ],
        ids=["assouad-m", "lower-m-float", "box-window-bool", "box-window-length",
             "growth-k_max-float", "profile-eps", "profile-m", "profile-n", "covering-eps-str"],
    )
    def test_non_integer_analysis_field_is_invalid(self, capsys, tmp_path, analysis):
        cfg = {"depth": 6, "generators": [{"type": "reciprocal"}], "analyses": [analysis]}
        assert self._config_exit(capsys, tmp_path, cfg) == (2, "", "SPEC_INVALID")

    @pytest.mark.parametrize(
        "generator",
        [
            {"type": "moran", "k": True, "lengths": "4^-j"},
            {"type": "moran", "k": 2.9, "lengths": "4^-j"},
            {"type": "ifs", "r": "1/3", "translations": [0, "2/3"], "span": True},
            {"type": "semigroup", "generators": [1, 1.5], "bound": 8.5},
        ],
        ids=["moran-k-bool", "moran-k-float", "ifs-span-bool", "semigroup-bound-float"],
    )
    def test_non_integer_generator_field_is_invalid(self, capsys, tmp_path, generator):
        cfg = {"depth": 6, "generators": [generator], "analyses": [{"kind": "box"}]}
        assert self._config_exit(capsys, tmp_path, cfg) == (2, "", "SPEC_INVALID")

    RECIPROCAL = {"depth": 4, "generators": [{"type": "reciprocal"}]}

    @pytest.mark.parametrize(
        "cfg, problem",
        [
            ([], "config must be a JSON object"),
            ({**RECIPROCAL, "pipeline": [1]}, "pipeline stage must be a JSON object"),
            ({**RECIPROCAL, "analyses": ["box"]}, "analysis must be a JSON object"),
            ({**RECIPROCAL, "out": "x.tree"}, "out must be a JSON object"),
            ({**RECIPROCAL, "pipeline": 5}, "pipeline must be a JSON array"),
            ({**RECIPROCAL, "analyses": 5}, "analyses must be a JSON array"),
            ({"depth": 4, "generators": 5}, "generators must be a JSON array"),
        ],
        ids=["config-array", "stage-number", "analysis-string", "out-string",
             "pipeline-number", "analyses-number", "generators-number"],
    )
    def test_non_object_field_is_invalid(self, capsys, tmp_path, cfg, problem):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, ["analyze", "--config", str(path)])
        assert (code, out, err_code(err)) == (2, "", "SPEC_INVALID")
        message = json.loads(err.splitlines()[-1])["message"]
        assert message.endswith(problem)

    @pytest.mark.parametrize(
        "cfg, problem",
        [
            ({**RECIPROCAL, "budget": 5}, "config experiment has unknown key 'budget'"),
            ({**RECIPROCAL, "out": {"jsn": "x.json"}}, "config experiment: out has unknown key 'jsn'"),
            ({**RECIPROCAL, "pipeline": [{"op": "iterate", "kk": 3}]},
             "config experiment: iterate stage has unknown key 'kk'"),
            ({**RECIPROCAL, "pipeline": [{"op": "difference", "k": 3}]},
             "config experiment: difference stage has unknown key 'k'"),
            ({**RECIPROCAL, "analyses": [{"kind": "box", "windw": [2, 4]}]},
             "experiment: box analysis has unknown key 'windw'"),
            ({"depth": 4, "generators": [{"type": "ifs", "r": "1/3", "translations": [0, "2/3"], "spn": 2}]},
             "ifs spec has unknown key 'spn'"),
        ],
        ids=["config", "out", "stage", "stage-k-off-iterate", "analysis", "generator"],
    )
    def test_unknown_key_is_invalid(self, capsys, tmp_path, cfg, problem):
        # each key was ignored: the run went on with its default
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, ["analyze", "--config", str(path)])
        assert (code, out, err_code(err)) == (2, "", "SPEC_INVALID")
        assert json.loads(err.splitlines()[-1])["message"] == problem
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("key", ["tree", "json", "csv"])
    def test_non_string_out_path_is_invalid(self, capsys, tmp_path, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.RECIPROCAL, "out": {key: 5}}))
        code, out, err = run(capsys, ["analyze", "--config", str(path)])
        assert (code, out, err_code(err)) == (2, "", "SPEC_INVALID")
        message = json.loads(err.splitlines()[-1])["message"]
        assert message == f"config experiment: out {key} must be a path string"
        assert list(tmp_path.iterdir()) == [path]


R1 = {"depth": 6, "generators": [{"type": "reciprocal"}]}
R2 = {"depth": 6, "generators": [{"type": "reciprocal"}, {"type": "reciprocal"}]}


class TestCheckBeforeRun:
    """An invalid config or flag run exits 2 before any generator runs."""

    @pytest.fixture(autouse=True)
    def no_generator(self, monkeypatch):
        def fail(spec, depth):
            raise AssertionError(f"a generator ran at depth {depth}")

        monkeypatch.setattr("dimlab.cli.build_tree", fail)

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({**R1, "budget": 5}, "config experiment has unknown key 'budget'"),
            ({**R1, "depth": 2.0}, "config experiment: depth must be a positive integer"),
            ({**R1, "budget_cells": "9"}, "config experiment: budget_cells must be an integer"),
            ({**R1, "out": {"tree": 5}}, "config experiment: out tree must be a path string"),
            ({"depth": 6, "generators": [{"type": "reciprocal"}, {"type": "cantor"}]},
             "unknown generator type 'cantor'"),
            ({"depth": 6, "generators": []}, "config experiment: no generators"),
            ({**R1, "pipeline": [{"op": "fold"}]}, "config experiment: unknown pipeline op 'fold'"),
            ({**R1, "pipeline": [{"op": "iterate", "kk": 3}]},
             "config experiment: iterate stage has unknown key 'kk'"),
            ({**R1, "pipeline": [{"op": "iterate", "k": 2}, {"op": "iterate", "k": 2.0}]},
             "config experiment: iterate k must be an integer"),
            ({**R1, "analyses": [{"kind": "hausdorff"}]}, "experiment: unknown analysis kind 'hausdorff'"),
            ({**R1, "analyses": [{"kind": "box", "windw": [2, 4]}]},
             "experiment: box analysis has unknown key 'windw'"),
            ({**R1, "analyses": [{"kind": "box"}, {"kind": "box", "window": [2, "4"]}]},
             "experiment: box window must be two integers"),
            ({**R1, "pipeline": [{"op": "iterate", "k": 8}], "analyses": [{"kind": "assouad", "m": "6"}]},
             "experiment: assouad m must be an integer"),
            ({**R1, "analyses": [{"kind": "lower", "m": None}]}, "experiment: lower m must be an integer"),
            ({**R1, "analyses": [{"kind": "growth", "k_max": 2.5}]},
             "experiment: growth k_max must be an integer"),
            ({**R1, "analyses": [{"kind": "profile", "eps": "0.1"}]},
             "experiment: profile eps must be a number"),
            ({**R1, "analyses": [{"kind": "covering-check", "measure": "lebesgue"}]},
             "experiment: unknown measure 'lebesgue'"),
            ({**R1, "analyses": [{"kind": "profile", "measure": ["counting"]}]},
             "experiment: unknown measure ['counting']"),
            ({**R1, "analyses": [{"kind": "profile", "m": 1.5}]}, "experiment: profile m must be an integer"),
            ({**R1, "analyses": [{"kind": "profile", "n": True}]}, "experiment: profile n must be an integer"),
            ({**R1, "pipeline": [{"op": "iterate", "k": 8}, {"op": "distance"}]},
             "config experiment: distance needs a product grid"),
            ({**R2, "pipeline": [{"op": "product"}, {"op": "sum"}]}, "config experiment: sum needs a 1-d tree"),
            ({**R2, "pipeline": [{"op": "product"}, {"op": "iterate"}]},
             "config experiment: iterate needs a 1-d tree"),
            ({**R2, "pipeline": [{"op": "product"}, {"op": "difference"}]},
             "config experiment: difference needs a 1-d tree"),
            ({**R2, "pipeline": [{"op": "product"}, {"op": "product"}]},
             "config experiment: product needs a 1-d tree"),
            ({**R1, "pipeline": [{"op": "iterate"}, {"op": "sum"}]}, "config experiment: sum needs two generators"),
            ({**R2, "pipeline": [{"op": "product"}], "analyses": [{"kind": "box"}, {"kind": "profile"}]},
             "experiment: profile needs a 1-d tree"),
            ({**R2, "pipeline": [{"op": "product"}, {"op": "distance"}, {"op": "product"}],
              "analyses": [{"kind": "covering-check"}]},
             "experiment: covering-check needs a 1-d tree"),
            ({**R2, "pipeline": [{"op": "product"}], "analyses": [{"kind": "covering-check"}]},
             "experiment: covering-check needs a 1-d tree"),
        ],
        ids=["config-key", "depth", "budget_cells", "out", "generator", "no-generators", "op",
             "stage-key", "iterate-k", "kind", "analysis-key", "window", "m", "lower-m", "k_max",
             "eps", "measure", "measure-list", "profile-m", "n", "distance-on-tree", "sum-on-grid",
             "iterate-on-grid", "difference-on-grid", "product-on-grid", "sum-one-generator",
             "profile-on-grid", "grid-again-after-distance", "covering-check-on-grid"],
    )
    def test_invalid_config_is_refused_before_any_generator(self, capsys, tmp_path, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "out": {"json": str(tmp_path / "o.json"), **cfg.get("out", {})}}))
        code, out, err = run(capsys, ["analyze", "--config", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"code": "SPEC_INVALID", "message": message}
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["IN"], "'IN'"),
            (["--box", "2,5", "--lower", "3"], "'--box', '--lower'"),
            (["--assouad", "2"], "'--assouad'"),
            (["--profile", "0.25"], "'--profile'"),
            (["--covering-check", "0.25"], "'--covering-check'"),
        ],
        ids=["input", "box-lower", "assouad", "profile", "covering-check"],
    )
    def test_config_refuses_flags_it_would_ignore(self, capsys, tmp_path, extra, named):
        # each once ran the config and dropped the flag without a word
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(R1))
        tree = tmp_path / "in.tree"
        tree.write_text(dumps_tree(reciprocal_tree(4)))
        argv = [str(tree) if a == "IN" else a for a in extra]
        code, out, err = run(capsys, ["analyze", "--config", str(path), *argv])
        assert (code, out) == (2, "")
        named = named.replace("IN", str(tree))
        assert json.loads(err) == {
            "code": "SPEC_INVALID",
            "message": f"analyze --config takes no input file or analysis flag, got [{named}]",
        }

    def test_config_refuses_measure(self, capsys, tmp_path):
        # --measure once defaulted to counting, so a config run could not see it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(R1))
        code, out, err = run(capsys, ["analyze", "--config", str(path), "--measure", "splitting"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "code": "SPEC_INVALID",
            "message": "analyze --config takes no input file or analysis flag, got ['--measure']",
        }

    def test_depth_needs_a_config(self, capsys, tmp_path):
        tree = tmp_path / "in.tree"
        tree.write_text(dumps_tree(reciprocal_tree(4)))
        code, out, err = run(capsys, ["analyze", str(tree), "--depth", "3", "--box", "1,3"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "code": "SPEC_INVALID", "message": "analyze --depth applies to --config only",
        }


def test_cli_battery_runs_with_its_listed_exit_codes(tmp_path, monkeypatch):
    from cli_battery import CASES, run_battery

    monkeypatch.delenv("DIMLAB_BUDGET_CELLS", raising=False)
    assert run_battery(tmp_path) == {name: code for name, code, _, _ in CASES}


class TestRepeatedCalls:
    """main() builds its parser once per process: calls must not see each
    other's arguments."""

    def test_budget_flag_does_not_carry_over(self, capsys):
        code, _, err = run(capsys, ["--budget-cells", "10", "gen", "--reciprocal", "--depth", "12"])
        assert (code, err_code(err)) == (3, "RESOURCE_LIMIT")
        code, out, _ = run(capsys, ["gen", "--reciprocal", "--depth", "12"])
        assert code == 0
        assert loads_tree(out) == reciprocal_tree(12)

    def test_appended_analyses_do_not_carry_over(self, capsys, tmp_path):
        path = tmp_path / "r.tree"
        assert run(capsys, ["gen", "--reciprocal", "--depth", "8", "--out", str(path)])[0] == 0
        code, out, _ = run(capsys, ["analyze", str(path), "--box", "2,8", "--assouad", "2"])
        assert code == 0
        code, out, _ = run(capsys, ["analyze", str(path), "--lower", "2"])
        assert code == 0
        assert [r["kind"] for r in json.loads(out)["results"]] == ["lower"]


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
