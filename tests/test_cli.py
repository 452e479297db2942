import json
import os
import subprocess
import sys

import pytest

from graphconf import (
    betti_numbers,
    build_model,
    cli,
    homology,
    interval_family,
    make_path_graph,
    make_spider,
    make_star,
    realize_family,
    smooth,
)
from graphconf.characters import CorruptedCharacterError
from graphconf.cli import family_to_payload, graph_to_payload, main


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "star3.json"
    path.write_text(make_star(3).to_json())
    return str(path)


@pytest.fixture()
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(make_path_graph(1).to_json())
    return str(path)


@pytest.fixture()
def star_family_file(tmp_path, star_family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_payload(star_family)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def matches_golden(out, golden):
    """Whether a printed report equals a golden one, less the lines that
    vary from run to run (time taken, code version)."""
    lines = [line for line in out.splitlines(True)
             if not line.startswith(('  "elapsed_seconds": ',
                                     '  "code_version": '))]
    with open(os.path.join(GOLDEN_DIR, golden)) as fh:
        return "".join(lines) == fh.read()


class TestCommands:
    def test_model_reproduces_sink_figure(self, capsys, interval_file):
        code, rep = run_cli(capsys, "model", "--graph", interval_file,
                            "--n", "2", "--sinks", "0,1")
        assert code == 0
        assert rep["f_vector"] == [10, 12, 2]
        assert rep["euler_characteristic"] == 0

    def test_homology_report_shape(self, capsys, graph_file):
        code, rep = run_cli(capsys, "homology", "--graph", graph_file,
                            "--n", "2", "--q", "1")
        assert code == 0
        assert rep["betti"] == 1
        assert rep["torsion"] == []
        assert set(rep) >= {"q", "betti", "torsion", "cells"}

    def test_oracle_compare_match(self, capsys, graph_file):
        code, rep = run_cli(capsys, "oracle-compare", "--graph", graph_file,
                            "--n", "2")
        assert code == 0
        assert rep["verdict"] == "MATCH"

    def test_parser_defaults(self, capsys, graph_file, star_family_file):
        # each default is declared once, in build_parser
        code, rep = run_cli(capsys, "homology", "--graph", graph_file,
                            "--n", "2")
        assert (code, rep["q"]) == (0, 1)
        code, rep = run_cli(capsys, "oracle-compare", "--graph", graph_file,
                            "--n", "2")
        assert (code, rep["qmax"]) == (0, 2)
        assert main(["poly-fit", "--family", star_family_file, "--n", "2",
                     "--q", "1", "--window", "3..7"]) == 0
        assert matches_golden(capsys.readouterr().out,
                              "poly_fit_star_family.json")
        assert main(["model", "--graph", graph_file, "--n", "2"]) == 0

    def test_invariant_commands_smooth_the_graph(self, capsys, monkeypatch,
                                                 tmp_path, triangle):
        member = realize_family(interval_family(triangle), (2,)).graph
        path = tmp_path / "member.json"
        path.write_text(member.to_json())
        literal = build_model(member, 2)
        built = []

        def recording_build_model(graph, *args, **kwargs):
            built.append(graph)
            return build_model(graph, *args, **kwargs)

        monkeypatch.setattr(cli, "build_model", recording_build_model)
        code, rep = run_cli(capsys, "oracle-compare", "--graph", str(path),
                            "--n", "2")
        assert code == 0
        assert rep["model_betti"] == rep["oracle_betti"] == \
            betti_numbers(literal, 2) == [1, 15, 2]
        assert built == [smooth(member)]
        code, rep = run_cli(capsys, "homology", "--graph", str(path),
                            "--n", "2", "--q", "1")
        assert (code, rep["betti"], rep["torsion"]) == (0, 15, [])
        assert rep["cells"] == build_model(smooth(member), 2).f_vector()
        assert rep["cells"] != literal.f_vector()
        # a sink is kept: particles may pile up there
        sink = next(v for v in member.vertices if member.valence(v) == 2)
        code, rep = run_cli(capsys, "homology", "--graph", str(path),
                            "--n", "2", "--q", "1", "--sinks", str(sink))
        assert code == 0
        assert built[-1] == smooth(member, keep=(sink,))
        assert sink in built[-1].vertices
        assert rep["betti"] == homology(
            build_model(member, 2, sinks=(sink,)), 1, basis=False).betti
        # model reports the literal graph's complex
        code, rep = run_cli(capsys, "model", "--graph", str(path), "--n", "2")
        assert code == 0
        assert built[-1] == member
        assert rep["f_vector"] == literal.f_vector()

    def test_generation_check_above_the_top_dimension(self, capsys,
                                                       star_family_file):
        # H_2 of Conf_1 of a star is 0: no candidates are needed
        code, rep = run_cli(capsys, "generation-check",
                            "--family", star_family_file,
                            "--n", "1", "--q", "2", "--d", "1", "--K", "2")
        assert code == 0
        assert (rep["betti"], rep["generates_over_Z"]) == (0, True)
        assert rep["f_vector"] == [5, 4]

    def test_generation_check_with_csv(self, capsys, tmp_path,
                                       star_family_file):
        csv_path = tmp_path / "table.csv"
        code, rep = run_cli(capsys, "generation-check",
                            "--family", star_family_file,
                            "--n", "2", "--q", "1", "--d", "4", "--K", "5",
                            "--csv", str(csv_path))
        assert code == 0
        assert rep["generates_over_Z"] is True
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "degree,generates_over_Q,generates_over_Z,missing_rank"
        assert len(lines) >= 2

    def test_tree_generators(self, capsys, graph_file):
        code, rep = run_cli(capsys, "tree-generators", "--graph", graph_file,
                            "--n", "2", "--q", "1")
        assert code == 0 and rep["generates_over_Z"]

    def test_tree_generators_counts_supports(self, capsys, tmp_path,
                                             graph_file):
        import jsonschema

        spider = tmp_path / "spider.json"
        spider.write_text(make_spider(3, 3, 2).to_json())
        cases = [((graph_file, "1"), (1, 1)),
                 ((str(spider), "1"), (11, 0)),
                 ((str(spider), "2"), (2, 0))]
        for (path, q), (supports, whole) in cases:
            code, rep = run_cli(capsys, "tree-generators", "--graph", path,
                                "--n", "2", "--q", q)
            assert code == 0 and rep["generates_over_Z"]
            assert (rep["supports"], rep["whole_graph_supports"]) == \
                (supports, whole)
            validate_against(rep, "tree_generators_report.schema.json")
        with pytest.raises(jsonschema.ValidationError):
            validate_against({**rep, "whole_graph_supports": -1},
                             "tree_generators_report.schema.json")

    def test_rep_stability(self, capsys, star_family_file):
        code, rep = run_cli(capsys, "rep-stability",
                            "--family", star_family_file,
                            "--n", "2", "--q", "1", "--window", "4..5")
        assert code == 0
        assert rep["stable"] is True
        assert rep["window"] == [4, 5]

    def test_rep_stability_routes(self, capsys, tmp_path, star_family_file,
                                  k4_interval_family):
        code, rep = run_cli(capsys, "rep-stability",
                            "--family", star_family_file,
                            "--n", "2", "--q", "1", "--window", "3..5")
        assert code == 0
        # the first size takes both routes and reports the traces
        assert [row["route"] for row in rep["per_k"]] == \
            ["traces", "fixed_points", "fixed_points"]
        # H_2 != 0 at n=3: traces at every size
        path = tmp_path / "k4_family.json"
        path.write_text(json.dumps(family_to_payload(k4_interval_family)))
        code, rep = run_cli(capsys, "rep-stability", "--family", str(path),
                            "--n", "3", "--q", "1", "--window", "1..2")
        assert [row["route"] for row in rep["per_k"]] == ["traces", "traces"]
        assert [row["betti"] for row in rep["per_k"]] == [36, 90]

    def test_rep_stability_skips_bases_after_the_cross_check(
            self, capsys, monkeypatch, star_family_file):
        import importlib
        homology = importlib.import_module("graphconf.homology")
        calls = {"kernel": 0, "smith": 0, "chain maps": 0, "models": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(homology, "kernel_with_coords",
                            counted("kernel", homology.kernel_with_coords))
        monkeypatch.setattr(homology, "smith_diagonalize",
                            counted("smith", homology.smith_diagonalize))
        monkeypatch.setattr(homology.ChainMap, "__init__", counted(
            "chain maps", homology.ChainMap.__init__))
        characters = importlib.import_module("graphconf.characters")
        monkeypatch.setattr(characters, "build_model",
                            counted("models", characters.build_model))
        code, rep = run_cli(capsys, "rep-stability",
                            "--family", star_family_file,
                            "--n", "3", "--q", "1", "--window", "5..7")
        assert code == 0 and rep["stable"]
        # one presentation with basis and one chain map per class of S_5;
        # the trace route at every size would take 3, 3 and 7 + 11 + 15.
        # Only the window's members are built
        assert calls == {"kernel": 1, "smith": 1, "chain maps": 7, "models": 3}

    @staticmethod
    def _window_4_6_is_exit_four(capsys, family_file):
        # member m of the star family has m edges; the window 4..6 builds the
        # models of members 4..6 only, each checked against Gal's formula
        code = main(["rep-stability", "--family", family_file,
                     "--n", "2", "--q", "1", "--window", "4..6"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("internal error: CorruptedCharacterError")
        return captured.err

    @pytest.mark.parametrize("member", range(7))
    @pytest.mark.parametrize("error", [1, -1])
    def test_wrong_euler_characteristic_is_exit_four(
            self, capsys, monkeypatch, star_family_file, member, error):
        # a wrong formula value for a built member fails the check against
        # its model.  One for a smaller member is caught by the cross-check
        # at k = 4 or, for m = 3, which no class of S_4 fixes, at k = 5 by
        # the trivial multiplicity: it moves by error * D(k - m) /
        # (m! (k - m)!), D the derangement count, which is no integer
        import graphconf.characters as characters
        real = characters.conf_euler
        monkeypatch.setattr(
            characters, "conf_euler",
            lambda g, n: real(g, n) + error * (g.n_edges == member))
        err = self._window_4_6_is_exit_four(capsys, star_family_file)
        if member >= 4:
            assert f"at k={member} is" in err and "Gal's formula" in err
        elif member <= 2:   # used at k = 4, where both routes run
            assert "fixed points and traces disagree at k=4" in err

    @pytest.mark.parametrize("member", range(4, 7))
    @pytest.mark.parametrize("error", [1, -1])
    def test_wrong_model_euler_characteristic_is_exit_four(
            self, capsys, monkeypatch, star_family_file, member, error):
        from graphconf.complexes import CubeComplex
        real = CubeComplex.euler_characteristic
        monkeypatch.setattr(
            CubeComplex, "euler_characteristic",
            lambda cx: real(cx) + error * (cx.graph.n_edges == member))
        err = self._window_4_6_is_exit_four(capsys, star_family_file)
        assert f"at k={member} is" in err and "Gal's formula" in err

    def test_poly_fit(self, capsys, star_family_file):
        code, rep = run_cli(capsys, "poly-fit", "--family", star_family_file,
                            "--n", "2", "--q", "1", "--window", "3..6",
                            "--degree", "2")
        assert code == 0
        assert rep["fits"] is True
        assert rep["coefficients"] == ["1", "-3", "1"]

    def test_out_file(self, capsys, tmp_path, graph_file):
        out = tmp_path / "report.json"
        code = main(["homology", "--graph", graph_file, "--n", "1",
                     "--q", "0", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["betti"] == 1


class TestExitCodes:
    def test_missing_file_is_config_error(self, capsys):
        assert main(["homology", "--graph", "/does/not/exist", "--n", "2"]) == 2

    def test_negative_n_is_config_error(self, capsys, graph_file):
        assert main(["homology", "--graph", graph_file, "--n", "-1"]) == 2

    def test_negative_d_is_config_error_before_any_model(self, capsys,
                                                        star_family_file):
        # a budget of 5 cells would exit 3 once a model is built
        assert main(["generation-check", "--family", star_family_file,
                     "--n", "3", "--d", "-1", "--K", "3", "--budget", "5"]) == 2
        assert "--d must be nonnegative" in capsys.readouterr().err

    def test_negative_K_is_config_error(self, capsys, star_family_file):
        assert main(["generation-check", "--family", star_family_file,
                     "--n", "3", "--d", "1", "--K", "-1"]) == 2
        assert "--K must be nonnegative" in capsys.readouterr().err

    def test_negative_qmax_is_config_error(self, capsys, graph_file):
        assert main(["oracle-compare", "--graph", graph_file, "--n", "2",
                     "--qmax", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sinks_with_oracle_is_config_error(self, capsys, graph_file):
        assert main(["model", "--graph", graph_file, "--n", "2",
                     "--sinks", "0", "--oracle"]) == 2

    def test_repeated_sink_is_config_error(self, capsys, graph_file):
        assert main(["model", "--graph", graph_file, "--n", "2",
                     "--sinks", "0,0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("model", "--graph", "{graph}", "--n", "2", "--budget", "0"),
        ("rep-stability", "--family", "{family}", "--n", "2", "--q", "1",
         "--window", "3-5"),
        ("model", "--graph", "{graph}", "--n", "2", "--sinks", "a"),
        ("rep-stability", "--family", "{family}", "--n", "2", "--q", "1",
         "--window", "3..3"),
        ("homology", "--graph", "{graph}", "--n", "2", "--q", "-1"),
        ("poly-fit", "--family", "{family}", "--n", "2", "--q", "1",
         "--window", "3..7", "--degree", "-1"),
        ("generation-check", "--family", "{family}", "--n", "2", "--q", "1",
         "--d", "9", "--K", "8"),
        ("model", "--graph", "{graph}", "--n", "2", "--sinks", "9"),
    ], ids=["budget-zero", "window-without-dots", "sink-not-a-vertex",
            "one-size-window", "negative-q", "negative-degree",
            "degree-above-every-size", "sink-off-the-graph"])
    def test_bad_option_value_is_config_error(self, capsys, graph_file,
                                              star_family_file, argv):
        files = {"{graph}": graph_file, "{family}": star_family_file}
        assert main([files.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    @pytest.mark.parametrize("argv", [
        ("model", "--graph"),
        ("homology", "--graph"),
        ("oracle-compare", "--graph"),
        ("tree-generators", "--graph"),
    ])
    def test_csv_only_on_table_commands(self, capsys, tmp_path, graph_file,
                                        argv):
        # only generation-check, rep-stability and poly-fit write a table
        with pytest.raises(SystemExit) as exc:
            main([*argv, graph_file, "--n", "1", "--csv",
                  str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("model", "--graph"),
        ("rep-stability", "--window", "2..3", "--family"),
        ("poly-fit", "--window", "3..7", "--family"),
    ], ids=["model", "rep-stability", "poly-fit"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_input_is_config_error(self, capsys, tmp_path, argv,
                                              kind):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe")
        assert main([*argv, str(path), "--n", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unreadable_input_exits_two_from_the_process(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "graphconf.cli", "model",
             "--graph", str(tmp_path), "--n", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr[:7]) == ("", "error: ")

    def test_malformed_graph_json_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [0, 1], "edges": [[0, 1]')
        assert main(["homology", "--graph", str(path), "--n", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_family_json_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "broken_family.json"
        path.write_text("{kind: wedge}")
        assert main(["rep-stability", "--family", str(path), "--n", "2",
                     "--q", "1", "--window", "2..3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("payload", [
        {"vertices": [0, 1], "edges": [[0, 1, 2]]},
        {"vertices": [0, 1], "edges": [[0]]},
        {"vertices": [0, 1], "edges": [[0, 1]],
         "labels": {"vertices": {"x": [1, 1]}}},
        [1, 2],
        {"vertices": [0, 1], "edges": [[0, 1]], "labels": [1]},
        {"vertices": [0, 1], "edges": [[0, 1]],
         "labels": {"edges": {"7": [1, 1]}}},
        {"vertices": [0, 1], "edges": [[0, 1]],
         "labels": {"vertices": {"0": [1]}}},
        {"vertices": ["a", "b"], "edges": [["a", "b"]]},
        {"vertices": [0, 1.5], "edges": [[0, 1.5]]},
        {"vertices": [True, 2], "edges": [[True, 2]]},
    ])
    def test_malformed_graph_is_config_error(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["model", "--graph", str(path), "--n", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad graph payload")

    @pytest.mark.parametrize("argv,payload,message", [
        (("tree-generators", "--graph", "{file}", "--n", "2"),
         {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]]},
         "applies to trees"),
        (("model", "--graph", "{file}", "--n", "2"),
         {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [2, 3]]},
         "connected graphs"),
        (("rep-stability", "--family", "{file}", "--n", "2", "--q", "1",
          "--window", "2..3"),
         {"kind": "wedge_fi", "base": {"vertices": [0], "edges": []},
          "summands": [{"graph": {"vertices": [0, 1],
                                  "edges": [[0, 1], [1, 1]]},
                        "summand_vertices": [0], "base_vertices": [0],
                        "summand_edges": [], "base_edges": []}]},
         "normalize loops"),
        (("rep-stability", "--family", "{file}", "--n", "2", "--q", "1",
          "--window", "2..3"),
         {"kind": "wedge_fi", "base": {"vertices": [0], "edges": []},
          "summands": [{"graph": {"vertices": [0, 1], "edges": [[0, 1]]},
                        "summand_vertices": [0, 1], "base_vertices": [0],
                        "summand_edges": [], "base_edges": []}]},
         "single vertex"),
        (("generation-check", "--family", "{file}", "--n", "2", "--q", "1",
          "--d", "1", "--K", "2"),
         {"kind": "nope", "base": {"vertices": [0], "edges": []},
          "summands": [{"graph": {"vertices": [0, 1], "edges": [[0, 1]]},
                        "summand_vertices": [0], "base_vertices": [0],
                        "summand_edges": [], "base_edges": []}]},
         "unknown family kind"),
    ], ids=["tree-check-on-a-cycle", "disconnected-graph", "looped-summand",
            "summand-side-without-an-edge", "unknown-family-kind"])
    def test_unusable_input_is_config_error(self, capsys, tmp_path, argv,
                                            payload, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main([str(path) if a == "{file}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert message in captured.err

    def test_family_with_malformed_summand_is_config_error(
            self, capsys, tmp_path, star_family):
        payload = family_to_payload(star_family)
        payload["summands"][0]["graph"]["edges"][0].append(0)
        path = tmp_path / "bad_family.json"
        path.write_text(json.dumps(payload))
        assert main(["rep-stability", "--family", str(path), "--n", "2",
                     "--q", "1", "--window", "2..3"]) == 2
        assert capsys.readouterr().err.startswith("error: bad graph payload")

    def test_backwards_window_is_config_error(self, capsys, star_family_file):
        assert main(["rep-stability", "--family", star_family_file,
                     "--n", "2", "--q", "1", "--window", "7..5"]) == 2
        assert capsys.readouterr().err == \
            "error: window start must not exceed its end\n"

    def test_backwards_poly_fit_window_is_config_error(self, capsys,
                                                       star_family_file):
        assert main(["poly-fit", "--family", star_family_file,
                     "--n", "2", "--q", "1", "--window", "7..3"]) == 2
        assert capsys.readouterr().err == \
            "error: window start must not exceed its end\n"

    def test_poly_fit_window_with_no_checked_size_is_exit_two(
            self, capsys, star_family_file):
        # degree + 1 sizes fix the polynomial and leave nothing to check
        assert main(["poly-fit", "--family", star_family_file, "--n", "2",
                     "--q", "1", "--window", "3..6", "--degree", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: window must cover")

    def test_rep_stability_rejects_product_families(self, capsys, tmp_path):
        from graphconf import Graph, SummandSpec, wedge_family
        point = Graph(vertices=(0,), edges=(), basepoint=0)
        segment = make_path_graph(1)
        fam = wedge_family(point, [SummandSpec(segment, (0,), (0,)),
                                   SummandSpec(segment, (0,), (0,))])
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(family_to_payload(fam)))
        assert main(["rep-stability", "--family", str(path), "--n", "2",
                     "--q", "1", "--window", "2..3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["interval", "circle"])
    def test_rep_stability_rejects_interval_and_circle_families(
            self, capsys, tmp_path, triangle, kind):
        # S_k acts on wedge families only; elsewhere there is no action
        from graphconf import circle_family, interval_family
        fam = (interval_family if kind == "interval" else circle_family)(triangle)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(family_to_payload(fam)))
        assert main(["rep-stability", "--family", str(path), "--n", "2",
                     "--q", "1", "--window", "2..3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_output_is_config_error(self, capsys, tmp_path,
                                               graph_file):
        out = tmp_path / "missing" / "report.json"
        assert main(["homology", "--graph", graph_file, "--n", "1",
                     "--q", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_budget_exceeded(self, capsys, graph_file):
        code = main(["model", "--graph", graph_file, "--n", "3",
                     "--budget", "5"])
        assert code == 3
        out = capsys.readouterr().out
        assert json.loads(out)["error"] == "budget-exceeded"

    def test_oracle_budget_exceeded(self, capsys, graph_file):
        code = main(["model", "--graph", graph_file, "--n", "3", "--oracle",
                     "--budget", "5"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == "budget-exceeded"

    def test_oracle_compare_keeps_the_budget_for_the_oracle(self, capsys,
                                                           graph_file):
        # star3 at n = 4: the model has 12,744 cells, the oracle 30,216
        assert main(["model", "--graph", graph_file, "--n", "4",
                     "--budget", "20000"]) == 0
        capsys.readouterr()
        code = main(["oracle-compare", "--graph", graph_file, "--n", "4",
                     "--budget", "20000"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "budget-exceeded"
        assert "oracle" in report["detail"]

    def test_raised_budget_keeps_wide_codes(self, capsys, graph_file):
        # a budget past 2^59 makes n = 2 model codes wider than 63 bits
        code = main(["model", "--graph", graph_file, "--n", "2",
                     "--budget", str(1 << 62)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total_cells"] == 144

    def test_tree_generators_keeps_the_budget(self, capsys, tmp_path):
        path = tmp_path / "star4.json"
        path.write_text(make_star(4).to_json())
        code = main(["tree-generators", "--graph", str(path), "--n", "3",
                     "--q", "1", "--budget", "10"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == "budget-exceeded"

    def test_failed_assertion_is_exit_one(self, capsys, tmp_path, triangle,
                                          interval):
        # glueing triangles along an edge falls outside the asserted bounds,
        # so the verdict at the requested degree is what the exit code tracks
        from graphconf import SummandSpec, wedge_family
        fam = wedge_family(interval, [SummandSpec(
            triangle, (0, 1), (0, 1), (0,), (0,))])
        path = tmp_path / "edge_glued.json"
        path.write_text(json.dumps(family_to_payload(fam)))
        code, rep = run_cli(capsys, "generation-check",
                            "--family", str(path),
                            "--n", "2", "--q", "1", "--d", "0", "--K", "2",
                            "--no-dmin-search")
        assert code == 1
        assert rep["asserted_bound"] is None
        assert rep["generates_over_Z"] is False

    @pytest.mark.parametrize("error", [
        CorruptedCharacterError("multiplicity of (2,) is not an integer"),
        KeyError("unexpected"),
    ])
    def test_internal_error_is_exit_four(self, capsys, monkeypatch,
                                         graph_file, error):
        def broken(config):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "homology", broken)
        code = main(["homology", "--graph", graph_file, "--n", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: ")
        assert type(error).__name__ in lines[0]


class TestGoldenReports:
    """Whole reports of the star family, byte for byte as printed."""

    @pytest.mark.parametrize("argv,golden", [
        (("generation-check", "--n", "2", "--q", "1", "--d", "4", "--K", "5"),
         "generation_check_star_family.json"),
        (("poly-fit", "--n", "2", "--q", "1", "--window", "3..7",
          "--degree", "3"),
         "poly_fit_star_family.json"),
        (("rep-stability", "--n", "2", "--q", "1", "--window", "3..7"),
         "rep_stability_star_family.json"),
    ], ids=["generation-check", "poly-fit", "rep-stability"])
    def test_report_is_unchanged(self, capsys, star_family_file, argv, golden):
        assert main([argv[0], "--family", star_family_file, *argv[1:]]) == 0
        assert matches_golden(capsys.readouterr().out, golden)


class TestPayloads:
    def test_graph_payload_round_trip(self, graph_file):
        from graphconf.cli import load_graph
        g = load_graph(graph_file)
        assert graph_to_payload(g) == json.loads(make_star(3).to_json())

    def test_family_payload_round_trip(self, tmp_path, star_family):
        from graphconf.cli import load_family
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family_to_payload(star_family)))
        loaded = load_family(str(path))
        assert loaded == star_family


SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "schemas")


def validate_against(report, schema_name):
    import jsonschema
    from referencing import Registry, Resource

    def load(name):
        with open(os.path.join(SCHEMA_DIR, name)) as fh:
            return json.load(fh)

    registry = Registry().with_resource(
        "graph.schema.json", Resource.from_contents(load("graph.schema.json")))
    schema = load(schema_name)
    jsonschema.Draft7Validator(schema, registry=registry).validate(report)


class TestSchemas:
    def test_graph_schema(self, graph_file):
        validate_against(json.loads(make_star(3).to_json()),
                         "graph.schema.json")

    def test_family_schema(self, star_family):
        validate_against(family_to_payload(star_family), "family.schema.json")

    def test_report_schemas(self, capsys, graph_file, star_family_file):
        cases = [
            (("model", "--graph", graph_file, "--n", "2"),
             "model_report.schema.json"),
            (("homology", "--graph", graph_file, "--n", "2", "--q", "1"),
             "homology_report.schema.json"),
            (("oracle-compare", "--graph", graph_file, "--n", "2"),
             "oracle_compare_report.schema.json"),
            (("generation-check", "--family", star_family_file,
              "--n", "2", "--q", "1", "--d", "3", "--K", "3"),
             "generation_report.schema.json"),
            (("tree-generators", "--graph", graph_file, "--n", "2",
              "--q", "1"), "tree_generators_report.schema.json"),
            (("rep-stability", "--family", star_family_file, "--n", "2",
              "--q", "1", "--window", "3..4"),
             "rep_stability_report.schema.json"),
            (("poly-fit", "--family", star_family_file, "--n", "2",
              "--q", "1", "--window", "3..6", "--degree", "2"),
             "poly_fit_report.schema.json"),
        ]
        for argv, schema in cases:
            code, rep = run_cli(capsys, *argv)
            assert code == 0, argv
            validate_against(rep, schema)
            if argv[0] == "rep-stability":
                stability = rep
        import jsonschema
        stability["per_k"][0]["route"] = "guess"
        with pytest.raises(jsonschema.ValidationError):
            validate_against(stability, "rep_stability_report.schema.json")
