import json
import os

import pytest

from graphconf import make_path_graph, make_star, build_model
from graphconf.cli import (
    ComplexCache,
    build_model_cached,
    cache_key,
    deserialize_complex,
    family_to_payload,
    graph_to_payload,
    main,
    serialize_complex,
)


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

    def test_rep_stability(self, capsys, star_family_file):
        code, rep = run_cli(capsys, "rep-stability",
                            "--family", star_family_file,
                            "--n", "2", "--q", "1", "--window", "4..5")
        assert code == 0
        assert rep["stable"] is True
        assert rep["window"] == [4, 5]

    def test_poly_fit(self, capsys, star_family_file):
        code, rep = run_cli(capsys, "poly-fit", "--family", star_family_file,
                            "--n", "2", "--q", "1", "--window", "3..6",
                            "--degree", "2", "--holdout", "1")
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

    def test_sinks_with_oracle_is_config_error(self, capsys, graph_file):
        assert main(["model", "--graph", graph_file, "--n", "2",
                     "--sinks", "0", "--oracle"]) == 2

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

    def test_backwards_window_is_config_error(self, capsys, star_family_file):
        assert main(["rep-stability", "--family", star_family_file,
                     "--n", "2", "--q", "1", "--window", "7..5"]) == 2

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

    def test_budget_exceeded(self, capsys, graph_file):
        code = main(["model", "--graph", graph_file, "--n", "3",
                     "--budget", "5"])
        assert code == 3
        out = capsys.readouterr().out
        assert json.loads(out)["error"] == "budget-exceeded"

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


class TestCache:
    def test_key_stability_and_version_salt(self):
        payload = {"graph": {"vertices": [0]}, "n": 2}
        assert cache_key(payload) == cache_key(json.loads(json.dumps(payload)))
        assert cache_key(payload) != cache_key({**payload, "n": 3})

    def test_distinct_ids_distinct_keys(self):
        g1 = make_star(3)
        g2 = make_star(3)
        relabeled = g2.to_json().replace("[0,1]", "[0,1]")  # identity guard
        assert cache_key({"g": json.loads(g1.to_json())}) == \
            cache_key({"g": json.loads(relabeled)})

    def test_round_trip_byte_identical(self, tmp_path):
        cx = build_model(make_star(3), 2)
        text = serialize_complex(cx)
        back = deserialize_complex(text)
        assert serialize_complex(back) == text
        assert back.f_vector() == cx.f_vector()
        for q in range(1, cx.top_dimension + 1):
            assert back.boundary(q) == cx.boundary(q)

    def test_cache_hit_matches_recompute(self, tmp_path):
        cache = ComplexCache(str(tmp_path))
        g = make_star(3)
        cx1, key, hit1 = build_model_cached(g, 2, cache=cache)
        cx2, key2, hit2 = build_model_cached(g, 2, cache=cache)
        assert key == key2 and not hit1 and hit2
        assert serialize_complex(cx1) == serialize_complex(cx2)
        on_disk = open(cache.path_for(key)).read()
        assert on_disk == serialize_complex(build_model(g, 2))

    def test_corrupt_entry_recomputed(self, tmp_path, capsys):
        cache = ComplexCache(str(tmp_path))
        g = make_star(3)
        _, key, _ = build_model_cached(g, 2, cache=cache)
        with open(cache.path_for(key), "w") as fh:
            fh.write("{not json")
        cx, _, hit = build_model_cached(g, 2, cache=cache)
        assert not hit
        assert cx.f_vector()[0] == 48

    def test_env_var_overrides_cache_dir(self, tmp_path, monkeypatch, capsys,
                                         graph_file):
        monkeypatch.setenv("GRAPHCONF_CACHE_DIR", str(tmp_path))
        code, rep = run_cli(capsys, "model", "--graph", graph_file, "--n", "2")
        assert code == 0 and not rep["cache_hit"]
        assert os.path.exists(os.path.join(str(tmp_path),
                                           rep["cache_key"] + ".json"))
        code, rep = run_cli(capsys, "model", "--graph", graph_file, "--n", "2")
        assert rep["cache_hit"]


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

    def test_cache_file_schema(self, tmp_path):
        cx = build_model(make_star(3), 2)
        validate_against(json.loads(serialize_complex(cx)),
                         "complex_cache.schema.json")
