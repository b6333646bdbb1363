"""Command line pipeline behavior and exit codes."""

import json

import pytest

from ratingsift.cli import main

from conftest import (
    REFERENCE_A_FEATURES,
    REFERENCE_B_FEATURES,
    attributes_for,
    business_line,
    review_line,
)


@pytest.fixture
def data_dir(tmp_path):
    """Business and review files for a four-restaurant corpus."""
    businesses = [
        business_line("ref_a", stars=4.0, attributes=attributes_for(REFERENCE_A_FEATURES)),
        business_line("ref_b", stars=2.5, attributes=attributes_for(REFERENCE_B_FEATURES)),
        business_line("other1", stars=3.0, attributes=attributes_for({"wifi", "hastv"})),
        business_line("other2", stars=3.5, attributes=attributes_for({"lot"})),
        business_line("garage9", stars=3.0, categories="Auto Repair"),
        "{malformed",
    ]
    texts = {
        1: "awful horrible experience with rude staff",
        3: "food was fine nothing special",
        5: "amazing wonderful delicious pasta great service",
    }
    reviews = []
    rid = 0
    for business_id in ("ref_a", "ref_b", "other1", "other2"):
        for stars, text in texts.items():
            for _ in range(2):
                reviews.append(review_line(f"r{rid:03d}", business_id, stars, text))
                rid += 1
    business_path = tmp_path / "business.json"
    business_path.write_text("\n".join(businesses) + "\n", encoding="utf-8")
    review_path = tmp_path / "review.json"
    review_path.write_text("\n".join(reviews) + "\n", encoding="utf-8")
    return tmp_path


def run_pipeline(data_dir, lexicon_file, workspace, through="compare"):
    steps = [
        ["ingest", "--business", str(data_dir / "business.json"),
         "--reviews", str(data_dir / "review.json"), "--workspace", str(workspace)],
        ["rank", "--workspace", str(workspace), "--cutoff", "0"],
        ["score", "--workspace", str(workspace), "--lexicon", str(lexicon_file), "--k", "10"],
        ["compare", "--workspace", str(workspace), "--a", "ref_a", "--b", "ref_b"],
    ]
    names = ["ingest", "rank", "score", "compare"]
    for name, argv in zip(names, steps):
        code = main(argv)
        assert code == 0, f"{name} exited {code}"
        if name == through:
            break


class TestPipeline:
    def test_full_run_produces_artifacts(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws)
        for name in ("businesses.jsonl", "reviews.jsonl", "ingest_summary.json",
                     "taxonomy.cfg", "ranked.csv", "feature_frequency.csv",
                     "topics.tsv", "cohort_scores.csv", "corpus_stats.json",
                     "manifest.json"):
            assert (ws / name).exists(), name

    def test_ingest_prints_summary_json(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert main(["ingest", "--business", str(data_dir / "business.json"),
                     "--reviews", str(data_dir / "review.json"),
                     "--workspace", str(ws)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["businesses"]["parsed"] == 4
        assert summary["businesses"]["skipped_malformed"] == 1
        assert summary["businesses"]["skipped_non_restaurant"] == 1
        assert summary["reviews"]["parsed"] == 24

    def test_compare_json_output(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        capsys.readouterr()
        assert main(["compare", "--workspace", str(ws),
                     "--a", "ref_a", "--b", "ref_b"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["id_a"] == "ref_a"
        assert sorted(report) == sorted([
            "id_a", "id_b", "stars_a", "stars_b", "common", "missing_a",
            "missing_b", "deficiency_a", "deficiency_b", "sentiment_a",
            "sentiment_b", "delta", "net", "verdict",
        ])
        assert report["deficiency_b"] == pytest.approx(4.1)
        assert report["missing_a"] == []

    def test_compare_text_output(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        capsys.readouterr()
        assert main(["compare", "--workspace", str(ws), "--a", "ref_a",
                     "--b", "ref_b", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "ref_a" in out and "ref_b" in out

    def test_custom_taxonomy_flag(self, data_dir, lexicon_file, tmp_path, capsys):
        from ratingsift import alcohol_amenity_taxonomy
        config = tmp_path / "variant.cfg"
        config.write_text(alcohol_amenity_taxonomy().dumps(), encoding="utf-8")
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        assert main(["rank", "--workspace", str(ws), "--cutoff", "0",
                     "--taxonomy", str(config)]) == 0
        assert main(["score", "--workspace", str(ws), "--lexicon",
                     str(lexicon_file), "--k", "10"]) == 0
        capsys.readouterr()
        assert main(["compare", "--workspace", str(ws),
                     "--a", "ref_a", "--b", "ref_b"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deficiency_b"] == pytest.approx(3.80)

    def test_rank_cutoff_limits_cohort(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        assert main(["rank", "--workspace", str(ws), "--cutoff", "2"]) == 0
        ranked = (ws / "ranked.csv").read_text(encoding="utf-8").splitlines()
        assert len(ranked) == 3  # header + two rows
        assert ranked[1].startswith("ref_a,")


class TestExitCodes:
    def test_rank_before_ingest_is_stale(self, tmp_path, capsys):
        assert main(["rank", "--workspace", str(tmp_path / "ws")]) == 2

    def test_score_before_rank_is_stale(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        assert main(["score", "--workspace", str(ws),
                     "--lexicon", str(lexicon_file)]) == 2

    def test_reingest_invalidates_downstream(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        assert main(["compare", "--workspace", str(ws),
                     "--a", "ref_a", "--b", "ref_b"]) == 2

    def test_missing_input_file(self, tmp_path):
        assert main(["ingest", "--business", str(tmp_path / "nope.json"),
                     "--reviews", str(tmp_path / "nope2.json"),
                     "--workspace", str(tmp_path / "ws")]) == 1

    def test_unknown_business_id(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        assert main(["compare", "--workspace", str(ws),
                     "--a", "ref_a", "--b", "ghost"]) == 1

    def test_id_with_leading_dash_in_equals_form(self, data_dir, lexicon_file, tmp_path, capsys):
        # Yelp ids may start with "-"; "--a=<id>" keeps argparse from reading a flag
        with open(data_dir / "business.json", "a", encoding="utf-8") as handle:
            handle.write(business_line("-dash", attributes=attributes_for({"wifi"})) + "\n")
        with open(data_dir / "review.json", "a", encoding="utf-8") as handle:
            handle.write(review_line("r-dash", "-dash", 5, "amazing pasta") + "\n")
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        capsys.readouterr()
        assert main(["compare", "--workspace", str(ws), "--a=-dash", "--b=ref_b"]) == 0
        assert json.loads(capsys.readouterr().out)["id_a"] == "-dash"

    def test_ingest_survives_deep_attribute_value(self, tmp_path, capsys):
        deep = "{'garage': " + "-" * 5000 + "1}"
        business = tmp_path / "business.json"
        business.write_text(
            business_line("deep", attributes={"BusinessParking": deep}) + "\n"
            + business_line("good", attributes=attributes_for({"wifi"})) + "\n",
            encoding="utf-8",
        )
        reviews = tmp_path / "review.json"
        reviews.write_text("", encoding="utf-8")
        assert main(["ingest", "--business", str(business), "--reviews", str(reviews),
                     "--workspace", str(tmp_path / "ws")]) == 0
        counts = json.loads(capsys.readouterr().out)["businesses"]
        assert (counts["parsed"], counts["attribute_fallbacks"]) == (2, 1)

    def test_ingest_counts_oversized_numbers(self, tmp_path, capsys):
        business = tmp_path / "business.json"
        business.write_text(
            business_line("good") + "\n"
            + business_line("huge", stars=10**400) + "\n"  # float() overflows
            # past the interpreter's digit limit for int()
            + '{"business_id": "long", "stars": 4, "name": 1' + "0" * 5000 + "}\n",
            encoding="utf-8",
        )
        reviews = tmp_path / "review.json"
        reviews.write_text(review_line("r1", "good", 10**400, "fine") + "\n", encoding="utf-8")
        assert main(["ingest", "--business", str(business), "--reviews", str(reviews),
                     "--workspace", str(tmp_path / "ws")]) == 0
        summary = json.loads(capsys.readouterr().out)
        businesses, reviews = summary["businesses"], summary["reviews"]
        assert (businesses["parsed"], businesses["skipped_malformed"]) == (1, 2)
        assert (reviews["parsed"], reviews["skipped_bad_stars"]) == (0, 1)

    @pytest.mark.parametrize("old,new,named", [
        (" wifi\n", "\n", "wifi"),
        ("features = alcohol", "features = alcohol dogsallowed", "dogsallowed"),
    ], ids=["drops_wifi", "adds_dogsallowed"])
    def test_rank_rejects_taxonomy_over_other_features(
        self, data_dir, lexicon_file, tmp_path, capsys, old, new, named
    ):
        from ratingsift import DEFAULT_TAXONOMY
        text = DEFAULT_TAXONOMY.dumps()
        assert old in text
        config = tmp_path / "custom.cfg"
        config.write_text(text.replace(old, new), encoding="utf-8")
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        before = {p: p.read_bytes() for p in sorted(ws.rglob("*"))}
        capsys.readouterr()
        assert main(["rank", "--workspace", str(ws), "--taxonomy", str(config)]) == 1
        assert named in capsys.readouterr().err
        assert {p: p.read_bytes() for p in sorted(ws.rglob("*"))} == before

    def test_rank_taxonomy_weight_zero_drops_feature(self, data_dir, lexicon_file, tmp_path):
        from ratingsift import DEFAULT_TAXONOMY
        config = tmp_path / "custom.cfg"
        config.write_text(
            DEFAULT_TAXONOMY.dumps().replace(" wifi\n", "\n")
            + "[ignored]\nweight = 0\nfeatures = wifi\n",
            encoding="utf-8",
        )
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        assert main(["rank", "--workspace", str(ws), "--cutoff", "0",
                     "--taxonomy", str(config)]) == 0
        rows = (ws / "ranked.csv").read_text(encoding="utf-8").splitlines()
        assert "other1,2,0.700000" in rows  # wifi and hastv; only hastv weighs

    def test_locked_workspace(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        (ws / ".lock").touch()
        assert main(["rank", "--workspace", str(ws)]) == 2

    def test_tampered_taxonomy(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        path = ws / "taxonomy.cfg"
        path.write_text(
            path.read_text(encoding="utf-8").replace("0.700000", "0.710000"),
            encoding="utf-8",
        )
        assert main(["compare", "--workspace", str(ws),
                     "--a", "ref_a", "--b", "ref_b"]) == 2

    def test_bad_flag_values(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        assert main(["rank", "--workspace", str(ws), "--cutoff", "-1"]) == 1
        assert main(["rank", "--workspace", str(ws)]) == 0
        assert main(["score", "--workspace", str(ws),
                     "--lexicon", str(lexicon_file), "--k", "0"]) == 1

    def test_usage_errors_are_input_errors(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["rank"]) == 1  # missing --workspace
        assert main(["compare", "--workspace", "x", "--a", "y", "--b", "z",
                     "--format", "yaml"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "ratingsift" in capsys.readouterr().out


class TestDeterminism:
    def test_rerun_is_byte_identical(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        first = {
            p.name: p.read_bytes() for p in sorted(ws.iterdir()) if p.is_file()
        }
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        second = {
            p.name: p.read_bytes() for p in sorted(ws.iterdir()) if p.is_file()
        }
        assert first == second

    def test_compare_output_stable(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        capsys.readouterr()
        assert main(["compare", "--workspace", str(ws), "--a", "ref_a", "--b", "ref_b"]) == 0
        first = capsys.readouterr().out
        assert main(["compare", "--workspace", str(ws), "--a", "ref_a", "--b", "ref_b"]) == 0
        assert capsys.readouterr().out == first
