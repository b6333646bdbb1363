"""Command line pipeline behavior and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratingsift import Workspace
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


# Every write of each stage, with the path property of the file it writes:
# the stage's artifacts, and for rank also its two manifest writes.
WRITES = [
    ("ingest", "write_businesses", "businesses_path"),
    ("ingest", "write_reviews", "reviews_path"),
    ("ingest", "write_ingest_summary", "ingest_summary_path"),
    ("rank", "begin_stage", "manifest_path"),
    ("rank", "write_taxonomy", "taxonomy_path"),
    ("rank", "write_ranked", "ranked_path"),
    ("rank", "write_frequency", "frequency_path"),
    ("rank", "record_stage", "manifest_path"),
    ("score", "write_topics", "topics_path"),
    ("score", "write_cohort_scores", "cohort_scores_path"),
    ("score", "write_corpus_stats", "corpus_stats_path"),
]


def pipeline_steps(data_dir, lexicon_file, workspace):
    """The argv of each command, in pipeline order."""
    return {
        "ingest": ["ingest", "--business", str(data_dir / "business.json"),
                   "--reviews", str(data_dir / "review.json"), "--workspace", str(workspace)],
        "rank": ["rank", "--workspace", str(workspace), "--cutoff", "0"],
        "score": ["score", "--workspace", str(workspace), "--lexicon", str(lexicon_file),
                  "--k", "10"],
        "compare": ["compare", "--workspace", str(workspace), "--a", "ref_a", "--b", "ref_b"],
    }


def run_pipeline(data_dir, lexicon_file, workspace, through="compare"):
    for name, argv in pipeline_steps(data_dir, lexicon_file, workspace).items():
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

    def test_reingest_leaves_only_its_own_entry(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        manifest = json.loads((ws / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest) == ["stages"]
        assert list(manifest["stages"]) == ["ingest"]

    def test_relative_lexicon_resolves_from_any_directory(
        self, data_dir, lexicon_file, tmp_path, monkeypatch
    ):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="rank")
        monkeypatch.chdir(lexicon_file.parent)
        assert main(["score", "--workspace", str(ws), "--lexicon", lexicon_file.name,
                     "--k", "10"]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["compare", "--workspace", str(ws), "--a", "ref_a", "--b", "ref_b"]) == 0

    def test_duplicate_review_counted_once(self, data_dir, lexicon_file, tmp_path, capsys):
        line = review_line("r-dup", "ref_a", 3, "zucchini")
        with open(data_dir / "review.json", "a", encoding="utf-8") as handle:
            handle.write(line + "\n" + line + "\n")
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        reviews = json.loads(capsys.readouterr().out)["reviews"]
        assert (reviews["parsed"], reviews["skipped_duplicate_id"]) == (26, 1)
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        n_docs = json.loads((ws / "corpus_stats.json").read_text(encoding="utf-8"))["n_docs"]
        rows = (ws / "topics.tsv").read_text(encoding="utf-8").splitlines()
        # term count 1, in one document: the weight is ln(N / 1)
        assert [row.split("\t")[3:] for row in rows if "\tzucchini\t" in row] == [
            ["zucchini", f"{math.log(n_docs):.6f}"]
        ]

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
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("command", ["rank", "score", "compare"])
    def test_missing_workspace_is_never_created(
        self, data_dir, lexicon_file, tmp_path, capsys, command
    ):
        ws = tmp_path / "typo" / "ws"
        assert main(pipeline_steps(data_dir, lexicon_file, ws)[command]) == 2
        assert "run ingest first" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()

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

    def test_edited_lexicon(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        text = lexicon_file.read_text(encoding="utf-8")
        lexicon_file.write_text(text.replace("great\t3", "great\t2"), encoding="utf-8")
        assert main(["compare", "--workspace", str(ws),
                     "--a", "ref_a", "--b", "ref_b"]) == 2
        assert str(lexicon_file) in capsys.readouterr().err

    @pytest.mark.parametrize("damage,command,named,rerun", [
        (lambda ws: _truncate_last_row(ws / "ranked.csv"),
         "score", "ranked.csv", "rank"),
        (lambda ws: _drop_key(ws / "corpus_stats.json", "df"),
         "compare", "corpus_stats.json", "score"),
        (lambda ws: (ws / "corpus_stats.json").unlink(),
         "compare", "corpus_stats.json", "score"),
        (lambda ws: _write_older_manifest(ws / "manifest.json"),
         "compare", "manifest.json", "ingest"),
        (lambda ws: _set_df(ws / "corpus_stats.json", lambda n_docs: -3),
         "compare", "corpus_stats.json", "score"),
        (lambda ws: _set_df(ws / "corpus_stats.json", lambda n_docs: 2 * n_docs),
         "compare", "corpus_stats.json", "score"),
    ], ids=["short_ranked_row", "stats_without_df", "stats_deleted", "older_manifest",
            "stats_df_negative", "stats_df_over_n_docs"])
    def test_damaged_workspace_names_the_file(
        self, data_dir, lexicon_file, tmp_path, capsys, damage, command, named, rerun
    ):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        damage(ws)
        capsys.readouterr()
        assert main(pipeline_steps(data_dir, lexicon_file, ws)[command]) == 2
        err = capsys.readouterr().err
        assert named in err and f"re-run {rerun}" in err

    @pytest.mark.parametrize("stage,writer,path", WRITES,
                             ids=[f"{stage}-{writer}" for stage, writer, _ in WRITES])
    def test_interrupted_write_is_never_claimed(
        self, data_dir, lexicon_file, tmp_path, monkeypatch, stage, writer, path
    ):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        original = getattr(Workspace, writer)

        def interrupted(self, *args):
            # the write stops halfway through its file
            original(self, *args)
            target = getattr(self, path)
            target.write_bytes(target.read_bytes()[:target.stat().st_size // 2])
            raise KeyboardInterrupt

        steps = pipeline_steps(data_dir, lexicon_file, ws)
        monkeypatch.setattr(Workspace, writer, interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(steps[stage])
        monkeypatch.undo()
        later = list(steps)[list(steps).index(stage) + 1:]
        assert {name: main(steps[name]) for name in later} == {name: 2 for name in later}

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

    def test_artifacts_identical_across_hash_seeds(self, data_dir, lexicon_file, tmp_path):
        # Each run is its own interpreter, so a set or dict order that
        # depends on string hashing would show up as a changed byte.
        src = Path(__file__).resolve().parent.parent / "src"
        runs = []
        for seed in ("0", "1"):
            ws = tmp_path / f"ws{seed}"
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            stdout = []
            for argv in pipeline_steps(data_dir, lexicon_file, ws).values():
                result = subprocess.run(
                    [sys.executable, "-m", "ratingsift.cli", *argv],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                assert result.returncode == 0, result.stderr
                stdout.append(result.stdout)
            artifacts = {
                p.name: p.read_bytes() for p in sorted(ws.iterdir()) if p.is_file()
            }
            runs.append((artifacts, stdout))
        assert runs[0] == runs[1]


def _truncate_last_row(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].split(",")[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_key(path, key):
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj[key]
    path.write_text(json.dumps(obj), encoding="utf-8")


def _set_df(path, df_of):
    """Give the first term of corpus_stats.json the df ``df_of(n_docs)``."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["df"][next(iter(obj["df"]))] = df_of(obj["n_docs"])
    path.write_text(json.dumps(obj), encoding="utf-8")


def _write_older_manifest(path):
    """Rewrite the manifest in the layout of earlier versions: settings at the
    top level, and only counters in the stage entries."""
    stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
    path.write_text(json.dumps({
        "tool_version": stages["ingest"]["tool_version"],
        "config_hash": stages["rank"]["config_hash"],
        "cutoff": stages["rank"]["cutoff"],
        "k": stages["score"]["k"],
        "lexicon_path": stages["score"]["lexicon_path"],
        "stages": {
            "ingest": {"businesses": stages["ingest"]["businesses"],
                       "reviews": stages["ingest"]["reviews"]},
            "rank": {"kept": stages["rank"]["kept"]},
            "score": {"documents": stages["score"]["documents"]},
        },
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
