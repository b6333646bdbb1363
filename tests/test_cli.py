"""Command line pipeline behavior and exit codes."""

import contextlib
import errno
import fcntl
import gc
import hashlib
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ratingsift import (
    DEFAULT_TAXONOMY, ReviewRecord, StarDocument, TopicProfile, Workspace,
    alcohol_amenity_taxonomy, cli,
)
from ratingsift import workspace as workspace_module
from ratingsift.cli import main
from ratingsift.workspace import STAGES

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
# write_reviews writes reviews.jsonl and then its index.
WRITES = [
    ("ingest", "write_businesses", "businesses_path"),
    ("ingest", "write_reviews", "reviews_path"),
    ("ingest", "write_reviews", "review_index_path"),
    ("rank", "begin_stage", "manifest_path"),
    ("rank", "write_taxonomy", "taxonomy_path"),
    ("rank", "write_ranked", "ranked_path"),
    ("rank", "write_frequency", "frequency_path"),
    ("rank", "record_stage", "manifest_path"),
    ("score", "write_topics", "topics_path"),
    ("score", "write_cohort_scores", "cohort_scores_path"),
    ("score", "write_corpus_stats", "corpus_stats_path"),
    ("score", "write_lexicon", "lexicon_path"),
]


# Each artifact a command writes, as (name, command). Ingest also writes the
# manifest before any other file.
WRITTEN = [(name, stage) for stage, names in STAGES.items() for name in names]


class _FullDisk:
    """Stands in for ``workspace._create``: the first write to the file
    ``name`` raises OSError(ENOSPC), as on a full disk. Other files pass
    through."""

    def __init__(self, name):
        self.name = name
        self.create = workspace_module._create  # the real one, before it is patched

    @contextlib.contextmanager
    def __call__(self, path, digests):
        with self.create(path, digests) as handle:
            yield self if path.name == self.name else handle

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    writelines = write


# Each command run to each exit code, from the stage run before it (or an
# empty workspace directory, held locked by another command for "locked"),
# with the flags changed from pipeline_steps. Ingest needs no earlier stage,
# so that lock is its one exit 2. Rank and score on a workspace without
# their stage exit 2 even with a bad flag: the stage is checked first.
RUN_SITE = {
    ("ingest", 0): (None, {}),
    ("ingest", 1): (None, {"--business": "no/such/business.json"}),
    ("ingest", 2): ("locked", {}),
    ("rank", 0): ("ingest", {}),
    ("rank", 1): ("ingest", {"--cutoff": "-1"}),
    ("rank", 2): ("mkdir", {"--cutoff": "-1"}),
    ("score", 0): ("rank", {}),
    ("score", 1): ("rank", {"--k": "0"}),
    ("score", 2): ("ingest", {"--k": "0"}),
    ("compare", 0): ("score", {}),
    ("compare", 1): ("score", {"--b": "no_such_id"}),
    ("compare", 2): ("rank", {}),
}


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


def changed_steps(data_dir, lexicon_file, workspace):
    """``pipeline_steps`` with settings that change what each stage writes:
    one business fewer, the variant taxonomy with cutoff 2, and k 1, which
    leaves only corpus_stats.json and lexicon.tsv as they were."""
    lines = (data_dir / "business.json").read_text(encoding="utf-8").splitlines(keepends=True)
    fewer = data_dir / "business_fewer.json"
    fewer.write_text("".join(line for line in lines if '"other1"' not in line),
                     encoding="utf-8")
    config = data_dir / "variant.cfg"
    config.write_text(alcohol_amenity_taxonomy().dumps(), encoding="utf-8")
    steps = pipeline_steps(data_dir, lexicon_file, workspace)
    steps["ingest"][2] = str(fewer)
    steps["rank"][-1:] = ["2", "--taxonomy", str(config)]
    steps["score"][-1] = "1"
    return steps


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
        assert sorted(p.name for p in ws.iterdir()) == sorted(
            [*(name for names in STAGES.values() for name in names), "manifest.json"])

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

    def test_compare_business_with_itself(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        capsys.readouterr()
        assert main(["compare", "--workspace", str(ws), "--a=ref_a", "--b=ref_a"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["id_a"], report["id_b"]) == ("ref_a", "ref_a")
        assert report["missing_a"] == report["missing_b"] == []
        assert report["deficiency_a"] == report["deficiency_b"]
        assert report["sentiment_a"] == report["sentiment_b"]
        assert report["sentiment_a"]  # ref_a has reviews at stars 1, 3 and 5
        assert report["net"] == 0
        assert report["verdict"] == "inconclusive"

    def test_custom_taxonomy_flag(self, data_dir, lexicon_file, tmp_path, capsys):
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

    @pytest.mark.parametrize("restaurants", [0, 2])
    def test_score_without_reviews_names_the_cause(
        self, lexicon_file, tmp_path, capsys, restaurants
    ):
        # Every review belongs to a business that is not a ranked restaurant,
        # so no star document exists to build corpus statistics from.
        businesses = [business_line(f"diner{i}") for i in range(restaurants)]
        businesses.append(business_line("garage9", categories="Auto Repair"))
        (tmp_path / "business.json").write_text("\n".join(businesses) + "\n", encoding="utf-8")
        (tmp_path / "review.json").write_text(
            review_line("r1", "garage9", 3, "fine") + "\n", encoding="utf-8")
        ws = tmp_path / "ws"
        run_pipeline(tmp_path, lexicon_file, ws, through="rank")
        capsys.readouterr()
        assert main(pipeline_steps(tmp_path, lexicon_file, ws)["score"]) == 1
        assert capsys.readouterr().err == (
            f"ratingsift: none of the {restaurants} ranked restaurants has a review; "
            "there is nothing to score\n"
        )
        assert "score" not in Workspace(ws).load_manifest()["stages"]

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

    def test_id_that_ranked_csv_cannot_hold_is_malformed(self, tmp_path, lexicon_file, capsys):
        # csv leaves "\r" bare before Python 3.13 and refuses NUL on 3.10
        ids = ["cr\rid", "nul\u0000id", "plain"]
        business = tmp_path / "business.json"
        business.write_text("".join(business_line(i) + "\n" for i in ids), encoding="utf-8")
        reviews = tmp_path / "review.json"
        reviews.write_text("".join(review_line(f"r{n}", i, 5, "great pasta") + "\n"
                                   for n, i in enumerate(ids)), encoding="utf-8")
        steps = pipeline_steps(tmp_path, lexicon_file, tmp_path / "ws")
        steps["compare"][-3:] = ["plain", "--b", "plain"]
        assert main(steps.pop("ingest")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["businesses"]["parsed"], summary["businesses"]["skipped_malformed"]) == (1, 2)
        assert (summary["reviews"]["parsed"],
                summary["reviews"]["skipped_unknown_business"]) == (1, 2)
        assert {name: main(argv) for name, argv in steps.items()} == dict.fromkeys(steps, 0)

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
        (" wifi\n", " wi%fi\n", "'wi%fi'"),
        ("[parking]", "[Food]\nweight = 1\nfeatures = wifi\n\n[parking]",
         "'food' appears more than once"),
        ("[amenities]", "[ ]", "category name ''"),
    ], ids=["drops_wifi", "adds_dogsallowed", "percent_in_name", "category_case_duplicate",
            "blank_category"])
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
        with Workspace(ws).lock():
            assert main(["rank", "--workspace", str(ws)]) == 2

    def test_killed_command_leaves_no_lock(self, data_dir, lexicon_file, tmp_path):
        # Ingest takes the lock before it opens its inputs, so once it has
        # opened a FIFO as its business file it holds the lock and blocks.
        # SIGKILL ends it there: the kernel drops the lock, and the stages
        # recorded before it are still whole.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        fifo = tmp_path / "business.fifo"
        os.mkfifo(fifo)
        argv = [*steps["ingest"][:2], str(fifo), *steps["ingest"][3:]]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        with subprocess.Popen([sys.executable, "-m", "ratingsift.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as child:
            try:
                writer = _open_fifo_writer(fifo, child)
                rank = main(steps["rank"])
            finally:
                child.kill()
                child.wait(timeout=30)
        os.close(writer)
        assert rank == 2
        assert child.returncode == -signal.SIGKILL
        assert main(steps["compare"]) == 0
        assert main(steps["ingest"]) == 0

    @pytest.mark.parametrize("command", ["ingest", "rank", "score", "compare"])
    def test_workspace_that_is_a_file(self, data_dir, lexicon_file, tmp_path, capsys, command):
        # The lock opens the workspace as a directory, so a regular file is
        # an input problem, not a workspace without stages, and is left alone.
        ws = tmp_path / "ws"
        ws.write_bytes(b"not a workspace\n")
        assert main(pipeline_steps(data_dir, lexicon_file, ws)[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ratingsift: ") and err.count("\n") == 1, err
        assert ws.read_bytes() == b"not a workspace\n"

    def test_edited_lexicon(self, data_dir, lexicon_file, tmp_path, capsys):
        # Compare scores with lexicon.tsv, the lexicon score used, so editing
        # or deleting the input lexicon changes nothing until score reruns.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        compare = pipeline_steps(data_dir, lexicon_file, ws)["compare"]
        capsys.readouterr()
        assert main(compare) == 0
        before = capsys.readouterr().out
        _replace(lexicon_file, "great\t3", "great\t2")
        assert main(compare) == 0
        assert capsys.readouterr().out == before
        lexicon_file.unlink()
        assert main(compare) == 0
        assert capsys.readouterr().out == before

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
        (lambda ws: _drop_record_digests(ws / "manifest.json"),
         "compare", "manifest.json", "ingest"),
        (lambda ws: _list_ingest_files(ws / "manifest.json"),
         "rank", "manifest.json", "ingest"),
        # Edits that still decode, and that only the recorded digests catch.
        (lambda ws: _delete_last_row(ws / "ranked.csv"),
         "score", "ranked.csv", "rank"),
        (lambda ws: _set_every_df(ws / "corpus_stats.json", lambda n_docs: n_docs),
         "compare", "corpus_stats.json", "score"),
        (lambda ws: _replace(ws / "taxonomy.cfg", "0.700000", "0.710000"),
         "compare", "taxonomy.cfg", "rank"),
        # parses to the same taxonomy, but is not the bytes rank wrote
        (lambda ws: _replace(ws / "taxonomy.cfg", "weight = ", "weight =  "),
         "compare", "taxonomy.cfg", "rank"),
        # Nested past the interpreter's recursion limit.
        (lambda ws: (ws / "manifest.json").write_text("[" * 100_000, encoding="utf-8"),
         "rank", "manifest.json", "ingest"),
        (lambda ws: _append(ws / "reviews.jsonl", '{"business_id":"ref_a","x":' + "[" * 100_000),
         "compare", "reviews.jsonl", "ingest"),
        # Records in the layout of earlier versions, under a matching digest.
        (lambda ws: _write_older_layout(ws, "businesses.jsonl"),
         "rank", "businesses.jsonl", "ingest"),
        (lambda ws: _write_older_layout(ws, "businesses.jsonl"),
         "compare", "businesses.jsonl", "ingest"),
        (lambda ws: _write_older_layout(ws, "businesses.jsonl", 1),
         "rank", "businesses.jsonl", "ingest"),
        (lambda ws: _write_older_layout(ws, "businesses.jsonl", 1),
         "compare", "businesses.jsonl", "ingest"),
        (lambda ws: _write_older_layout(ws, "reviews.jsonl"),
         "score", "reviews.jsonl", "ingest"),
        (lambda ws: _write_older_layout(ws, "reviews.jsonl"),
         "compare", "reviews.jsonl", "ingest"),
        (lambda ws: _add_tool_version(ws / "manifest.json"), "rank", "manifest.json", "ingest"),
        (lambda ws: _replace(ws / "lexicon.tsv", "great\t3", "great\t2"),
         "compare", "lexicon.tsv", "score"),
        # A deleted file, before each command that reads it.
        *[(lambda ws, name=name: (ws / name).unlink(), command, name, rerun)
          for command, name, rerun in [
              ("rank", "businesses.jsonl", "ingest"),
              ("score", "ranked.csv", "rank"), ("score", "reviews.jsonl", "ingest"),
              ("compare", "taxonomy.cfg", "rank"), ("compare", "lexicon.tsv", "score"),
              ("compare", "businesses.jsonl", "ingest"), ("compare", "reviews.jsonl", "ingest"),
          ]],
        # Compare reads score's k as its topic count: an int, not a bool, of at least 1.
        *[(lambda ws, k=k: _set_k(ws / "manifest.json", k), "compare", "manifest.json", "ingest")
          for k in ["5", None, 1.5, 0, -1, True]],
        # Compare reads reviews.jsonl through reviews.idx: the index is hashed
        # whole, the record file's size and the pair's lines are checked.
        (lambda ws: _edit_text_in_place(ws / "reviews.jsonl", "ref_a"),
         "compare", "reviews.jsonl", "ingest"),
        (lambda ws: _edit_text_in_place(ws / "reviews.jsonl", "ref_b", last=True),
         "compare", "reviews.jsonl", "ingest"),
        (lambda ws: _delete_last_row(ws / "reviews.jsonl"), "compare", "reviews.jsonl", "ingest"),
        (lambda ws: _append(ws / "reviews.jsonl", '{"business_id":"other1","stars":5,"text":"x"}'),
         "compare", "reviews.jsonl", "ingest"),
        (lambda ws: _flip_index_digest(ws / "reviews.idx", "other2"),
         "compare", "reviews.idx", "ingest"),
        (lambda ws: _replace(ws / "reviews.idx", "reviews.jsonl ", "reviews.jsonl 1"),
         "compare", "reviews.idx", "ingest"),
        (lambda ws: _append(ws / "reviews.idx", '"ghost" 0 0,1'),
         "compare", "reviews.idx", "ingest"),
        (lambda ws: _set_file_digest(ws / "manifest.json", "reviews.idx", "0" * 64),
         "compare", "reviews.idx", "ingest"),
        (lambda ws: (ws / "reviews.idx").unlink(), "compare", "reviews.idx", "ingest"),
    ], ids=["short_ranked_row", "stats_without_df", "stats_deleted", "older_manifest",
            "stats_df_negative", "stats_df_over_n_docs", "manifest_without_digests",
            "manifest_files_as_list", "ranked_row_deleted", "stats_every_df_n",
            "taxonomy_weight_edited", "taxonomy_whitespace_edited",
            "manifest_deeply_nested", "review_deeply_nested",
            "older_business_layout_rank", "older_business_layout_compare",
            "named_business_layout_rank", "named_business_layout_compare",
            "older_review_layout_score", "older_review_layout_compare",
            "manifest_with_tool_version", "lexicon_edited",
            "businesses_deleted_rank", "ranked_deleted_score", "reviews_deleted_score",
            "taxonomy_deleted_compare", "lexicon_deleted_compare",
            "businesses_deleted_compare", "reviews_deleted_compare",
            "k_string", "k_null", "k_float", "k_zero", "k_negative", "k_true",
            "pair_review_same_length_edit", "pair_last_review_same_length_edit",
            "reviews_truncated", "reviews_appended", "review_index_digest_edited",
            "review_index_size_edited", "review_index_line_added",
            "review_index_manifest_digest_edited", "review_index_deleted_compare"])
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

    @pytest.mark.parametrize("kind", ["fifo", "directory", "symlink_to_directory"])
    @pytest.mark.parametrize("name,command", [
        ("reviews.jsonl", "score"), ("reviews.jsonl", "compare"), ("reviews.idx", "compare"),
        ("businesses.jsonl", "rank"),
        ("manifest.json", "rank"), ("manifest.json", "compare"),
        *WRITTEN, ("manifest.json", "ingest"),
    ])
    def test_workspace_file_that_is_not_regular(
        self, data_dir, lexicon_file, tmp_path, kind, name, command
    ):
        # A FIFO must not block the command, which holds the lock while it
        # reads or writes, and a directory is no "input problem": each is a
        # broken workspace (exit 2) named in the message. Each command is its
        # own process, so a blocked one is killed at the timeout and fails here.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        (ws / name).unlink()
        if kind == "fifo":
            os.mkfifo(ws / name)
        elif kind == "directory":
            (ws / name).mkdir()
        else:
            (tmp_path / "elsewhere").mkdir()
            (ws / name).symlink_to(tmp_path / "elsewhere")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "ratingsift.cli",
             *pipeline_steps(data_dir, lexicon_file, ws)[command]],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 2, result.stderr
        assert f"{name} is not a regular file" in result.stderr

    @pytest.mark.parametrize("name,command", [*WRITTEN, ("manifest.json", "ingest")])
    def test_dangling_symlink_is_written_through(
        self, data_dir, lexicon_file, tmp_path, name, command
    ):
        # A symlink to nowhere in place of a file the command writes is not
        # refused: the write creates the link's target with the file's bytes.
        runs = {}
        for side in ("reference", "linked"):
            ws = tmp_path / side
            run_pipeline(data_dir, lexicon_file, ws, through="score")
            if side == "linked":
                (ws / name).unlink()
                (ws / name).symlink_to(tmp_path / "target")
            assert main(pipeline_steps(data_dir, lexicon_file, ws)[command]) == 0
            runs[side] = ws
        assert (runs["linked"] / name).is_symlink()
        assert (tmp_path / "target").read_bytes() == (runs["reference"] / name).read_bytes()

    @pytest.mark.parametrize("name,command", [("topics.tsv", "rank"), ("ranked.csv", "ingest")])
    def test_directory_where_a_stage_deletes_a_later_file(
        self, data_dir, lexicon_file, tmp_path, capsys, name, command
    ):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        (ws / name).unlink()
        (ws / name).mkdir()
        capsys.readouterr()
        assert main(pipeline_steps(data_dir, lexicon_file, ws)[command]) == 2
        err = capsys.readouterr().err
        assert f"{name} is not a regular file; remove it and re-run {command}" in err

    @pytest.mark.parametrize("kind", ["directory", "file"])
    def test_unlink_refused_with_eperm_as_on_macos(
        self, data_dir, lexicon_file, tmp_path, capsys, monkeypatch, kind
    ):
        # macOS refuses to unlink a directory with EPERM, not EISDIR: a
        # directory where rank deletes a later file still exits 2 naming it,
        # and an EPERM on a regular file is an error of its own (exit 1).
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        if kind == "directory":
            (ws / "topics.tsv").unlink()
            (ws / "topics.tsv").mkdir()
        unlink = os.unlink

        def refusing_unlink(path, *args, **kwargs):
            if os.path.basename(path) == "topics.tsv":
                raise PermissionError(errno.EPERM, os.strerror(errno.EPERM), str(path))
            return unlink(path, *args, **kwargs)

        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(os, "unlink", refusing_unlink)
            code = main(pipeline_steps(data_dir, lexicon_file, ws)["rank"])
        err = capsys.readouterr().err
        if kind == "directory":
            assert code == 2
            assert "topics.tsv is not a regular file; remove it and re-run rank" in err
        else:
            assert code == 1 and os.strerror(errno.EPERM) in err

    @pytest.mark.parametrize("name,command", WRITTEN)
    def test_failed_write_exits_1_and_is_never_claimed(
        self, data_dir, lexicon_file, tmp_path, capsys, monkeypatch, name, command
    ):
        # A full disk fails the command with exit 1, naming the error, and
        # the manifest never claims its stage, so the next command exits 2.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(workspace_module, "_create", _FullDisk(name))
            assert main(steps[command]) == 1
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        order = list(steps)
        assert main(steps[order[order.index(command) + 1]]) == 2
        assert f"no completed {command!r} stage" in capsys.readouterr().err

    def test_failed_profile_is_never_claimed(
        self, data_dir, lexicon_file, tmp_path, capsys, monkeypatch
    ):
        # Score profiles its documents after begin_stage, as topics.tsv is
        # written, so a document that fails to profile fails the stage
        # like a failed write, and leaves rank's artifacts as they were.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        ranked = {name: (ws / name).read_bytes() for name in STAGES["rank"]}
        build_topic_profiles = cli.build_topic_profiles
        profiled = []

        def failing_third(documents, *args, **kwargs):
            profiled.extend(documents)
            if len(profiled) == 3:
                raise ValueError("third document")
            return build_topic_profiles(documents, *args, **kwargs)

        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_topic_profiles", failing_third)
            assert main(steps["score"]) == 1
        assert "third document" in capsys.readouterr().err
        assert len(profiled) == 3
        assert "score" not in Workspace(ws).load_manifest()["stages"]
        assert main(steps["compare"]) == 2
        assert "no completed 'score' stage" in capsys.readouterr().err
        assert {name: (ws / name).read_bytes() for name in STAGES["rank"]} == ranked

    def test_score_reads_no_taxonomy(self, data_dir, lexicon_file, tmp_path, capsys):
        # Score's output depends only on ranked.csv, reviews.jsonl and the
        # lexicon; compare, which reads taxonomy.cfg, catches its edit.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        written = {name: (ws / name).read_bytes() for name in STAGES["score"]}
        for name in STAGES["score"]:
            (ws / name).unlink()
        _replace(ws / "taxonomy.cfg", "weight = ", "weight =  ")
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        assert main(steps["score"]) == 0
        assert {name: (ws / name).read_bytes() for name in STAGES["score"]} == written
        capsys.readouterr()
        assert main(steps["compare"]) == 2
        err = capsys.readouterr().err
        assert "taxonomy.cfg" in err and "re-run rank" in err

    @pytest.mark.parametrize("name,command", [
        ("reviews.jsonl", "rank"), ("reviews.idx", "rank"), ("reviews.idx", "score"),
        ("feature_frequency.csv", "score"),
        ("topics.tsv", "compare"), ("cohort_scores.csv", "compare"),
        ("ranked.csv", "compare"), ("feature_frequency.csv", "compare"),
    ])
    def test_deleted_file_the_command_does_not_read(
        self, data_dir, lexicon_file, tmp_path, capsys, name, command
    ):
        # A command depends only on the manifest and the files it reads, so
        # deleting any other file leaves its exit code and stdout as they were.
        ws = tmp_path / "ws"
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        order = list(steps)
        run_pipeline(data_dir, lexicon_file, ws, through=order[order.index(command) - 1])
        capsys.readouterr()
        assert main(steps[command]) == 0
        before = capsys.readouterr().out
        (ws / name).unlink()
        assert main(steps[command]) == 0
        assert capsys.readouterr().out == before

    @pytest.mark.parametrize("name,command", [
        ("reviews.jsonl", "compare"), ("reviews.jsonl", "score"),
        ("businesses.jsonl", "rank"), ("businesses.jsonl", "compare"),
    ])
    @pytest.mark.parametrize("edit", [lambda path: _edit_other1(path),
                                      lambda path: _merge_other1(path)],
                             ids=["valid_edit", "merged_lines"])
    def test_edited_record_file_outside_the_cohort(
        self, data_dir, lexicon_file, tmp_path, capsys, name, command, edit
    ):
        # Cutoff 2 keeps the compared pair, so every command but rank skips
        # the lines of other1; only the ingest digest can catch their edit.
        ws = tmp_path / "ws"
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        steps["rank"][-1] = "2"
        for step in ("ingest", "rank", "score"):
            assert main(steps[step]) == 0
        assert Workspace(ws).read_ranked()[1].business_id == "ref_b"
        edit(ws / name)
        capsys.readouterr()
        assert main(steps[command]) == 2
        err = capsys.readouterr().err
        assert name in err and "re-run ingest" in err

    @pytest.mark.parametrize("business_id", ["other1", "other2"])
    def test_same_length_edit_outside_the_pair(
        self, data_dir, lexicon_file, tmp_path, capsys, business_id
    ):
        # Compare reads, of reviews.jsonl, only the pair's lines, which the
        # index places and hashes, and the file's size. An edit of the same
        # length to another business's line leaves its exit code and stdout
        # as they were; score, which reads the whole file, catches it.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        capsys.readouterr()
        assert main(steps["compare"]) == 0
        before = capsys.readouterr().out
        size = (ws / "reviews.jsonl").stat().st_size
        _edit_text_in_place(ws / "reviews.jsonl", business_id)
        assert (ws / "reviews.jsonl").stat().st_size == size
        assert main(steps["compare"]) == 0
        assert capsys.readouterr().out == before
        assert main(steps["score"]) == 2
        assert "reviews.jsonl changed since ingest; re-run ingest" in capsys.readouterr().err

    def test_compares_share_the_lock(self, data_dir, lexicon_file, tmp_path, capsys):
        # Compare writes nothing, so it takes the lock shared: it runs while
        # another compare holds it, and a stage still cannot.
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        steps = pipeline_steps(data_dir, lexicon_file, ws)
        with Workspace(ws).lock(shared=True):
            assert main(steps["compare"]) == 0
            assert main(steps["rank"]) == 2
        assert "locked by another command" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,writer,path", WRITES, ids=[
        f"{stage}-{writer}" + ("-index" if path == "review_index_path" else "")
        for stage, writer, path in WRITES
    ])
    def test_interrupted_write_is_never_claimed(
        self, data_dir, lexicon_file, tmp_path, monkeypatch, stage, writer, path
    ):
        # Two faults. A rerun with the same settings stops halfway through its
        # file. A rerun that writes other bytes stops once it has overwritten
        # part of the old file: new bytes up to past their first difference,
        # then the old file's tail, which writing in place leaves behind.
        original = getattr(Workspace, writer)
        faults = [
            ("same", pipeline_steps, lambda new, old: new[:len(new) // 2]),
            ("changed", changed_steps, _new_prefix_old_tail),
        ]
        for name, make_steps, fault in faults:
            ws = tmp_path / name
            run_pipeline(data_dir, lexicon_file, ws, through="score")

            def interrupted(self, *args):
                target = getattr(self, path)
                old = target.read_bytes()
                original(self, *args)
                target.write_bytes(fault(target.read_bytes(), old))
                raise KeyboardInterrupt

            steps = make_steps(data_dir, lexicon_file, ws)
            monkeypatch.setattr(Workspace, writer, interrupted)
            with pytest.raises(KeyboardInterrupt):
                main(steps[stage])
            monkeypatch.undo()
            later = list(steps)[list(steps).index(stage) + 1:]
            assert {step: main(steps[step]) for step in later} == {step: 2 for step in later}, name

    def test_bad_flag_values(self, data_dir, lexicon_file, tmp_path):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="ingest")
        assert main(["rank", "--workspace", str(ws), "--cutoff", "-1"]) == 1
        assert main(["rank", "--workspace", str(ws)]) == 0
        assert main(["score", "--workspace", str(ws),
                     "--lexicon", str(lexicon_file), "--k", "0"]) == 1

    @pytest.mark.parametrize("command,code", RUN_SITE, ids=[f"{c}-{x}" for c, x in RUN_SITE])
    def test_output_follows_the_lock(
        self, data_dir, lexicon_file, tmp_path, monkeypatch, command, code
    ):
        ws = tmp_path / "ws"
        before, flags = RUN_SITE[command, code]
        if before in ("mkdir", "locked"):
            ws.mkdir()
        elif before is not None:
            run_pipeline(data_dir, lexicon_file, ws, through=before)
        argv = pipeline_steps(data_dir, lexicon_file, ws)[command]
        for flag, value in flags.items():
            argv[argv.index(flag) + 1] = value
        stdout = _StdoutAfterLock(ws)
        monkeypatch.setattr(sys, "stdout", stdout)
        with Workspace(ws).lock() if before == "locked" else contextlib.nullcontext():
            assert main(argv) == code
        assert not _locked(ws)
        assert bool(stdout.written) == (code == 0)

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

    def test_shrinking_reruns_leave_no_stale_tail(self, data_dir, lexicon_file, tmp_path, capsys):
        # Writers overwrite in place, so each file below is rewritten shorter
        # than it was: fewer reviews, a smaller cohort, then fewer topics.
        # Rank deletes score's files, so only a second score run rewrites them.
        lines = (data_dir / "review.json").read_text(encoding="utf-8").splitlines(keepends=True)
        fewer = data_dir / "review_fewer.json"
        fewer.write_text("".join(lines[::2]), encoding="utf-8")

        def run(ws, reviews, cutoff, *ks):
            steps = pipeline_steps(data_dir, lexicon_file, ws)
            steps["ingest"][4] = str(reviews)
            steps["rank"][-1] = cutoff
            runs = [steps["ingest"], steps["rank"]] + [steps["score"][:-1] + [k] for k in ks]
            assert [main(argv) for argv in runs] == [0] * len(runs)
            return {p.name: p.read_bytes() for p in sorted(ws.iterdir()) if p.is_file()}

        ws = tmp_path / "ws"
        before = run(ws, data_dir / "review.json", "0", "50")
        rerun = run(ws, fewer, "2", "50", "1")
        fresh = run(tmp_path / "fresh", fewer, "2", "1")
        assert all(len(fresh[name]) < len(before[name]) for name in
                   ("reviews.jsonl", "ranked.csv", "topics.tsv", "manifest.json"))
        assert rerun == fresh

    def test_compare_output_stable(self, data_dir, lexicon_file, tmp_path, capsys):
        ws = tmp_path / "ws"
        run_pipeline(data_dir, lexicon_file, ws, through="score")
        capsys.readouterr()
        assert main(["compare", "--workspace", str(ws), "--a", "ref_a", "--b", "ref_b"]) == 0
        first = capsys.readouterr().out
        assert main(["compare", "--workspace", str(ws), "--a", "ref_a", "--b", "ref_b"]) == 0
        assert capsys.readouterr().out == first

    def test_artifacts_identical_across_hash_seeds(self, data_dir, lexicon_file, tmp_path, capsys):
        # Each run is its own interpreter, so a set or dict order that
        # depends on string hashing would show up as a changed byte. The
        # in-process run is the reference: a spawned command goes through
        # entrypoint, and must exit, print and write as main does, a failed
        # compare (unknown --b) included.
        src = Path(__file__).resolve().parent.parent / "src"

        def outcomes(ws, run):
            steps = pipeline_steps(data_dir, lexicon_file, ws)
            unknown_b = steps["compare"][:-1] + ["no_such_id"]
            results = [run(argv) for argv in (*steps.values(), unknown_b)]
            artifacts = {p.name: p.read_bytes() for p in sorted(ws.iterdir()) if p.is_file()}
            return artifacts, results

        def in_process(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def spawned(seed):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}

            def run(argv):
                result = subprocess.run(
                    [sys.executable, "-m", "ratingsift.cli", *argv],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                return result.returncode, result.stdout, result.stderr
            return run

        reference = outcomes(tmp_path / "in-process", in_process)
        codes, _, errors = zip(*reference[1])
        assert codes == (0, 0, 0, 0, 1)
        assert errors[-1] == "ratingsift: unknown business id: no_such_id\n"
        for seed in ("0", "1"):
            assert outcomes(tmp_path / f"ws{seed}", spawned(seed)) == reference

    def test_golden_bytes(self, data_dir, lexicon_file, tmp_path, capsys):
        # Reruns only show that the writers are deterministic; these digests
        # pin the bytes themselves, those of the artifacts from before the
        # writers stopped going through csv and json.dump. The manifest holds
        # no path, so it is pinned too: each stage's counters, settings and
        # file digests.
        ws = tmp_path / "ws"
        digests = {}
        for name, argv in pipeline_steps(data_dir, lexicon_file, ws).items():
            assert main(argv) == 0, name
            digests[f"{name} stdout"] = _sha256(capsys.readouterr().out.encode("utf-8"))
        for name in GOLDEN_FILES:
            digests[name] = _sha256((ws / name).read_bytes())
        # The manifest of the versions before reviews.idx: it differs only by
        # the index's digest.
        manifest = json.loads((ws / "manifest.json").read_bytes())
        del manifest["stages"]["ingest"]["files"]["reviews.idx"]
        digests["manifest.json without reviews.idx"] = _sha256(
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
        assert digests == GOLDEN


GOLDEN_FILES = ("businesses.jsonl", "reviews.jsonl", "reviews.idx", "taxonomy.cfg", "ranked.csv",
                "feature_frequency.csv", "topics.tsv", "cohort_scores.csv", "corpus_stats.json",
                "lexicon.tsv", "manifest.json")
GOLDEN = {
    "ingest stdout": "6b772b275851d633ca442ef5874538b392520c2584baae0ae849396d933e4511",
    "rank stdout": "df46c02368691db9a33ce150665c5b36eaf12f04686bc28a3c5a5903e13f53af",
    "score stdout": "d1c8ba1c78c6f4969aebd0c9eb675fee3bf060eb8ea793f97f264d0589d18257",
    # Deficiencies are exact decimal sums, so one digest holds on every version.
    "compare stdout": "470b35491064a9443524f9ff5944c25f9fd5fb6c258a5576e07b45e924b9a1a1",
    "businesses.jsonl": "2579d63e1e8a72f7bb0e5dabe3da4bcaa4ed19f28358abd5ad7f9bb7cfa53d93",
    "reviews.jsonl": "88f864290328f40c944cff27038f09119d7b80d9d1874911cb0b509b5e2985f9",
    "taxonomy.cfg": "d9b0958ba1666d0c230c9446b00059996dcee389418becde2bf1739ade161f72",
    "ranked.csv": "b1d84af2ffbc9e349c0de1c330ca7557f09e44f3fcd832dd8bf44aeb221929e0",
    "feature_frequency.csv": "f7f3b904fdba6b0ab2aa257105830750b8736ab7622778ff15551f8d65575bd2",
    "topics.tsv": "8debdcc078d9fba70187269fa003aa304e44e56670c49b38ead147f8a6183af3",
    "cohort_scores.csv": "3b090a03b27e1b068145a39e648518ec7ac332b03414cfa2855f8f9248e896ff",
    "corpus_stats.json": "7602a166f88a4198c5a636af54ec6dfddff34a142846d95102fbfba7afc9cc97",
    "lexicon.tsv": "8b88c90b82a46511ee142b85f02241418362c8c11cfd710cc4f8b9a5fe0745c8",
    "reviews.idx": "78bab66e4ff6454440712d2155f4d3e87d21796077285e65a0b189b5c24a632b",
    "manifest.json": "a948db7589bf698ebfc33618cf46141a5b0dd486895e4508a61095ed0e019386",
    "manifest.json without reviews.idx":
        "ae292aa8c532eadba399a52f7866fae653831b7c5bec3a46c424d1e2a0dcddf6",
}


class _StdoutAfterLock:
    """A stdout that fails any write made while workspace ``root`` is locked."""

    def __init__(self, root):
        self.root = root
        self.written = []

    def write(self, text):
        assert not _locked(self.root), "stdout written while the lock was held"
        self.written.append(text)
        return len(text)


def _locked(root):
    """Whether some open file holds the ``flock`` of directory ``root``;
    within one process too, as each ``os.open`` gets its own lock."""
    fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return True
    finally:
        os.close(fd)
    return False


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _open_fifo_writer(fifo, child, timeout=30.0):
    """Open ``fifo`` for writing without blocking; that succeeds only once
    ``child`` has opened it for reading."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
        assert child.poll() is None, child.stderr.read().decode()
        assert time.monotonic() < deadline, f"{fifo} was not opened within {timeout} s"
        time.sleep(0.01)


def test_score_frees_reviews_before_profiling(data_dir, lexicon_file, tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    run_pipeline(data_dir, lexicon_file, ws, through="rank")
    read, freed = [], []
    read_reviews = Workspace.read_reviews
    build_topic_profiles = cli.build_topic_profiles

    # A named tuple takes no weak reference, so a finalizer counts the frees.
    class FreedReview(ReviewRecord):
        __slots__ = ()

        def __del__(self):
            freed.append(1)

    def tracked_read(self, *args, **kwargs):
        records = read_reviews(self, *args, **kwargs)
        read.append(len(records))
        return records

    def profile_after_free(*args, **kwargs):
        assert len(freed) == sum(read) > 0, "reviews still alive"
        return build_topic_profiles(*args, **kwargs)

    monkeypatch.setattr("ratingsift.workspace.ReviewRecord", FreedReview)
    monkeypatch.setattr(Workspace, "read_reviews", tracked_read)
    monkeypatch.setattr(cli, "build_topic_profiles", profile_after_free)
    assert main(pipeline_steps(data_dir, lexicon_file, ws)["score"]) == 0


def test_score_frees_each_profile_once_its_rows_are_written(
        data_dir, lexicon_file, tmp_path, monkeypatch):
    # write_topics reads each profile's topics first, so reading them marks
    # the moment it takes that profile.
    ws = tmp_path / "ws"
    run_pipeline(data_dir, lexicon_file, ws, through="rank")
    freed_documents, freed_profiles, had_topics = [], [], []

    class FreedDocument(StarDocument):
        __slots__ = ()

        def __del__(self):
            freed_documents.append(1)

    class FreedProfile(TopicProfile):
        __slots__ = ()

        def __del__(self):
            if self[2]:  # the copies without topics are kept for cohort_scores
                freed_profiles.append(1)

        @property
        def topics(self):
            assert len(freed_documents) >= len(had_topics), "an earlier document is alive"
            assert len(freed_profiles) == sum(had_topics), "an earlier profile is alive"
            had_topics.append(bool(self[2]))
            return self[2]

    monkeypatch.setattr("ratingsift.sentiment.StarDocument", FreedDocument)
    monkeypatch.setattr("ratingsift.sentiment.TopicProfile", FreedProfile)
    assert main(pipeline_steps(data_dir, lexicon_file, ws)["score"]) == 0
    assert len(had_topics) == len(freed_documents) == 12
    assert sum(had_topics) > 1


def test_entrypoint_freezes_only_after_main(data_dir, lexicon_file, tmp_path, monkeypatch):
    # The process entry point freezes what is left once main returns, so
    # shutdown's collections skip it. main itself, which tests and the demos
    # run in-process, never freezes.
    before = gc.get_freeze_count()
    run_pipeline(data_dir, lexicon_file, tmp_path / "ws")
    assert gc.get_freeze_count() == before

    seen = []

    def stand_in():
        seen.append(gc.get_freeze_count())
        return 2

    monkeypatch.setattr(cli, "main", stand_in)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.entrypoint()
        assert exited.value.code == 2
        assert seen == [before]
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()


def test_cli_import_reads_configs_by_path():
    # The shipped taxonomies are read from the package directory, so
    # importing the CLI pulls in none of importlib.resources' machinery.
    # -S: site, which may import importlib.resources itself, is not run.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, ratingsift.cli; "
             "print(sorted(m for m in ('importlib.resources', 'tempfile', 'zipfile') "
             "if m in sys.modules))")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_cli_import_loads_no_dataclasses():
    # Every command is a short process that pays for its imports; dataclasses
    # alone pulls in inspect, ast and dis. Measured against the bare
    # interpreter, so modules an environment's site imports do not count.
    src = Path(__file__).resolve().parent.parent / "src"

    def loaded(statement):
        result = subprocess.run(
            [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    added = loaded("import ratingsift.cli") - loaded("pass")
    assert "ratingsift.cli" in added
    assert not added & {"dataclasses", "inspect"}


MIRRORED_VERDICT = {"favored_a": "favored_b", "favored_b": "favored_a",
                    "inconclusive": "inconclusive"}


@pytest.fixture
def varied_workspace(tmp_path, lexicon_file):
    """A scored workspace over six restaurants with seeded random features
    and reviews, so pairs differ in features, sentiment and verdict; with
    the restaurant ids."""
    rng = random.Random(1212)
    universe = sorted(DEFAULT_TAXONOMY.universe)
    words = ["great", "tasty", "friendly", "delicious", "slow", "bland", "rude", "dirty",
             "pasta", "menu", "table", "price", "waiter", "soup"]
    ids = [f"v{i}" for i in range(6)]
    data = tmp_path / "varied"
    data.mkdir()
    (data / "business.json").write_text("".join(
        business_line(business_id, stars=rng.choice([2.0, 3.5, 4.5]), attributes=attributes_for(
            rng.sample(universe, rng.randint(0, len(universe))))) + "\n"
        for business_id in ids
    ), encoding="utf-8")
    (data / "review.json").write_text("".join(
        review_line(f"r{n:03d}", rng.choice(ids), rng.randint(1, 5),
                    " ".join(rng.choices(words, k=6))) + "\n"
        for n in range(150)
    ), encoding="utf-8")
    ws = tmp_path / "ws"
    run_pipeline(data, lexicon_file, ws, through="score")
    return ws, ids


def _compare(ws, a, b, fmt, capsys):
    capsys.readouterr()
    assert main(["compare", "--workspace", str(ws), "--a", a, "--b", b, "--format", fmt]) == 0
    return capsys.readouterr().out


def test_swapped_pair_mirrors_the_json_report(varied_workspace, capsys):
    ws, ids = varied_workspace
    verdicts = set()
    for i, a in enumerate(ids):
        for b in ids[i:]:
            forward, backward = (json.loads(_compare(ws, x, y, "json", capsys))
                                 for x, y in ((a, b), (b, a)))
            mirrored = {
                "common": forward["common"],
                "delta": {star: -gap for star, gap in forward["delta"].items()},
                "net": -forward["net"],
                "verdict": MIRRORED_VERDICT[forward["verdict"]],
            }
            for name, value in forward.items():
                if name.endswith(("_a", "_b")):
                    mirrored[name[:-1] + {"a": "b", "b": "a"}[name[-1]]] = value
            assert backward == mirrored, (a, b)
            verdicts.add(forward["verdict"])
    assert verdicts == set(MIRRORED_VERDICT)


def test_copied_workspace_gives_the_same_compare_bytes(varied_workspace, tmp_path, capsys):
    ws, ids = varied_workspace
    pairs = [(a, b, fmt) for a in ids for b in ids for fmt in ("json", "text")]
    before = [_compare(ws, *pair, capsys) for pair in pairs]
    copy = tmp_path / "elsewhere" / "copy"
    shutil.copytree(ws, copy)
    shutil.rmtree(ws)
    assert [_compare(copy, *pair, capsys) for pair in pairs] == before


def _shuffle_corpus(rng):
    """The lines of a seeded corpus with unique ids: restaurants, a
    non-restaurant, a malformed line, and reviews that include skips."""
    universe = sorted(DEFAULT_TAXONOMY.universe)
    words = ["great", "tasty", "rude", "bland", "pasta", "menu", "price", "soup", "waiter"]
    ids = [f"s{i}" for i in range(8)]
    businesses = [
        business_line(business_id, stars=rng.choice([2.0, 3.5, 4.5]), attributes=attributes_for(
            rng.sample(universe, rng.randint(0, len(universe)))))
        for business_id in ids
    ] + [business_line("shop", categories="Shopping"), "{malformed"]
    reviews = [
        review_line(f"r{n:03d}", rng.choice(ids + ["ghost"]), rng.choice([1, 2, 3, 4, 5, 9]),
                    " ".join(rng.choices(words, k=5)))
        for n in range(80)
    ]
    return {"businesses": businesses, "reviews": reviews}


def _shuffled_run(data, lexicon_file, ws, lines, capsys, compare=False):
    """Each command's stdout and each workspace file's bytes after ingest,
    rank (cutoff 5) and score (k 3) over the given lines; with ``compare``,
    also compare's stdout in both formats for each pair of ranked
    restaurants."""
    data.mkdir(exist_ok=True)
    for name, path in (("businesses", "business.json"), ("reviews", "review.json")):
        (data / path).write_text("".join(line + "\n" for line in lines[name]), encoding="utf-8")
    steps = pipeline_steps(data, lexicon_file, ws)
    steps["rank"][-1], steps["score"][-1] = "5", "3"
    stdout = {}
    for name in ("ingest", "rank", "score"):
        capsys.readouterr()
        assert main(steps[name]) == 0
        stdout[name] = capsys.readouterr().out
    files = {path.name: path.read_bytes() for path in ws.iterdir()}
    if compare:
        ranked = _ranked_ids(files)
        for i, a in enumerate(ranked):
            for b in ranked[i + 1:]:
                for fmt in ("json", "text"):
                    stdout["compare", a, b, fmt] = _compare(ws, a, b, fmt, capsys)
    return stdout, files


def _ranked_ids(files):
    return [row.split(",")[0] for row in files["ranked.csv"].decode().splitlines()[1:]]


@pytest.mark.parametrize("shuffled", ["businesses", "reviews"])
def test_shuffled_input_lines_change_only_their_record_file(
        shuffled, tmp_path, lexicon_file, capsys):
    # Shuffling one input's lines (ids unique) reorders only the record file
    # ingest writes from it, so the manifest differs only in that file's
    # digest; every stdout and every other artifact is byte-identical.
    rng = random.Random(2424)
    lines = _shuffle_corpus(rng)
    stdout, files = _shuffled_run(tmp_path / "data", lexicon_file, tmp_path / "ws", lines, capsys)
    rng.shuffle(lines[shuffled])
    stdout_after, files_after = _shuffled_run(
        tmp_path / "data", lexicon_file, tmp_path / "ws2", lines, capsys)
    assert stdout_after == stdout
    _assert_only_files_and_digests_differ(files, files_after, *RECORD_FILES[shuffled])


# The files ingest writes from each input: reviews.jsonl comes with its index.
RECORD_FILES = {"businesses": ("businesses.jsonl",),
                "reviews": ("reviews.jsonl", "reviews.idx")}


def _assert_only_files_and_digests_differ(files, files_after, *names):
    """The two workspaces differ in ``names`` and, in the manifest, in their
    digests alone."""
    manifest = files["manifest.json"]
    for name in names:
        assert files_after[name] != files[name]
        manifest = manifest.replace(*(_sha256(f[name]).encode() for f in (files, files_after)))
    files = {**files, "manifest.json": manifest, **{name: files_after[name] for name in names}}
    assert files_after == files


def test_reviews_outside_the_cohort_change_no_score_artifact(tmp_path, lexicon_file, capsys):
    # Reviews of restaurants that rank leaves out are kept in reviews.jsonl
    # but reach no star document, so every score artifact, score's stdout
    # and every compare between ranked restaurants stay byte-identical.
    lines = _shuffle_corpus(random.Random(2424))
    stdout, files = _shuffled_run(tmp_path / "data", lexicon_file, tmp_path / "ws", lines,
                                  capsys, compare=True)
    outside = sorted({f"s{i}" for i in range(8)} - set(_ranked_ids(files)))
    assert outside
    rng = random.Random(2525)
    words = ["great", "rude", "pasta", "zucchini", "saffron"]
    lines["reviews"] += [
        review_line(f"x{n:03d}", rng.choice(outside), rng.randint(1, 5),
                    " ".join(rng.choices(words, k=5)))
        for n in range(30)
    ]
    stdout_after, files_after = _shuffled_run(
        tmp_path / "data", lexicon_file, tmp_path / "ws2", lines, capsys, compare=True)
    # Ingest counts the added reviews, in its stdout and its manifest entry.
    assert stdout_after.pop("ingest") != stdout.pop("ingest")
    assert stdout_after == stdout
    assert files_after["reviews.jsonl"] != files["reviews.jsonl"]
    for name in (*RECORD_FILES["reviews"], "manifest.json"):
        del files[name], files_after[name]
    assert {"topics.tsv", "cohort_scores.csv", "corpus_stats.json"} <= files.keys()
    assert files_after == files


def test_lexicon_terms_no_topic_holds_change_only_lexicon_tsv(tmp_path, lexicon_file, capsys):
    # "food" ends every review, so it is in every star document, weighs zero
    # and is no topic; "zucchini" is in no review. Valences for them change
    # lexicon.tsv and its digest in the manifest, and no stdout.
    lines = _shuffle_corpus(random.Random(2424))
    for i, line in enumerate(lines["reviews"]):
        obj = json.loads(line)
        obj["text"] += " food"
        lines["reviews"][i] = json.dumps(obj)
    stdout, files = _shuffled_run(tmp_path / "data", lexicon_file, tmp_path / "ws", lines,
                                  capsys, compare=True)
    topic_terms = {row.split("\t")[3] for row in files["topics.tsv"].decode().splitlines()[1:]}
    assert "food" in json.loads(files["corpus_stats.json"])["df"]
    assert not {"food", "zucchini"} & topic_terms
    richer = tmp_path / "richer.txt"
    richer.write_text(lexicon_file.read_text(encoding="utf-8") + "food\t4\nzucchini\t-5\n",
                      encoding="utf-8")
    stdout_after, files_after = _shuffled_run(
        tmp_path / "data", richer, tmp_path / "ws2", lines, capsys, compare=True)
    assert stdout_after == stdout
    _assert_only_files_and_digests_differ(files, files_after, "lexicon.tsv")


def test_non_ascii_separators_change_only_reviews_jsonl(tmp_path, lexicon_file, capsys):
    # Review text that is ASCII once lowercased is split without the regex,
    # other text with it, into the same terms. Every other review has ASCII
    # separators swapped for non-ASCII ones (a curly apostrophe, a no-break
    # space, an emoji between words), so it takes the other path; only
    # reviews.jsonl, its index and their digests in the manifest change.
    lines = _shuffle_corpus(random.Random(2424))
    texts = []
    for i, line in enumerate(lines["reviews"]):
        obj = json.loads(line)
        obj["text"] = obj["text"].replace(" ", " chef's ", 1)
        texts.append(obj["text"])
        lines["reviews"][i] = json.dumps(obj)
    assert all(text.isascii() and text.count(" ") >= 2 for text in texts)
    stdout, files = _shuffled_run(tmp_path / "data", lexicon_file, tmp_path / "ws", lines,
                                  capsys, compare=True)
    for i in range(0, len(lines["reviews"]), 2):
        obj = json.loads(lines["reviews"][i])
        obj["text"] = (obj["text"].replace("'", "\u2019").replace(" ", "\u00a0", 1)
                       .replace(" ", " \U0001f600 ", 1))
        lines["reviews"][i] = json.dumps(obj)
    stdout_after, files_after = _shuffled_run(
        tmp_path / "data", lexicon_file, tmp_path / "ws2", lines, capsys, compare=True)
    assert len(stdout) > 3 and stdout_after == stdout
    _assert_only_files_and_digests_differ(files, files_after, *RECORD_FILES["reviews"])


class _FileAudit:
    """The paths a command opens for reading, opens for writing and removes,
    from the ``open`` and ``os.remove`` audit events (PEP 578). An audit hook
    cannot be removed, so the ``file_audit`` fixture adds this one once per
    process, and it records only while ``paths`` is set."""

    paths = None
    added = False

    @classmethod
    def hook(cls, event, args):
        paths = cls.paths
        if paths is None:
            return
        if event == "open":
            # builtins.open and os.open both pass the open(2) flags
            kind = "written" if args[2] & os.O_ACCMODE else "read"
        elif event == "os.remove":
            kind = "removed"
        else:
            return
        paths[kind].add(Path(os.fsdecode(args[0])))


@pytest.fixture
def file_audit():
    """Runs ``main(argv)`` and returns its exit code and ``_FileAudit``'s
    paths: ``{"read": set, "written": set, "removed": set}``."""
    if not _FileAudit.added:
        sys.addaudithook(_FileAudit.hook)
        _FileAudit.added = True

    def run(argv):
        _FileAudit.paths = paths = {"read": set(), "written": set(), "removed": set()}
        try:
            return main(argv), paths
        finally:
            _FileAudit.paths = None

    return run


def _readme_reads():
    """README's "command | reads" table: each command's workspace files."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | reads |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for row in table.splitlines()[1:]:
        command, names = row.strip("|").split("|")
        rows[command.strip()] = {name.strip(" `") for name in names.split(",")}
    return rows


def test_each_command_opens_only_what_readme_lists(data_dir, lexicon_file, tmp_path, file_audit):
    # Of the workspace files, each command opens for reading manifest.json
    # and its row of README's table, and nothing else: a stage hashes its
    # artifacts as it writes them, so it reads none back. A stage writes its
    # artifacts and the manifest and removes the later stages' artifacts.
    # Compare writes and removes nothing, which is
    # what lets compares share the lock. Outside the workspace,
    # only its directory (the lock) and the command's input flags are opened.
    table = _readme_reads()
    assert set(table) == {"rank", "score", "compare"} and all(table.values())
    ws = tmp_path / "ws"
    steps = pipeline_steps(data_dir, lexicon_file, ws)
    steps["compare text"] = steps["compare"] + ["--format", "text"]
    inputs = {"ingest": {data_dir / "business.json", data_dir / "review.json"},
              "score": {lexicon_file}}
    order = list(STAGES)
    for run in ("first run", "rerun"):
        for step, argv in steps.items():
            command = argv[0]
            code, paths = file_audit(argv)
            assert code == 0, (run, step)
            names = {kind: {path.name for path in found if path.parent == ws}
                     for kind, found in paths.items()}
            outside = {path for found in paths.values() for path in found if path.parent != ws}
            own = set(STAGES.get(command, ()))
            reads = {"manifest.json"} | table.get(command, set())
            assert names["read"] == reads, (run, step)
            assert outside == {ws} | inputs.get(command, set()), (run, step)
            if command == "compare":
                assert paths["written"] == paths["removed"] == set(), (run, step)
            else:
                later = order[order.index(command) + 1:]
                assert names["written"] == own | {"manifest.json"}, (run, step)
                assert names["removed"] == {name for stage in later for name in STAGES[stage]}


# A command that fails before its stage's first write: its exit code, the
# stage run before it ("locked": score, then held locked by another
# command), and flags changed or added to pipeline_steps.
FAILED_BEFORE_WRITE = {
    "compare unknown id": (1, "score", {"--b": "no_such_id"}),
    "score k 0": (1, "score", {"--k": "0"}),
    "rank taxonomy missing wifi": (1, "score", {"--taxonomy": "missing_wifi.cfg"}),
    "score before rank": (2, "ingest", {}),
    "compare locked": (2, "locked", {}),
}


@pytest.mark.parametrize("name", FAILED_BEFORE_WRITE)
def test_failed_command_writes_and_removes_nothing(
        name, data_dir, lexicon_file, tmp_path, file_audit):
    code, before, flags = FAILED_BEFORE_WRITE[name]
    ws = tmp_path / "ws"
    run_pipeline(data_dir, lexicon_file, ws, through="score" if before == "locked" else before)
    (data_dir / "missing_wifi.cfg").write_text(
        DEFAULT_TAXONOMY.dumps().replace(" wifi\n", "\n"), encoding="utf-8")
    argv = pipeline_steps(data_dir, lexicon_file, ws)[name.split()[0]]
    for flag, value in flags.items():
        if flag == "--taxonomy":
            argv += [flag, str(data_dir / value)]
        else:
            argv[argv.index(flag) + 1] = value
    with Workspace(ws).lock() if before == "locked" else contextlib.nullcontext():
        exit_code, paths = file_audit(argv)
    assert exit_code == code
    assert paths["written"] == paths["removed"] == set()


def _new_prefix_old_tail(new, old):
    """The file an in-place rewrite leaves when cut off partway through the
    bytes where ``new`` and ``old`` differ: new bytes, then old ones."""
    same = next((i for i, (a, b) in enumerate(zip(new, old)) if a != b), min(len(new), len(old)))
    cut = same + (len(new) - same + 1) // 2
    return new[:cut] + old[cut:]


def _truncate_last_row(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].split(",")[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _delete_last_row(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _replace(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


def _append(path, line):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def _drop_key(path, key):
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj[key]
    path.write_text(json.dumps(obj), encoding="utf-8")


def _set_df(path, df_of):
    """Give the first term of corpus_stats.json the df ``df_of(n_docs)``."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["df"][next(iter(obj["df"]))] = df_of(obj["n_docs"])
    path.write_text(json.dumps(obj), encoding="utf-8")


def _set_every_df(path, df_of):
    """Give every term of corpus_stats.json the df ``df_of(n_docs)``, keeping
    the file's layout."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["df"] = dict.fromkeys(obj["df"], df_of(obj["n_docs"]))
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _other1_line(lines):
    return next(i for i, line in enumerate(lines) if json.loads(line)["business_id"] == "other1")


def _edit_other1(path):
    """Rewrite the first record of other1 as another valid record."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = _other1_line(lines)
    obj = json.loads(lines[i])
    edit = ({"overall_stars": obj["overall_stars"] + 0.5} if "overall_stars" in obj
            else {"text": obj["text"] + " edited"})
    lines[i] = json.dumps({**obj, **edit}, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _merge_other1(path):
    """Join the first line of other1 and the line after it into one."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = _other1_line(lines)
    lines[i:i + 2] = [lines[i] + lines[i + 1]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_text_in_place(path, business_id, last=False):
    """Change the first letter of the text of the first (or ``last``) review
    of ``business_id`` to another, so the file keeps its length."""
    lines = path.read_text(encoding="utf-8").splitlines()
    owned = [i for i, line in enumerate(lines) if json.loads(line)["business_id"] == business_id]
    i = owned[-1 if last else 0]
    at = lines[i].index('"text":"') + len('"text":"')
    lines[i] = lines[i][:at] + ("y" if lines[i][at] == "x" else "x") + lines[i][at + 1:]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _flip_index_digest(path, business_id):
    """Change one hex digit of ``business_id``'s digest in reviews.idx."""
    token = json.dumps(business_id)
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(token + " "))
    at = len(token) + 1
    lines[i] = lines[i][:at] + ("1" if lines[i][at] == "0" else "0") + lines[i][at + 1:]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_file_digest(path, name, digest):
    """Record ``digest`` as the SHA-256 of ``name`` in the manifest."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["stages"][workspace_module._WRITER[name]]["files"][name] = digest
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _drop_record_digests(path):
    """Rewrite the manifest as the stages wrote it before they recorded the
    digests of their files."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for entry in manifest["stages"].values():
        del entry["files"]
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _set_k(path, k):
    """Set score's topic count in the manifest to ``k``, any JSON value."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["stages"]["score"]["k"] = k
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _add_tool_version(path):
    """Put back the tool version that earlier versions wrote in ingest's entry."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["stages"]["ingest"]["tool_version"] = "0.1.0"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _list_ingest_files(path):
    """Rewrite ingest's digest table as a list of its file names."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["stages"]["ingest"]["files"] = sorted(manifest["stages"]["ingest"]["files"])
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# Fields that earlier versions wrote in each record of a file, one layout each.
_OLDER_FIELDS = {
    "businesses.jsonl": (
        {"is_restaurant": True, "raw_attributes": {"HasTV": "True"}},
        {"name": "Place", "review_count": 25},
    ),
    "reviews.jsonl": ({"date": "2016-05-01", "review_id": "r1", "user_id": "user001"},),
}


def _write_older_layout(ws, name, layout=0):
    """Rewrite the record file ``name`` as an earlier version wrote it, with
    the fields of its ``layout`` in each record, and record its digest in the
    manifest, so only the record layout is old."""
    path = ws / name
    old_fields = _OLDER_FIELDS[name][layout]
    lines = [
        json.dumps({**json.loads(line), **old_fields}, sort_keys=True, separators=(",", ":"))
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = json.loads((ws / "manifest.json").read_text(encoding="utf-8"))
    manifest["stages"]["ingest"]["files"][name] = _sha256(path.read_bytes())
    (ws / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")


def _write_older_manifest(path):
    """Rewrite the manifest in the layout of earlier versions: settings at the
    top level, and only counters in the stage entries."""
    stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
    path.write_text(json.dumps({
        "tool_version": "0.1.0",
        "config_hash": stages["rank"]["files"]["taxonomy.cfg"],
        "cutoff": stages["rank"]["cutoff"],
        "k": stages["score"]["k"],
        "lexicon_path": "/data/lexicon.txt",
        "stages": {
            "ingest": {"businesses": stages["ingest"]["businesses"],
                       "reviews": stages["ingest"]["reviews"]},
            "rank": {"kept": stages["rank"]["kept"]},
            "score": {"documents": stages["score"]["documents"]},
        },
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
