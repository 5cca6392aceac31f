import json

import pytest

from claimcheck.agent import (
    EXPAND_KG,
    INIT_KG,
    VERDICT_ACTION,
    WEB_SEARCH,
    Action,
    EpisodeConfig,
    EpisodeRunner,
    Observation,
    Trajectory,
    VerdictResult,
)
from claimcheck.errors import AllItemsFailed, DatasetParseError, SingleClassGold, UnknownLabel
from claimcheck.evaluation import (
    ERROR_CLASSES,
    EXCEED_MAX_STEPS,
    INSUFFICIENT_KG,
    OTHER_ERROR,
    OVER_CONFIDENCE,
    REFUTED,
    SUPPORTED,
    DatasetRecord,
    FieldMap,
    balanced_accuracy,
    classify_error,
    load_dataset,
    negative_rate,
    normalize_label,
    run_benchmark,
)
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import ScriptedBackend
from claimcheck.policy import default_policy

from conftest import OracleResponder, build_corpus


class TestLabels:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Supported", SUPPORTED),
            ("TRUE", SUPPORTED),
            ("supports", SUPPORTED),
            ("Refuted", REFUTED),
            ("false", REFUTED),
            ("pants-fire", REFUTED),
            ("Half-True", REFUTED),
            ("mostly true", REFUTED),
            ("barely-true", REFUTED),
            ("Conflicting Evidence/Cherrypicking", REFUTED),
            ("mixture", REFUTED),
        ],
    )
    def test_binary_standardization(self, raw, expected):
        assert normalize_label(raw) == expected

    @pytest.mark.parametrize("raw", ["NEI", "Not Enough Info", "unproven", "unverifiable"])
    def test_unverifiable_dropped(self, raw):
        assert normalize_label(raw) == ""

    def test_unknown_label_raises(self):
        with pytest.raises(UnknownLabel):
            normalize_label("sorta-true-ish")


class TestLoading:
    def write(self, tmp_path, rows, name="data.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    def test_load_sorts_and_drops(self, tmp_path):
        rows = [
            {"id": "b", "claim": "B", "label": "false"},
            {"id": "a", "claim": "A", "label": "true"},
            {"id": "c", "claim": "C", "label": "NEI"},
        ]
        result = load_dataset(self.write(tmp_path, rows))
        assert [r.id for r in result.records] == ["a", "b"]
        assert [r.gold_label for r in result.records] == [SUPPORTED, REFUTED]
        assert result.dropped == 1

    def test_field_map_and_label_overrides(self, tmp_path):
        rows = [{"claim_id": 7, "statement": "X", "verdict": "legit", "docs": ["d1"]}]
        fm = FieldMap(
            id_field="claim_id", claim_field="statement", label_field="verdict",
            label_map={"legit": SUPPORTED},
        )
        result = load_dataset(self.write(tmp_path, rows), fm)
        rec = result.records[0]
        assert (rec.id, rec.claim, rec.gold_label) == ("7", "X", SUPPORTED)

    @pytest.mark.parametrize("claim", [None, 5, ["A"], {"text": "A"}], ids=repr)
    def test_claim_that_is_not_text_is_parse_error(self, tmp_path, claim):
        # str() would check the claim "None"; an integer id is still read as text
        rows = [{"id": 1, "claim": "A", "label": "true"}, {"id": 2, "claim": claim, "label": "true"}]
        with pytest.raises(DatasetParseError, match="is not a string") as exc:
            load_dataset(self.write(tmp_path, rows))
        assert exc.value.line_no == 2
        assert load_dataset(self.write(tmp_path, rows[:1])).records[0].id == "1"

    @pytest.mark.parametrize("data", [
        [], "map", {"label_map": []}, {"label_map": {"yes": "Yes"}}, {"label_map": {"yes": None}},
        {"claim_field": 3}, {"id_field": None},
    ], ids=repr)
    def test_malformed_field_map_is_rejected(self, data):
        with pytest.raises(ValueError):
            FieldMap.from_jsonable(data)

    def test_field_map_from_jsonable(self):
        # a raw label is matched casefolded, with its spaces collapsed
        fm = FieldMap.from_jsonable({"claim_field": "statement",
                                     "label_map": {"Legit": SUPPORTED, " Not  Sure": ""}})
        assert fm == FieldMap(claim_field="statement",
                              label_map={"legit": SUPPORTED, "not sure": ""})

    def test_repeated_id_is_parse_error_naming_both_lines(self, tmp_path):
        # ids are read as text, so 1 and "1" are one id
        rows = [{"id": 1, "claim": "A", "label": "true"}, {"id": "2", "claim": "B", "label": "NEI"},
                {"id": "1", "claim": "C", "label": "false"}]
        with pytest.raises(DatasetParseError, match="id '1' repeats the id of line 1") as exc:
            load_dataset(self.write(tmp_path, rows))
        assert exc.value.line_no == 3

    def test_bad_json_line_numbered(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "claim": "A", "label": "true"}\nnot json\n')
        with pytest.raises(DatasetParseError) as exc:
            load_dataset(str(path))
        assert exc.value.line_no == 2

    def test_line_nested_too_deeply_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "claim": "A", "label": "true"}\n' + "[" * 100000 + "\n")
        with pytest.raises(DatasetParseError, match="recursion") as exc:
            load_dataset(str(path))
        assert exc.value.line_no == 2

    def test_missing_field_is_parse_error(self, tmp_path):
        with pytest.raises(DatasetParseError):
            load_dataset(self.write(tmp_path, [{"id": "a", "label": "true"}]))

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "5", "null"])
    def test_record_not_an_object_is_parse_error(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "claim": "A", "label": "true"}\n' + line + "\n")
        with pytest.raises(DatasetParseError, match="record is not a JSON object") as exc:
            load_dataset(str(path))
        assert exc.value.line_no == 2

    def test_negative_rate_percent(self):
        records = [DatasetRecord(id=str(i), claim="c", gold_label=REFUTED) for i in range(3)]
        records.append(DatasetRecord(id="s", claim="c", gold_label=SUPPORTED))
        assert negative_rate(records) == 75.0


class TestBalancedAccuracy:
    def test_hand_case_0_625(self):
        # supported recall 3/4, refuted recall 1/2 -> (0.75 + 0.5)/2 = 0.625
        golds = [SUPPORTED] * 4 + [REFUTED] * 2
        preds = [SUPPORTED] * 3 + [REFUTED] + [REFUTED, SUPPORTED]
        assert balanced_accuracy(preds, golds) == pytest.approx(0.625, abs=1e-12)

    def test_perfect_and_zero(self):
        golds = [SUPPORTED, REFUTED]
        assert balanced_accuracy([SUPPORTED, REFUTED], golds) == 1.0
        assert balanced_accuracy([REFUTED, SUPPORTED], golds) == 0.0

    def test_insensitive_to_class_imbalance(self):
        golds = [SUPPORTED] * 99 + [REFUTED]
        preds = [SUPPORTED] * 100  # majority guessing
        assert balanced_accuracy(preds, golds) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassGold):
            balanced_accuracy([SUPPORTED], [SUPPORTED])


def traj(kinds, forced=False, forced_reason=""):
    t = Trajectory(claim="c")
    for kind in kinds:
        t.steps.append((Action(kind), Observation(kind="subgraph_delta")))
    t.verdict = VerdictResult(label=REFUTED, justification="j", forced=forced)
    t.forced_reason = forced_reason
    return t


class TestTaxonomy:
    def test_correct_prediction_has_no_flags(self):
        assert classify_error(traj([INIT_KG, VERDICT_ACTION]), correct=True) == frozenset()

    def test_overconfidence(self):
        flags = classify_error(traj([INIT_KG, VERDICT_ACTION]), correct=False)
        assert flags == {OVER_CONFIDENCE}

    def test_exceed_max_steps(self):
        t = traj([INIT_KG, EXPAND_KG, EXPAND_KG, VERDICT_ACTION],
                 forced=True, forced_reason="step_limit")
        assert classify_error(t, correct=False) == {EXCEED_MAX_STEPS}

    def test_insufficient_kg(self):
        t = traj([INIT_KG, EXPAND_KG, WEB_SEARCH, VERDICT_ACTION])
        assert classify_error(t, correct=False) == {INSUFFICIENT_KG}

    def test_cooccurrence(self):
        t = traj([INIT_KG, EXPAND_KG, WEB_SEARCH, EXPAND_KG, VERDICT_ACTION],
                 forced=True, forced_reason="step_limit")
        assert classify_error(t, correct=False) == {EXCEED_MAX_STEPS, INSUFFICIENT_KG}

    def test_other_catchall(self):
        t = traj([INIT_KG, EXPAND_KG, VERDICT_ACTION])
        assert classify_error(t, correct=False) == {OTHER_ERROR}

    def test_web_before_any_expand_is_not_insufficient_kg(self):
        t = traj([INIT_KG, WEB_SEARCH, EXPAND_KG, VERDICT_ACTION])
        assert classify_error(t, correct=False) == {OTHER_ERROR}


class FailingRunner:
    """Delegates to a real runner but blows up on marked claims."""

    def __init__(self, inner, poison):
        self.inner = inner
        self.poison = poison

    def run(self, claim):
        if claim in self.poison:
            raise RuntimeError("backend on fire")
        return self.inner.run(claim)


def corpus_runner(n=8, depth=1):
    graph, claims = build_corpus(n, depth=depth)
    backend = FixtureKgBackend(data=graph)
    llm = ScriptedBackend(responder=OracleResponder(specs=claims))
    runner = EpisodeRunner(default_policy(), EpisodeConfig(), llm, backend)
    records = [
        DatasetRecord(id=c["id"], claim=c["claim"], gold_label=c["gold_label"])
        for c in claims
    ]
    return runner, records, claims


class TestRunBenchmark:
    def test_oracle_corpus_scores_1(self):
        runner, records, _ = corpus_runner()
        report = run_benchmark(records, runner)
        assert report.n == 8
        assert report.balanced_accuracy == 1.0
        assert report.per_class_recall == {SUPPORTED: 1.0, REFUTED: 1.0}
        assert all(report.error_counts[c] == 0 for c in ERROR_CLASSES)
        assert report.failed_records == []
        assert report.mean_counters["llm_calls"] > 0

    def test_partial_failures_reported_not_fatal(self):
        runner, records, claims = corpus_runner()
        poisoned = FailingRunner(runner, {claims[0]["claim"], claims[1]["claim"]})
        report = run_benchmark(records, poisoned)
        assert report.n == 6
        assert {f["id"] for f in report.failed_records} == {"c001", "c002"}
        assert "backend on fire" in report.failed_records[0]["error"]

    def test_every_episode_failing_raises(self):
        runner, records, claims = corpus_runner(n=2)
        poisoned = FailingRunner(runner, {c["claim"] for c in claims})
        with pytest.raises(AllItemsFailed, match="every episode failed .2 of 2.*backend on fire"):
            run_benchmark(records, poisoned)

    def test_parallel_matches_serial(self):
        runner, records, _ = corpus_runner()
        serial = run_benchmark(records, runner).to_json()
        runner2, records2, _ = corpus_runner()
        parallel = run_benchmark(records2, runner2, parallelism=4).to_json()
        assert serial == parallel

    def test_parallel_failures_match_serial(self):
        runner, records, claims = corpus_runner()
        poisoned = FailingRunner(runner, {claims[0]["claim"], claims[5]["claim"]})
        serial = run_benchmark(records, poisoned).to_json()
        assert run_benchmark(records, poisoned, parallelism=3).to_json() == serial

    def test_records_sharing_an_id_keep_their_own_outcomes(self):
        runner, records, _ = corpus_runner(n=2)
        twins = [DatasetRecord(id="same", claim=r.claim, gold_label=r.gold_label) for r in records]
        report = run_benchmark(twins, runner)
        assert report.n == 2 and report.balanced_accuracy == 1.0

    def test_collect_trajectories(self):
        runner, records, _ = corpus_runner(n=4)
        collected = []
        run_benchmark(records, runner, collect_trajectories=collected)
        assert len(collected) == 4
        assert all(t.verdict is not None for t in collected)

    def test_report_json_stable_and_complete(self):
        runner, records, _ = corpus_runner(n=4)
        report = run_benchmark(records, runner)
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "n", "balanced_accuracy", "per_class_recall", "error_counts",
            "mean_counters", "failed_records", "dropped",
        }
        assert report.to_json() == run_benchmark(records, runner).to_json()
