"""Benchmark loading, label normalization, balanced accuracy, and the failure
taxonomy over episode trajectories."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .agent import INIT_KG, SUPPORTED_WORDS, VERDICT_ACTION
from .errors import AllItemsFailed, DatasetParseError, SingleClassGold, UnknownLabel
from .fanout import fan_out
from .graph import fold

SUPPORTED = "Supported"
REFUTED = "Refuted"

INSUFFICIENT_KG = "InsufficientKG"
EXCEED_MAX_STEPS = "ExceedMaxSteps"
OVER_CONFIDENCE = "OverConfidence"
OTHER_ERROR = "Other"

ERROR_CLASSES = (INSUFFICIENT_KG, EXCEED_MAX_STEPS, OVER_CONFIDENCE, OTHER_ERROR)

# binary label standardization: the verdict's SUPPORTED_WORDS are Supported,
# ambiguous / partially-true collapse to Refuted, unverifiable records are dropped
_REFUTED_LABELS = {
    "refuted", "refutes", "refute", "false", "not-supported", "not supported",
    "factual refuted", "incorrect", "pants-fire", "pants on fire",
    "half-true", "half true", "barely-true", "barely true",
    "mostly-false", "mostly false", "mostly-true", "mostly true",
    "partially true", "partially correct", "mixture", "mixed", "ambiguous",
    "conflicting evidence/cherrypicking", "conflicting",
}
_DROPPED_LABELS = {
    "not enough info", "not enough information", "not enough evidence",
    "nei", "unverifiable", "unproven",
}


def normalize_label(raw: str) -> str:
    """Map a dataset label to Supported/Refuted, or '' to drop the record."""
    text = fold(raw)
    if text in SUPPORTED_WORDS:
        return SUPPORTED
    if text in _REFUTED_LABELS:
        return REFUTED
    if text in _DROPPED_LABELS:
        return ""
    raise UnknownLabel(raw)


@dataclass
class DatasetRecord:
    id: str
    claim: str
    gold_label: str


@dataclass
class FieldMap:
    """Per-dataset-family field names and label overrides for JSONL files."""

    id_field: str = "id"
    claim_field: str = "claim"
    label_field: str = "label"
    label_map: dict = field(default_factory=dict)  # raw (folded) -> Supported/Refuted/""

    @classmethod
    def from_jsonable(cls, data):
        """Raises ValueError unless ``data`` is an object whose field names are
        strings and whose ``label_map`` object maps labels to Supported, Refuted
        or "" (drop the record)."""
        names = ("id_field", "claim_field", "label_field")
        label_map = data.get("label_map", {}) if isinstance(data, dict) else None
        if not (isinstance(label_map, dict)
                and all(isinstance(data.get(name, ""), str) for name in names)
                and all(label in (SUPPORTED, REFUTED, "") for label in label_map.values())):
            raise ValueError('a field map must be an object of field names and a label_map '
                             'object whose labels are "Supported", "Refuted" or ""')
        return cls(**{name: data[name] for name in names if name in data},
                   label_map={fold(k): v for k, v in label_map.items()})


@dataclass
class DatasetLoadResult:
    records: list
    dropped: int


def load_dataset(path, field_map: FieldMap = None) -> DatasetLoadResult:
    """The UTF-8 JSONL records of ``path``, sorted by id, and the count of
    those whose label drops them. A line that is not a JSON object with the
    mapped fields, or whose id an earlier line has, raises DatasetParseError;
    an unknown label raises UnknownLabel."""
    field_map = field_map or FieldMap()
    records = []
    dropped = 0
    first_line = {}  # record id -> the line that gave it
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DatasetParseError(line_no, str(exc)) from exc
            if not isinstance(row, dict):
                raise DatasetParseError(line_no, "record is not a JSON object")
            try:
                rec_id = str(row[field_map.id_field])
                claim = row[field_map.claim_field]
                raw_label = str(row[field_map.label_field])
            except KeyError as exc:
                raise DatasetParseError(line_no, f"missing field {exc}") from exc
            if not isinstance(claim, str):
                raise DatasetParseError(line_no, f"claim {claim!r} is not a string")
            if rec_id in first_line:
                raise DatasetParseError(
                    line_no, f"id {rec_id!r} repeats the id of line {first_line[rec_id]}")
            first_line[rec_id] = line_no
            mapped = field_map.label_map.get(fold(raw_label))
            label = mapped if mapped is not None else normalize_label(raw_label)
            if label == "":
                dropped += 1
                continue
            records.append(DatasetRecord(id=rec_id, claim=claim, gold_label=label))
    records.sort(key=lambda r: r.id)
    return DatasetLoadResult(records=records, dropped=dropped)


def negative_rate(records) -> float:
    """Fraction of Refuted records, in percent."""
    if not records:
        return 0.0
    return 100.0 * sum(1 for r in records if r.gold_label == REFUTED) / len(records)


def balanced_accuracy(predictions, golds) -> float:
    """Arithmetic mean of per-class recalls."""
    if len(predictions) != len(golds) or not golds:
        raise ValueError("predictions and golds must be equal-length and nonempty")
    classes = set(golds)
    if classes != {SUPPORTED, REFUTED}:
        raise SingleClassGold(f"golds must contain both classes, got {sorted(classes)}")
    recalls = _class_recalls(predictions, golds)
    return sum(recalls.values()) / len(recalls)


def _class_recalls(predictions, golds):
    """Recall of each class, Supported first; every class must occur in golds."""
    return {
        cls: sum(1 for p, g in zip(predictions, golds) if g == cls and p == cls)
        / sum(1 for g in golds if g == cls)
        for cls in (SUPPORTED, REFUTED)
    }


def classify_error(trajectory, correct: bool):
    """Failure flags for an incorrect episode; flags may co-occur.

    Returns a frozenset of flags (empty for correct predictions)."""
    if correct:
        return frozenset()
    kinds = trajectory.action_kinds()
    flags = set()
    if kinds == [INIT_KG, VERDICT_ACTION]:
        flags.add(OVER_CONFIDENCE)
    if (
        trajectory.verdict is not None
        and trajectory.verdict.forced
        and trajectory.forced_reason == "step_limit"
    ):
        flags.add(EXCEED_MAX_STEPS)
    if trajectory.web_after_expand() is not None:
        flags.add(INSUFFICIENT_KG)
    if not flags:
        flags.add(OTHER_ERROR)
    return frozenset(flags)


@dataclass
class EvalReport:
    n: int
    balanced_accuracy: float
    per_class_recall: dict
    error_counts: dict
    mean_counters: dict
    failed_records: list = field(default_factory=list)
    dropped: int = 0

    def to_jsonable(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_jsonable(), sort_keys=True, ensure_ascii=False)


def run_benchmark(records, runner, parallelism=1, collect_trajectories=None) -> EvalReport:
    """One episode per record, ``parallelism`` at a time; per-record failures
    are recorded, not fatal, unless every episode failed (``AllItemsFailed``).
    The report equals a serial run's."""
    if not records:
        raise ValueError("run_benchmark requires a nonempty record list")

    def run_one(record):
        try:
            return runner.run(record.claim), None
        except Exception as exc:
            return None, {"id": record.id, "error": str(exc)}

    outcomes = fan_out(run_one, records, parallelism)
    failed = [failure for _, failure in outcomes if failure is not None]
    if len(failed) == len(records):
        first = failed[0]
        raise AllItemsFailed(
            f"every episode failed ({len(failed)} of {len(records)}); "
            f"first, {first['id']}: {first['error']}"
        )

    predictions, golds = [], []
    error_counts = {cls: 0 for cls in ERROR_CLASSES}
    counter_sums = {}
    n_ok = 0
    for record, (outcome, _) in zip(records, outcomes):
        if outcome is None:
            continue
        verdict_result, trajectory = outcome
        if collect_trajectories is not None:
            collect_trajectories.append(trajectory)
        predictions.append(verdict_result.label)
        golds.append(record.gold_label)
        correct = verdict_result.label == record.gold_label
        for flag in classify_error(trajectory, correct):
            error_counts[flag] += 1
        for key, value in trajectory.counters.items():
            counter_sums[key] = counter_sums.get(key, 0) + value
        n_ok += 1

    score = balanced_accuracy(predictions, golds)  # raises unless both classes occur
    mean_counters = {k: v / n_ok for k, v in counter_sums.items()} if n_ok else {}
    return EvalReport(
        n=n_ok,
        balanced_accuracy=score,
        per_class_recall=_class_recalls(predictions, golds),
        error_counts=error_counts,
        mean_counters=mean_counters,
        failed_records=failed,
    )
