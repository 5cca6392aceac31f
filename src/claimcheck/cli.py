"""Command-line entry points: single-claim check, batch eval, prompt
optimization, and trajectory replay/inspection.

Exit codes: cmd_check 0=Supported 1=Refuted 2=error; other commands 0 on
success, 1 on validation findings (replay), 2 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import agent, evaluation, optimize as opt
from .agent import EpisodeRunner, INIT_KG, VERDICT_ACTION, read_trajectories
from .config import (
    CONFIG_KEYS,
    build_kg_backend,
    build_llm_backend,
    build_policy,
    build_web_provider,
    load_config,
    load_file,
)
from .errors import ClaimcheckError, ConfigError


def _add_common_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--backend", choices=["live", "scripted", "replay"])
    parser.add_argument("--llm-script", dest="llm_script_path", help="scripted backend script file")
    parser.add_argument("--cassette", dest="cassette_path", help="cassette file for replay")
    parser.add_argument("--kg", help="'live' or fixture graph JSON path")
    parser.add_argument("--web", help="'live', fixture results JSON path, or omit to disable")
    parser.add_argument("--policy", dest="policy_path", help="serialized prompt policy JSON")
    parser.add_argument("--k", type=int, help="beam size")
    parser.add_argument("--n-hops", dest="n_hops", type=int, help="max expansion hops")
    parser.add_argument("--max-steps", dest="max_steps", type=int)
    parser.add_argument("--max-web-searches", dest="max_web_searches", type=int)
    parser.add_argument("--out", help="output path for reports")


def _config_from_args(args):
    overrides = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    cfg = load_config(args.config, overrides)
    cfg.validate()
    return cfg


def _build_runner(cfg):
    return EpisodeRunner(
        policy=build_policy(cfg),
        config=cfg.episode,
        llm_backend=build_llm_backend(cfg),
        kg_backend=build_kg_backend(cfg),
        web_provider=build_web_provider(cfg),
    )


def cmd_check(args):
    cfg = _config_from_args(args)
    verdict_result, trajectory = _build_runner(cfg).run(args.claim)
    if cfg.out:
        agent.write_trajectories(cfg.out, [trajectory])
    print(f"Verdict: {verdict_result.label}" + (" (forced)" if verdict_result.forced else ""))
    print(f"Justification: {verdict_result.justification}")
    if verdict_result.citations:
        print("Citations:")
        for cite in verdict_result.citations:
            print(f"  - {cite}")
    print("Counters: " + json.dumps(trajectory.counters, sort_keys=True))
    return 0 if verdict_result.label == "Supported" else 1


def cmd_eval(args):
    cfg = _config_from_args(args)
    field_map = None
    if args.field_map:
        field_map = load_file("field map", args.field_map, evaluation.FieldMap.load)
    loaded = evaluation.load_dataset(args.dataset, field_map)
    report = evaluation.run_benchmark(
        loaded.records, _build_runner(cfg), parallelism=cfg.parallel or 1
    )
    report.dropped = loaded.dropped
    print(f"balanced_accuracy: {report.balanced_accuracy:.4f}  (n={report.n}, "
          f"dropped={report.dropped})")
    print("error taxonomy:")
    for cls in evaluation.ERROR_CLASSES:
        print(f"  {cls}: {report.error_counts[cls]}")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json())
    return 0


def cmd_optimize(args):
    cfg = _config_from_args(args)
    loaded = evaluation.load_dataset(args.claims)
    claims = [
        {"id": r.id, "claim": r.claim, "gold_label": r.gold_label}
        for r in loaded.records
    ]
    initial = build_policy(cfg)
    llm_backend = build_llm_backend(cfg)
    kg_backend = build_kg_backend(cfg)
    web_provider = build_web_provider(cfg)

    def runner_factory(policy):
        return EpisodeRunner(policy, cfg.episode, llm_backend, kg_backend, web_provider)

    run = opt.optimize(
        initial,
        claims,
        opt.OptimizationConfig(
            epochs=cfg.epochs, seed=cfg.seed,
            parallel=cfg.parallel or opt.OptimizationConfig.parallel,
        ),
        runner_factory,
        llm_backend,
    )
    print(f"initial val reward: {run.initial_val_reward:.4f}")
    print(f"selected val reward: {run.selected_val_reward:.4f} "
          f"({run.selected.policy_id})")
    out = cfg.out or "optimization_run.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(run.to_jsonable(), fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"report written to {out}")
    return 0


def _validate_trajectory(trajectory):
    violations = []
    kinds = trajectory.action_kinds()
    if not kinds or kinds[0] != INIT_KG:
        violations.append("first action is not the initial KG retrieval")
    if kinds.count(INIT_KG) != 1:
        violations.append("initial KG retrieval must occur exactly once")
    if kinds.count(VERDICT_ACTION) != 1:
        violations.append("trajectory must contain exactly one verdict action")
    elif kinds[-1] != VERDICT_ACTION:
        violations.append("verdict must be the terminal action")
    if trajectory.verdict is None:
        violations.append("no verdict recorded")
    return violations


def cmd_replay(args):
    trajectories = load_file("trajectories", args.trajectories, read_trajectories)
    if not trajectories:
        raise ConfigError(f"trajectory file {args.trajectories} is empty")
    any_violation = False
    for i, trajectory in enumerate(trajectories):
        verdict_result = trajectory.verdict
        label = verdict_result.label if verdict_result else "?"
        correct_flags = evaluation.classify_error(trajectory, correct=False)
        print(f"episode {i}: {trajectory.claim!r}")
        for j, (action, obs) in enumerate(trajectory.steps):
            print(f"  step {j}: {action.kind:16s} hint={obs.sufficiency_hint:10s} "
                  f"+{obs.added_triplets}t +{obs.added_annotations}a")
        print(f"  verdict: {label}"
              + (" (forced)" if verdict_result and verdict_result.forced else ""))
        print(f"  counters: {json.dumps(trajectory.counters, sort_keys=True)}")
        print(f"  error flags if wrong: {sorted(correct_flags)}")
        violations = _validate_trajectory(trajectory)
        for violation in violations:
            any_violation = True
            print(f"  INVARIANT VIOLATION: {violation}")
    return 1 if any_violation else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Agentic claim verification over knowledge-graph and web evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify a single claim")
    p_check.add_argument("claim")
    _add_common_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("eval", help="run a benchmark dataset")
    p_eval.add_argument("dataset", help="JSONL dataset file")
    p_eval.add_argument("--field-map", help="JSON field-map file for the dataset family")
    p_eval.add_argument("--parallel", type=int, help="episodes run at once")
    _add_common_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_opt = sub.add_parser("optimize", help="optimize the prompt policy")
    p_opt.add_argument("claims", help="JSONL labeled claims (>= 150)")
    p_opt.add_argument("--seed", type=int, help="train/validation split seed")
    p_opt.add_argument("--epochs", type=int, help="optimizer epochs")
    p_opt.add_argument("--parallel", type=int,
                       help="training or validation episodes run at once, twice that while "
                            "the initial validation runs beside epoch 1 "
                            f"(default {opt.OptimizationConfig.parallel})")
    _add_common_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_replay = sub.add_parser("replay", help="inspect and validate a trajectory file")
    p_replay.add_argument("trajectories", help="JSONL trajectory file")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ClaimcheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
