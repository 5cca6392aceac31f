import dataclasses
import json
import random

import pytest

import requests

from claimcheck import cli
from claimcheck.agent import EpisodeConfig, EpisodeRunner, write_trajectories
from claimcheck.cli import build_parser, main
from claimcheck.config import load_config
from claimcheck.errors import InsufficientData
from claimcheck.evaluation import load_dataset, run_benchmark
from claimcheck.kg import FixtureKgBackend
from claimcheck.llm import CassetteRecorder, ScriptedBackend
from claimcheck.optimize import OptimizationConfig
from claimcheck.policy import default_policy

from conftest import FaultyKg, FaultyLlm, FaultySearch, OracleResponder, build_corpus


@pytest.fixture
def workspace(tmp_path):
    """Fixture graph + a sequence-scripted LLM for one depth-1 episode."""
    graph, claims = build_corpus(2, depth=1)
    kg_path = tmp_path / "graph.json"
    kg_path.write_text(json.dumps(graph))
    return tmp_path, str(kg_path), claims


def episode_script(label, citations=()):
    """Scripted replies for one episode over the depth-1 corpus, in call order:
    sufficiency (whose reply names no action, so the assessment's verdict is
    taken), verdict. The topic entity has fewer than k relations, so it keeps
    its one relation without a prune, and the hop sends no hop prune."""
    return [
        json.dumps({"assessment": "sufficient"}),
        json.dumps({"label": label, "justification": "scripted", "citations": list(citations)}),
    ]


def write_script(tmp_path, sequence, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"sequence": sequence}))
    return str(path)


class TestCheck:
    def test_supported_exits_0(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        code = main(["check", claims[0]["claim"], "--kg", kg_path, "--llm-script", script])
        assert code == 0
        out = capsys.readouterr().out
        assert "Verdict: Supported" in out
        counters = json.loads(out.split("Counters: ", 1)[1])
        assert (counters["llm_calls"], counters["llm_retries"]) == (2, 0)

    def test_refuted_exits_1(self, workspace):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Refuted"))
        assert main(["check", claims[1]["claim"], "--kg", kg_path, "--llm-script", script]) == 1

    def test_missing_kg_exits_2(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        code = main(["check", claims[0]["claim"], "--kg", "/nonexistent.json",
                     "--llm-script", script])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_scripted_backend_requires_script(self, workspace, capsys):
        _, kg_path, claims = workspace
        assert main(["check", claims[0]["claim"], "--kg", kg_path]) == 2

    def test_out_writes_trajectory(self, workspace):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        out = tmp_path / "traj.jsonl"
        main(["check", claims[0]["claim"], "--kg", kg_path, "--llm-script", script,
              "--out", str(out)])
        row = json.loads(out.read_text().splitlines()[0])
        assert row["claim"] == claims[0]["claim"]
        assert row["verdict"]["label"] == "Supported"


BAD_INPUTS = {
    "missing cassette": lambda tmp: ["--backend", "replay", "--cassette", str(tmp / "none.jsonl")],
    "malformed cassette": lambda tmp: [
        "--backend", "replay", "--cassette", write_text(tmp, '{"fp": "a"\n{}\n', "c.jsonl")],
    "cassette nested too deeply": lambda tmp: [
        "--backend", "replay", "--cassette", write_text(tmp, "[" * 100000 + "\n", "c.jsonl")],
    "malformed kg": lambda tmp: ["--kg", write_text(tmp, "{not json")],
    "malformed policy": lambda tmp: ["--policy", write_text(tmp, "{not json")],
    "policy not an object": lambda tmp: ["--policy", write_text(tmp, "[]")],
    "policy missing a template": lambda tmp: ["--policy", policy_file(tmp, verdict=None)],
    "policy text not a string": lambda tmp: [
        "--policy", policy_file(tmp, sufficiency={"version": 1, "text": 5})],
    # a policy file optimized when action selection was a prompt of its own
    "policy with an unknown template": lambda tmp: [
        "--policy", policy_file(tmp, action_select={"version": 1, "text": "Choose."})],
    "malformed web": lambda tmp: ["--web", write_text(tmp, "{not json")],
    "out in missing directory": lambda tmp: ["--out", str(tmp / "none" / "traj.jsonl")],
    "config not an object": lambda tmp: ["--config", write_text(tmp, "[]")],
    "config nested too deeply": lambda tmp: ["--config", write_text(tmp, "[" * 100000)],
    "non-integer episode key": lambda tmp: ["--config", write_text(tmp, '{"episode": {"k": "x"}}')],
    "unknown episode key": lambda tmp: ["--config", write_text(tmp, '{"episode": {"kk": 4}}')],
    "episode not an object": lambda tmp: ["--config", write_text(tmp, '{"episode": 4}')],
    "non-integer seed": lambda tmp: ["--config", write_text(tmp, '{"seed": "x"}')],
    "boolean episode key": lambda tmp: [
        "--config", write_text(tmp, '{"episode": {"k": true}}')],
    # int() would truncate either to a whole number
    "fractional episode key": lambda tmp: [
        "--config", write_text(tmp, '{"episode": {"k": 4.9}}')],
    "fractional seed": lambda tmp: ["--config", write_text(tmp, '{"seed": 2.5}')],
    # a path of 5 would read the graph from file descriptor 5
    "kg path not a string": lambda tmp: ["--config", write_text(tmp, '{"kg": 5}')],
    "web path not a string": lambda tmp: ["--config", write_text(tmp, '{"web": ["w.json"]}')],
    "max_steps 0": lambda tmp: ["--max-steps", "0"],
    "n_init is an unknown key": lambda tmp: ["--config", write_text(tmp, '{"n_init": 1}')],
    # a name of the config's own, not a key: setting it made the run fail on a traceback
    "validate is an unknown key": lambda tmp: ["--config", write_text(tmp, '{"validate": "x"}')],
    "negative web searches": lambda tmp: ["--max-web-searches", "-1"],
    "parallel 0 in config": lambda tmp: ["--config", write_text(tmp, '{"parallel": 0}')],
    "negative epochs in config": lambda tmp: ["--config", write_text(tmp, '{"epochs": -1}')],
    "kg not an object": lambda tmp: ["--kg", write_text(tmp, "[1, 2]")],
    "web not an object": lambda tmp: ["--web", write_text(tmp, "[1, 2]")],
    "web rows not objects": lambda tmp: ["--web", write_text(tmp, '{"q": [1, 2]}')],
    "web snippet not text": lambda tmp: [
        "--web", write_text(tmp, '{"q": [{"url": "u", "snippet": 5}]}')],
    "llm script not an object": lambda tmp: ["--llm-script", write_text(tmp, "[1, 2]")],
    "llm script replies not strings": lambda tmp: [
        "--llm-script", write_text(tmp, '{"sequence": [1, 2]}')],
}


def policy_file(tmp_path, **specs):
    """The default policy's file with ``specs`` set, or removed where None."""
    data = default_policy().to_jsonable()
    for tid, spec in specs.items():
        if spec is None:
            del data[tid]
        else:
            data[tid] = spec
    return write_text(tmp_path, json.dumps(data), "policy.json")


def write_text(tmp_path, text, name="input.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_2_with_one_error_line(self, workspace, capsys, case):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        argv = ["check", claims[0]["claim"], "--kg", kg_path, "--llm-script", script]
        assert main(argv + BAD_INPUTS[case](tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("case", sorted(c for c in BAD_INPUTS if c.startswith("policy ")))
    def test_invalid_policy_is_rejected_at_load(self, workspace, capsys, case):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        argv = ["check", claims[0]["claim"], "--kg", kg_path, "--llm-script", script]
        assert main(argv + BAD_INPUTS[case](tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: cannot read policy ")

    @pytest.mark.parametrize("case, message", [
        ("boolean episode key", "k must be an integer, got True"),
        ("fractional episode key", "k must be an integer, got 4.9"),
        ("fractional seed", "seed must be an integer, got 2.5"),
        ("kg path not a string", "kg must be a string, got 5"),
        ("web path not a string", "web must be a string, got ['w.json']"),
    ])
    def test_config_value_of_the_wrong_type_is_named(self, workspace, capsys, case, message):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        argv = ["check", claims[0]["claim"], "--kg", kg_path, "--llm-script", script]
        assert main(argv + BAD_INPUTS[case](tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_integer_may_be_a_string_of_digits(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        config = write_text(tmp_path, '{"episode": {"k": "4"}, "seed": "7"}', "c.json")
        code = main(["check", claims[0]["claim"], "--kg", kg_path, "--llm-script", script,
                     "--config", config])
        assert code == 0 and capsys.readouterr().err == ""

    def test_config_integer_may_be_a_whole_float(self, tmp_path):
        config = load_config(write_text(tmp_path, '{"episode": {"k": 3.0}, "seed": 7.0}'))
        assert (config.episode.k, config.seed) == (3, 7) and type(config.seed) is int

    def test_malformed_kg_cache_exits_2_with_one_error_line(self, workspace, capsys, monkeypatch):
        tmp_path, kg_path, claims = workspace

        def offline(*args, **kwargs):
            raise AssertionError("no request may leave the test")

        monkeypatch.setattr(requests, "get", offline)
        monkeypatch.setattr(requests, "post", offline)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "wikidata.jsonl").write_text("{not json\n{}\n")
        config = write_text(tmp_path, json.dumps({"kg_cache_dir": str(cache)}), "config.json")
        script = write_script(tmp_path, episode_script("Supported"))
        argv = ["check", claims[0]["claim"], "--kg", "live", "--config", config, "--llm-script", script]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read kg cache") and len(err.splitlines()) == 1
        assert "wikidata.jsonl line 1 is not a reply entry" in err

    def test_nested_episode_keys_convert_like_flat_ones(self, workspace):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        config = write_text(tmp_path, '{"episode": {"k": "4"}}')
        assert main(["check", claims[0]["claim"], "--config", config,
                     "--kg", kg_path, "--llm-script", script]) == 0

    def test_every_episode_field_can_be_set_under_episode(self, workspace):
        tmp_path, kg_path, claims = workspace
        values = {"k": 3, "n_hops": 5, "max_steps": 7, "max_web_searches": 1}
        assert values.keys() == {f.name for f in dataclasses.fields(EpisodeConfig)}
        assert all(value != getattr(EpisodeConfig(), name) for name, value in values.items())
        config = write_text(tmp_path, json.dumps({"episode": values}))
        script = write_script(tmp_path, episode_script("Supported"))
        args = build_parser().parse_args(["check", claims[0]["claim"], "--config", config,
                                          "--kg", kg_path, "--llm-script", script])
        assert cli._config_from_args(args).episode == EpisodeConfig(**values)


class TestEval:
    def test_eval_two_claims(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            "\n".join(
                json.dumps({"id": c["id"], "claim": c["claim"], "label": c["gold_label"]})
                for c in claims
            )
        )
        # records run in sorted-id order, so scripts concatenate per claim
        script = write_script(
            tmp_path, episode_script("Supported") + episode_script("Refuted")
        )
        report_path = tmp_path / "report.json"
        code = main(["eval", str(dataset), "--kg", kg_path, "--llm-script", script,
                     "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "balanced_accuracy: 1.0000" in out
        assert "error taxonomy:" in out
        report = json.loads(report_path.read_text())
        assert report["n"] == 2 and report["balanced_accuracy"] == 1.0

    def test_eval_every_episode_failing_exits_2(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(
            "\n".join(
                json.dumps({"id": c["id"], "claim": c["claim"], "label": c["gold_label"]})
                for c in claims
            )
        )
        # an empty script misses on every episode's first LLM call
        script = write_script(tmp_path, [])
        code = main(["eval", str(dataset), "--kg", kg_path, "--llm-script", script])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: every episode failed (2 of 2)")
        assert "no scripted response" in err and len(err.splitlines()) == 1

    def test_eval_parallel_below_1_exits_2(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        code = main(["eval", str(tmp_path / "data.jsonl"), "--kg", kg_path,
                     "--llm-script", script, "--parallel", "-3"])
        assert code == 2
        assert capsys.readouterr().err == "error: parallel must be at least 1, got -3\n"

    @pytest.mark.parametrize("field_map", [
        "[]", '{"label_map": []}', '{"label_map": {"true": "Yes"}}',
    ])
    def test_malformed_field_map_exits_2_with_one_error_line(self, workspace, capsys, field_map):
        tmp_path, kg_path, claims = workspace
        dataset = write_text(tmp_path, json.dumps(
            {"id": "a", "claim": claims[0]["claim"], "label": "true"}), "data.jsonl")
        script = write_script(tmp_path, episode_script("Supported"))
        code = main(["eval", dataset, "--field-map", write_text(tmp_path, field_map, "map.json"),
                     "--kg", kg_path, "--llm-script", script])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read field map ") and len(err.splitlines()) == 1

    def test_eval_missing_dataset_exits_2(self, workspace):
        tmp_path, kg_path, _ = workspace
        script = write_script(tmp_path, episode_script("Supported"))
        code = main(["eval", str(tmp_path / "missing.jsonl"), "--kg", kg_path,
                     "--llm-script", script])
        assert code == 2


class TestFaultProperty:
    """Under seeded LLM, KG and web faults, every ``check`` and ``eval`` run
    ends in a verdict (exit 0 or 1) or in exit 2 with one error line; no
    error escapes ``main``."""

    def wire_faults(self, monkeypatch, seed, claims, fired):
        rng = random.Random(seed)
        responder = OracleResponder(
            specs=claims, sufficiency=rng.choice(["oracle", "never"]),
            action="webSearch" if seed % 2 else "follow_hint",
        )
        build_kg, build_web = cli.build_kg_backend, cli.build_web_provider

        def llm(cfg):
            faulty = FaultyLlm(ScriptedBackend(responder=responder), seed, rate=0.15)
            if seed % 3 == 0:
                faulty.kinds += ("miss",)
            fired.append(faulty)
            return faulty

        def wrap(cls, build, rate):
            def built(cfg):
                faulty = cls(build(cfg), seed, rate)
                fired.append(faulty)
                return faulty
            return built

        monkeypatch.setattr(cli, "build_llm_backend", llm)
        monkeypatch.setattr(cli, "build_kg_backend", wrap(FaultyKg, build_kg, 0.1))
        monkeypatch.setattr(cli, "build_web_provider", wrap(FaultySearch, build_web, 0.5))

    def test_every_run_ends_in_a_verdict_or_one_error_line(self, tmp_path, capsys, monkeypatch):
        graph, claims = build_corpus(4, depth=2)
        web = {c["claim"]: [{"url": f"https://w.example/{i}", "snippet": c["support"]}]
               for i, c in enumerate(claims)}
        dataset = write_text(tmp_path, "\n".join(
            json.dumps({"id": c["id"], "claim": c["claim"], "label": c["gold_label"]})
            for c in claims
        ), "data.jsonl")
        # the script file only passes validation: the LLM backend is replaced
        sources = ["--kg", write_text(tmp_path, json.dumps(graph), "graph.json"),
                   "--web", write_text(tmp_path, json.dumps(web), "web.json"),
                   "--llm-script", write_script(tmp_path, [])]
        codes, faults = set(), set()
        for seed in range(12):
            fired = []
            self.wire_faults(monkeypatch, seed, claims, fired)
            claim = claims[seed % len(claims)]["claim"]
            for argv in (["check", claim], ["eval", dataset, "--parallel", str(1 + seed % 2)]):
                code = main(argv + sources)
                out, err = capsys.readouterr()
                codes.add(code)
                if code == 2:
                    assert err.startswith("error:") and len(err.splitlines()) == 1, (seed, argv)
                    continue
                assert code in (0, 1) and err == "", (seed, argv, err)
                if argv[0] == "check":
                    assert out.startswith("Verdict: "), seed
                else:
                    report = json.loads(out.splitlines()[-1])
                    # only an injected script miss may fail an episode
                    assert all("no scripted response" in failure["error"]
                               for failure in report["failed_records"]), (seed, report)
            for faulty in fired:
                faults.update(faulty.fired)
        assert codes >= {0, 1, 2}
        assert faults == {"transport", "garbage", "miss", "timeout", "quota", "empty"}


class TestReplayBackend:
    def test_recorded_parallel_run_replays_to_the_same_report(self, tmp_path, capsys):
        graph, claims = build_corpus(6, depth=2)
        kg_path = tmp_path / "graph.json"
        kg_path.write_text(json.dumps(graph))
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("\n".join(
            json.dumps({"id": c["id"], "claim": c["claim"], "label": c["gold_label"]})
            for c in claims
        ))
        cassette = tmp_path / "cassette.jsonl"
        recorder = CassetteRecorder(
            ScriptedBackend(responder=OracleResponder(specs=claims)), str(cassette)
        )
        runner = EpisodeRunner(
            default_policy(), EpisodeConfig(), recorder, FixtureKgBackend(data=graph)
        )
        recorded = run_benchmark(load_dataset(str(dataset)).records, runner, parallelism=2)
        assert recorded.n == 6

        code = main(["eval", str(dataset), "--backend", "replay", "--cassette", str(cassette),
                     "--kg", str(kg_path), "--parallel", "2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == recorded.to_json()


class TestOptimize:
    def test_epochs_flag_bounds_history(self, tmp_path, capsys):
        graph, claims = build_corpus(8, depth=1)
        kg_path = tmp_path / "graph.json"
        kg_path.write_text(json.dumps(graph))
        dataset = tmp_path / "claims.jsonl"
        dataset.write_text(
            "\n".join(
                json.dumps({"id": c["id"], "claim": c["claim"], "label": c["gold_label"]})
                for c in claims
            )
        )
        # too few claims for the default 100/50 split: clean error, exit 2
        script = write_script(tmp_path, [])
        code = main(["optimize", str(dataset), "--kg", str(kg_path),
                     "--llm-script", script, "--epochs", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, width", [
        ([], OptimizationConfig.parallel), (["--parallel", "1"], 1), (["--parallel", "3"], 3),
    ])
    def test_parallel_flag_sets_the_width(self, workspace, monkeypatch, flags, width):
        tmp_path, kg_path, claims = workspace
        dataset = tmp_path / "claims.jsonl"
        dataset.write_text(json.dumps({"id": "1", "claim": claims[0]["claim"], "label": "Supported"}))
        widths = []

        def record_width(_policy, _claims, config, *_backends):
            widths.append(config.parallel)
            raise InsufficientData("stop here")

        monkeypatch.setattr(cli.opt, "optimize", record_width)
        script = write_script(tmp_path, [])
        assert main(["optimize", str(dataset), "--kg", kg_path, "--llm-script", script] + flags) == 2
        assert widths == [width]

    def test_negative_epochs_exit_2_before_any_epoch(self, workspace, capsys, monkeypatch):
        tmp_path, kg_path, claims = workspace
        dataset = tmp_path / "claims.jsonl"
        dataset.write_text(json.dumps({"id": "1", "claim": claims[0]["claim"], "label": "Supported"}))
        monkeypatch.setattr(cli.opt, "optimize", None)  # not to be reached
        script = write_script(tmp_path, [])
        code = main(["optimize", str(dataset), "--kg", kg_path, "--llm-script", script,
                     "--epochs", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: epochs must be at least 0, got -1\n"


class TestReplay:
    def write_valid(self, tmp_path):
        graph, claims = build_corpus(2, depth=1)
        runner = EpisodeRunner(
            default_policy(), EpisodeConfig(),
            ScriptedBackend(responder=OracleResponder(specs=claims)),
            FixtureKgBackend(data=graph),
        )
        trajectories = [runner.run(c["claim"])[1] for c in claims]
        path = tmp_path / "trajs.jsonl"
        write_trajectories(str(path), trajectories)
        return str(path)

    def test_valid_trajectories_exit_0(self, tmp_path, capsys):
        path = self.write_valid(tmp_path)
        assert main(["replay", path]) == 0
        out = capsys.readouterr().out
        assert "episode 0:" in out and "episode 1:" in out
        assert "INVARIANT VIOLATION" not in out

    def test_violation_exits_1(self, tmp_path, capsys):
        row = {
            "claim": "c",
            "steps": [
                {"action": {"kind": "expandKG", "payload": None},
                 "observation": {"kind": "subgraph_delta"}},
            ],
            "verdict": None,
            "counters": {},
            "warnings": [],
            "forced_reason": "",
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n")
        assert main(["replay", str(path)]) == 1
        assert "INVARIANT VIOLATION" in capsys.readouterr().out

    def test_unreadable_file_exits_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "nope.jsonl")]) == 2

    def test_empty_file_exits_2(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["replay", str(path)]) == 2

    def test_line_not_an_object_exits_2_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2]\n")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trajectories") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("observation", ["oops", None, {"sufficiency_hint": None},
                                             {"sufficiency_hint": 5}],
                             ids=["string", "null", "hint-null", "hint-number"])
    def test_malformed_observation_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                               observation):
        row = {"claim": "c", "steps": [
            {"action": {"kind": "initKGRetrieval", "payload": "c"}, "observation": observation},
        ]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n")
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trajectories") and len(err.splitlines()) == 1


class TestDatasetNotAnObject:
    @pytest.mark.parametrize("command", ["eval", "optimize"])
    @pytest.mark.parametrize("line", ["[1, 2]", '"text"'])
    def test_exits_2_with_one_error_line(self, workspace, capsys, command, line):
        tmp_path, kg_path, claims = workspace
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(json.dumps({"id": "a", "claim": "A", "label": "true"}) + "\n" + line)
        script = write_script(tmp_path, episode_script("Supported"))
        assert main([command, str(dataset), "--kg", kg_path, "--llm-script", script]) == 2
        assert capsys.readouterr().err == (
            "error: bad dataset record at line 2: record is not a JSON object\n"
        )


class TestConfigPrecedence:
    def test_flag_overrides_file(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kg": "/nonexistent-from-file.json"}))
        script = write_script(tmp_path, episode_script("Supported"))
        code = main(["check", claims[0]["claim"], "--config", str(config),
                     "--kg", kg_path, "--llm-script", script])
        assert code == 0

    def test_unknown_config_key_rejected(self, workspace, capsys):
        tmp_path, kg_path, claims = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"warp_drive": True}))
        script = write_script(tmp_path, episode_script("Supported"))
        code = main(["check", claims[0]["claim"], "--config", str(config),
                     "--kg", kg_path, "--llm-script", script])
        assert code == 2


class TestFlags:
    def test_flags_belong_to_their_subcommand(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["check", "c", "--parallel", "2"])
        assert exc.value.code == 2
        assert parser.parse_args(["eval", "d.jsonl", "--parallel", "2"]).parallel == 2
        args = parser.parse_args(["optimize", "c.jsonl", "--seed", "1", "--epochs", "1",
                                  "--parallel", "3"])
        assert (args.seed, args.epochs, args.parallel) == (1, 1, 3)
