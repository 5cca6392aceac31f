"""Simulated-latency episode benchmark for claimcheck.

    python3 bench/run.py --workload kg_multihop --seed 1 --seconds 25 --trace 0

Runs the real claimcheck code from ``src/`` against an oracle LLM, a fixture
graph and canned search results, each behind a simulated-latency wrapper
(see simlatency.py), and checks every output (see checks.py).

Workloads (inputs from workloads.py, made from --seed):
  kg_multihop      KG expand-and-prune does the work, no web provider: the
                   decisive fact at hop 1, 2 or 3, or a dense graph without it
  web_fallback     search, BM25, filtering, triplet extraction and fusion do
                   the work: claims that do not link, or link but lack the fact
  optimize_replay  optimize() from a flawed policy; its claims replay every
                   epoch, so it is the one workload whose requests repeat

Load is a closed loop. The eval workloads run batches through
``evaluation.run_benchmark(records, runner, parallelism=2)``; optimize_replay
runs one serial ``optimize.optimize`` call per unit. Units run until
--seconds have passed and at least MIN_EPISODES episodes have completed.
cpu_ms_per_episode comes from zero-latency serial replays of the timed units,
and it and setup_s are scaled to a reference host speed (see REF_PROBE_S).

--trace 0 reports the end-to-end metrics. --trace 1 runs the same units once
without and once with spans around each layer's public functions (tracing.py),
reports the per-layer metrics and the tracing overhead, and writes the spans
to .bench_out/. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "claimcheck" / "__init__.py").is_file():
    sys.exit(f"bench: no claimcheck sources under {ROOT / 'src'}; run from a repository checkout")
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # string hashing decides set order and dict probing; with a random hash
    # seed, CPU per episode is bimodal from one process to the next
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, "PYTHONHASHSEED": "0"})
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from claimcheck import agent, evaluation, optimize  # noqa: E402
from claimcheck.agent import WEB_SEARCH, EpisodeConfig  # noqa: E402
from claimcheck.kg import FixtureKgBackend  # noqa: E402
from claimcheck.llm import ScriptedBackend  # noqa: E402
from claimcheck.policy import default_policy  # noqa: E402
from claimcheck.web import FixtureSearchProvider  # noqa: E402

import workloads  # noqa: E402
from checks import episode_problems, self_check  # noqa: E402
from oracle import FLAWED_MARKER, Oracle, flawed_policy  # noqa: E402
from simlatency import LATENCY_TABLE, Scope, SimEnv, serial_chain  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

CLIENTS = {"kg_multihop": 2, "web_fallback": 2, "optimize_replay": 1}
MIN_EPISODES = 100
# set-up is repeated at least this often and for at least this long: host
# CPU speed drifts within seconds, so the median must span a window
SETUP_REPEATS, SETUP_WINDOW_S = 5, 1.5
# Host CPU speed on a shared VM changes by tens of percent within seconds, in
# CPU and wall time alike. Every CPU-bound figure (cpu_ms_per_episode,
# setup_s) is therefore scaled by REF_PROBE_S / the time of a fixed
# pure-Python probe timed right before and after the measured work: it reads
# as it would on a host where the probe takes REF_PROBE_S (about the median probe
# time on the 2-vCPU Xeon VM the baseline was measured on). The probe does
# not run any claimcheck code, so a slower program still reads slower.
REF_PROBE_S = 0.0075
_PROBE_TEXT = " ".join(f"word{i % 97} Entity_{i % 13} (relation_{i % 7})" for i in range(300))
# The program's CPU per episode is taken from zero-latency serial replays of
# the timed units, at least REPLAYS of them and for at least REPLAY_WINDOW_S.
# In the timed run two thirds of the process CPU is thread wake-ups and
# caches gone cold while the stand-ins sleep, which spread by tens of percent
# from run to run; the replays run the same program work back to back.
REPLAYS, REPLAY_WINDOW_S = 3, 3.0
# inputs are generated up front for at most this many units per second of
# --seconds, several times what this code completes, so set-up stays outside
# the timed loop even for a much faster program
UNITS_PER_SECOND = {"kg_multihop": 2.5, "web_fallback": 2.5, "optimize_replay": 0.6}
MIN_UNITS = {"kg_multihop": 9, "web_fallback": 9, "optimize_replay": 3}
TEMPLATE_IDS = ("expansion_prune", "relation_prune", "sufficiency", "action_select", "verdict",
                "forced_verdict", "web_query", "evidence_filter", "triplet_extract", "reflect",
                "meta_optimizer")
OUT_DIR = ROOT / ".bench_out"


def speed_probe():
    """CPU seconds of a fixed pure-Python workload: tokenising, counting,
    sorting, regex and JSON, as in the program's own per-episode work."""
    start = time.process_time()
    for _ in range(20):
        counts = {}
        for token in _PROBE_TEXT.split():
            counts[token] = counts.get(token, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        json.loads(json.dumps(ranked))
        re.findall(r"Entity_\d+ \((\w+)\)", _PROBE_TEXT)
    return time.process_time() - start


class Setup:
    """Inputs, fixture backends and the policy for one workload run."""

    def __init__(self, workload, seed, n_units):
        self.inputs = workloads.GENERATORS[workload](seed, n_units)
        self.kg = FixtureKgBackend(data=self.inputs.graph)
        results = self.inputs.results
        self.web = None if results is None else FixtureSearchProvider(data=results)
        self.llm = ScriptedBackend(responder=Oracle(self.inputs.specs))
        self.policy = flawed_policy() if workload == "optimize_replay" else default_policy()
        self.specs = {s["claim"]: s for s in self.inputs.specs}


class RunLog:
    def __init__(self):
        self.episodes = []
        self.aux = []  # the optimizer's own reflect and meta calls
        self.unit = 0
        self._ids = itertools.count(1)

    def scope(self, claim=None):
        scope = Scope(next(self._ids), claim or "", self.unit)
        (self.episodes if claim else self.aux).append(scope)
        return scope


class Runner:
    """``run(claim)`` as run_benchmark and optimize() call it: fresh latency
    wrappers per episode, so every backend call lands on its episode."""

    def __init__(self, env, log, policy, config):
        self.env, self.log, self.policy, self.config = env, log, policy, config

    def run(self, claim):
        scope = self.log.scope(claim)
        tracer = self.env.tracer
        scope.start = time.perf_counter()
        try:
            with tracer.episode(scope.id) if tracer else nullcontext():
                scope.result, scope.trajectory = agent.run_episode(
                    claim, self.policy, self.config, self.env.llm_for(scope),
                    self.env.kg_for(scope), self.env.web_for(scope),
                )
        except Exception as exc:
            scope.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            scope.end = time.perf_counter()
        return scope.result, scope.trajectory


class Measured:
    def __init__(self, log, outputs, unit_walls, unit_cpu, unit_probe, wall):
        self.log, self.outputs, self.wall = log, outputs, wall
        self.unit_walls, self.unit_cpu, self.unit_probe = unit_walls, unit_cpu, unit_probe

    def unit_cpu_ms(self, scaled=True):
        """The program's CPU per episode of each unit, scaled to the
        reference probe speed (see REF_PROBE_S)."""
        sizes = Counter(s.unit for s in self.log.episodes)
        return [cpu * 1000.0 / sizes[i] * (REF_PROBE_S / probe if scaled else 1.0)
                for i, (cpu, probe) in enumerate(zip(self.unit_cpu, self.unit_probe))]


class Replays:
    """Zero-latency serial replays of the timed units (see REPLAYS). Keeps
    the first one's reports, whether all agree, and every unit's CPU."""

    def __init__(self, workload, setup, seed, n_units):
        self.reports, self.agree, self.count, spent = None, True, 0, 0.0
        self.cpu_ms, self.raw_cpu_ms = [], []
        while self.count < REPLAYS or spent < REPLAY_WINDOW_S:
            run = measure(workload, setup, seed, 0, n_units=n_units, scale=0.0, clients=1)
            self.reports = self.reports or reports(run.outputs)
            self.agree = self.agree and reports(run.outputs) == self.reports
            self.cpu_ms += run.unit_cpu_ms()
            self.raw_cpu_ms += run.unit_cpu_ms(scaled=False)
            self.count, spent = self.count + 1, spent + run.wall


def run_unit(workload, setup, env, log, index, clients):
    """One unit: a run_benchmark batch, or one optimize() call (always one
    client). Returns the EvalReport or OptimizationRun."""
    log.unit = index
    config = EpisodeConfig()
    if workload == "optimize_replay":
        return optimize.optimize(
            setup.policy, setup.inputs.units[index],
            optimize.OptimizationConfig(epochs=workloads.OPT_EPOCHS, train_size=workloads.OPT_TRAIN,
                                        val_size=workloads.OPT_VAL, seed=index),
            lambda policy: Runner(env, log, policy, config), env.llm_for(log.scope()),
        )
    runner = Runner(env, log, setup.policy, config)
    return evaluation.run_benchmark(setup.inputs.units[index], runner, parallelism=clients)


def report_json(output):
    return json.dumps(output.to_jsonable(), sort_keys=True, ensure_ascii=False)


def measure(workload, setup, seed, seconds, n_units=None, tracer=None, scale=1.0, clients=None):
    """Run units until the time is up (or exactly ``n_units``)."""
    clients = clients or CLIENTS[workload]
    env = SimEnv(seed, setup.llm, setup.kg, setup.web, scale=scale, tracer=tracer)
    log = RunLog()
    outputs, unit_walls, unit_cpu, unit_probe = [], [], [], []
    limit = len(setup.inputs.units) if n_units is None else n_units
    gc.collect()
    t0 = time.perf_counter()
    probe = speed_probe()
    probing = time.perf_counter() - t0  # probe wall time, left out of the run's wall
    for index in range(limit):
        if n_units is None and time.perf_counter() - t0 >= seconds and len(log.episodes) >= MIN_EPISODES:
            break
        start, cpu, standin = time.perf_counter(), time.process_time(), env.standin_cpu_s
        try:
            outputs.append(run_unit(workload, setup, env, log, index, clients))
        except Exception:  # a unit that raises is a failed output, not a crash
            outputs.append(traceback.format_exc())
        unit_walls.append(time.perf_counter() - start)
        unit_cpu.append(time.process_time() - cpu - (env.standin_cpu_s - standin))
        probe_start = time.perf_counter()
        after = speed_probe()
        probing += time.perf_counter() - probe_start
        unit_probe.append((probe + after) / 2.0)
        probe = after
    return Measured(log, outputs, unit_walls, unit_cpu, unit_probe, time.perf_counter() - t0 - probing)


def reports(outputs):
    return [o if isinstance(o, str) else report_json(o) for o in outputs]


def check(workload, setup, measured, reference, against):
    """Failed episode ids and messages. Each unit's report must equal
    ``reference``. Unit-level violations fail every episode of the unit;
    nothing is filtered out."""
    config = EpisodeConfig()
    failed, messages = set(), []
    for scope in measured.log.episodes:
        spec = setup.specs.get(scope.claim)
        problems = ["claim not in the workload"] if spec is None else episode_problems(
            scope, spec, config, check_gold=workload != "optimize_replay")
        if problems:
            failed.add(scope.id)
            messages.append(f"episode {scope.id} ({spec and spec['kind']}): {'; '.join(problems)}")

    for index, output in enumerate(measured.outputs):
        problem = None
        if isinstance(output, str):
            problem = f"raised:\n{output}"
        elif report_json(output) != reference[index]:
            problem = f"report differs from {against}"
        elif workload == "optimize_replay" and not (
            output.selected_val_reward > output.initial_val_reward
            and FLAWED_MARKER not in output.selected.template("sufficiency").text
        ):
            problem = "optimize() did not improve on the flawed policy"
        if problem:
            unit = [s for s in measured.log.episodes if s.unit == index]
            failed.update(s.id for s in unit)
            messages.append(f"unit {index} ({len(unit)} episodes): {problem}")
    return failed, messages


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _share(part, whole):
    return part / whole if whole else 0.0


def end_to_end(workload, setup, measured, replays, setup_s, peak_rss_mb):
    episodes = measured.log.episodes
    n = len(episodes)
    walls = [(s.end - s.start) * 1000.0 for s in episodes]
    golds = [setup.specs[s.claim]["gold_label"] for s in episodes]
    runs = [o for o in measured.outputs if not isinstance(o, str)]
    if workload == "optimize_replay":
        reward = _mean(r.selected_val_reward for r in runs)
        pass_s = _mean(w / workloads.OPT_EPOCHS for w in measured.unit_walls)
    else:
        reward = _mean(optimize.compute_reward(s.trajectory, gold).total
                       for s, gold in zip(episodes, golds) if s.result is not None)
        pass_s = _mean(measured.unit_walls)
    return {
        "episodes_per_s": (n / measured.wall, "1/s"),
        "episode_ms_p50": (statistics.median(walls), "ms"),
        "episode_ms_p90": (statistics.quantiles(walls, n=10, method="inclusive")[8], "ms"),
        "llm_calls_per_episode": (_mean(len(s.llm_calls()) for s in episodes), "count"),
        "llm_serial_calls_per_episode": (
            _mean(serial_chain([(c.issued, c.done) for c in s.llm_calls()]) for s in episodes),
            "count"),
        "cpu_ms_per_episode": (statistics.median(replays.cpu_ms), "ms"),
        "balanced_accuracy": (evaluation.balanced_accuracy(
            [s.result.label if s.result else "" for s in episodes], golds), "ratio"),
        "reward": (reward, "reward"),
        "pass_s": (pass_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, measured, tracer, untraced_wall):
    """Per-episode layer numbers from the traced run (per epoch for optimize.*)."""
    spans, log = tracer.spans, measured.log
    n = len(log.episodes)
    by_name, by_id = {}, {s.id: s for s in spans}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def count(name):
        return len(by_name.get(name, ()))

    def ms(name, self_only=False):
        return sum(own[s.id] if self_only else s.ms for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def under(span, name):
        while span.parent in by_id:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    generate = by_name.get("llm.backend.generate", ())
    templates = Counter(by_id[s.parent].attrs.get("template_id") if s.parent in by_id else None
                        for s in generate)
    children = Counter(s.parent for s in generate)
    llm = [c for scope in log.episodes + log.aux for c in scope.llm_calls()]
    trajectories = [s.trajectory for s in log.episodes if s.trajectory is not None]
    seen_ids, duplicates = {}, 0
    for s in by_name.get("web.filter_evidence", ()):
        ids = seen_ids.setdefault(s.episode, set())
        duplicates += sum(1 for i in s.attrs.get("ids", ()) if i in ids)
        ids.update(s.attrs.get("ids", ()))
    web_steps = sum(t.action_kinds().count(WEB_SEARCH) for t in trajectories)
    fruitful = sum(1 for s in by_name.get("web.search", ()) if s.attrs.get("docs"))
    epochs = workloads.OPT_EPOCHS * len(measured.outputs) if workload == "optimize_replay" else 0
    train = sum(s.ms for s in by_name.get("agent.run_episode", ())
                if under(s, "optimize.optimize") and not under(s, "optimize.validate"))

    m = {f"llm.calls.{t}": (templates[t] / n, "count") for t in TEMPLATE_IDS}
    m.update({
        "llm.busy_ms": (sum(c.done - c.admitted for c in llm) * 1000.0 / n, "ms"),
        "llm.queue_wait_ms": (sum(c.admitted - c.issued for c in llm) * 1000.0 / n, "ms"),
        "llm.prompt_words": (sum(c.prompt_words for c in llm) / n, "count"),
        "llm.repair_retries": (sum(max(0, children[s.id] - 1)
                                   for s in by_name.get("llm.complete_structured", ())) / n, "count"),
        "llm.repeat_share": (_share(len(llm) - len({c.fingerprint for c in llm}), len(llm)), "ratio"),
        "kg.expansions": (count("kg.expand_entity") / n, "count"),
        "kg.relations_of_calls": (count("kg.backend.relations_of") / n, "count"),
        "kg.search_entities_calls": (count("kg.backend.search_entities") / n, "count"),
        "kg.backend_ms": ((ms("kg.backend.relations_of") + ms("kg.backend.search_entities")) / n, "ms"),
        "kg.expand_hop_ms": (ms("kg.expand_hop") / n, "ms"),
        "kg.expand_hop_self_ms": (ms("kg.expand_hop", self_only=True) / n, "ms"),
        "kg.prune_ms": (ms("kg.prune_relations") / n, "ms"),
        "kg.link_ms": (ms("kg.link_entities") / n, "ms"),
        "kg.prune_kept_share": (_share(attr_sum("kg.prune_relations", "kept"),
                                       attr_sum("kg.prune_relations", "candidates")), "ratio"),
        "web.searches": (count("web.search") / n, "count"),
        "web.search_ms": (ms("web.search") / n, "ms"),
        "web.rank_passages_ms": (ms("web.rank_passages") / n, "ms"),
        "web.filter_ms": (ms("web.filter_evidence") / n, "ms"),
        "web.filter_kept_share": (_share(attr_sum("web.filter_evidence", "kept"),
                                         attr_sum("web.filter_evidence", "judged")), "ratio"),
        "web.to_triplets_ms": (ms("web.to_triplets") / n, "ms"),
        "web.integrate_ms": (ms("web.integrate") / n, "ms"),
        "web.duplicate_evidence_ids": (duplicates / n, "count"),
        "agent.sufficiency_ms": (ms("agent.assess_sufficiency") / n, "ms"),
        "agent.select_action_ms": (ms("agent.select_action") / n, "ms"),
        "agent.verdict_ms": ((ms("agent.verdict") + ms("agent.force_verdict")) / n, "ms"),
        "agent.self_ms": (ms("agent.run_episode", self_only=True) / n, "ms"),
        "agent.coerced_share": (_share(sum(1 for t in trajectories for w in t.warnings
                                           if w.startswith("coerced")),
                                       count("agent.select_action")), "ratio"),
        "agent.forced_share": (_share(sum(1 for t in trajectories if t.verdict and t.verdict.forced),
                                      n), "ratio"),
        "agent.wasted_web_steps": ((web_steps - fruitful) / n, "count"),
        "graph.evidence_lines_ms": (ms("graph.evidence_lines") / n, "ms"),
        "evaluation.parallel_efficiency": (
            _share(sum(s.end - s.start for s in log.episodes), CLIENTS[workload] * measured.wall),
            "ratio"),
        "optimize.train_ms": (_share(train, epochs), "ms"),
        "optimize.val_ms": (_share(ms("optimize.validate"), epochs), "ms"),
        "optimize.reflect_ms": (_share(ms("optimize.reflect"), epochs), "ms"),
        "optimize.textual_gradient_ms": (_share(ms("optimize.textual_gradient"), epochs), "ms"),
        "trace.overhead_ms": ((measured.wall - untraced_wall) * 1000.0 / n, "ms"),
        "trace.overhead_share": (_share(measured.wall - untraced_wall, untraced_wall), "ratio"),
    })
    return m


def span_table(tracer):
    own = self_times(tracer.spans)
    rows = {}
    for s in tracer.spans:
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.ms
        row[2] += own[s.id]
    lines = [f"  {'span':<32} {'count':>8} {'total_ms':>12} {'self_ms':>12}"]
    for name in sorted(rows, key=lambda k: -rows[k][2]):
        c, total, own_ms = rows[name]
        lines.append(f"  {name:<32} {c:>8} {total:>12.1f} {own_ms:>12.1f}")
    return "\n".join(lines)


def timed_setup(workload, seed, n_units):
    """Repeated fresh set-ups; returns the last one and the median time,
    raw and scaled to the reference probe speed (see REF_PROBE_S)."""
    times, scaled = [], []
    probe = speed_probe()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_WINDOW_S:
        gc.collect()
        start = time.perf_counter()
        setup = Setup(workload, seed, n_units)
        times.append(time.perf_counter() - start)
        after = speed_probe()
        scaled.append(times[-1] * REF_PROBE_S * 2.0 / (probe + after))
        probe = after
    return setup, statistics.median(times), statistics.median(scaled)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload, seed = args.workload, args.seed

    print(f"bench: workload={workload} seed={seed} seconds={args.seconds:g} trace={args.trace} "
          f"clients={CLIENTS[workload]}")
    for name, model in LATENCY_TABLE:
        print(f"latency {name:<20} {model}")
    messages = [f"self-check: {p}" for p in self_check(seed)]

    n_units = max(MIN_UNITS[workload], math.ceil(args.seconds * UNITS_PER_SECOND[workload]))
    setup, raw_setup_s, setup_s = timed_setup(workload, seed, n_units)
    measured = measure(workload, setup, seed, args.seconds)
    # the high-water mark so far: set-up and the timed run, not the checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replays = Replays(workload, setup, seed, len(measured.outputs))
    failed, problems = check(workload, setup, measured, replays.reports, "a serial rerun's")
    if not replays.agree:
        failed.update(s.id for s in measured.log.episodes)
        problems.append("zero-latency serial replays of the same units disagree")
    messages += problems
    attempted, failed = len(measured.log.episodes), len(failed)

    if args.trace:
        tracer = Tracer()
        fresh = Setup(workload, seed, n_units)
        with tracer.install():
            traced = measure(workload, fresh, seed, args.seconds,
                             n_units=len(measured.outputs), tracer=tracer)
        traced_failed, problems = check(workload, fresh, traced, reports(measured.outputs),
                                        "the untraced run's")
        messages += [f"traced {p}" for p in problems]
        attempted, failed = attempted + len(traced.log.episodes), failed + len(traced_failed)
        if tracer.missing:
            print(f"not traced (missing in claimcheck): {', '.join(tracer.missing)}")
        metrics = per_layer(workload, traced, tracer, measured.wall)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path, origin=min((s.start for s in tracer.spans), default=0.0))
        print(span_table(tracer))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print(f"untraced wall {measured.wall:.3f} s, traced wall {traced.wall:.3f} s "
              f"over {len(traced.log.episodes)} episodes")
    else:
        metrics = end_to_end(workload, setup, measured, replays, setup_s, peak_rss_mb)

    for message in messages[:20]:
        print(f"CHECK FAILED {message}")
    episodes = measured.log.episodes
    print(f"units={len(measured.outputs)} episodes={len(episodes)} attempted={attempted} "
          f"failed={failed} failed_share={_share(failed, attempted):.4f}")
    print(f"speed probe median {statistics.median(measured.unit_probe) * 1000.0:.3f} ms "
          f"(reference {REF_PROBE_S * 1000.0:g} ms); unscaled: "
          f"cpu_ms_per_episode={statistics.median(replays.raw_cpu_ms):.4f} ms "
          f"setup_s={raw_setup_s:.4f} s; replays={replays.count}")
    print(f"timed run, not a metric: cpu_ms_per_episode "
          f"{statistics.median(measured.unit_cpu_ms()):.4f} ms scaled, "
          f"{statistics.median(measured.unit_cpu_ms(scaled=False)):.4f} ms unscaled")
    if workload == "optimize_replay":
        runs = [o for o in measured.outputs if not isinstance(o, str)]
        print(f"optimize_epoch_s={_mean(w / workloads.OPT_EPOCHS for w in measured.unit_walls):.4f} s "
              f"optimize_val_reward={_mean(r.selected_val_reward for r in runs):.4f} "
              f"(initial {_mean(r.initial_val_reward for r in runs):.4f})")
    if workload == "kg_multihop":
        dense = [s for s in episodes if setup.specs[s.claim]["kind"] == "dense"]
        print(f"dense episodes={len(dense)} llm_calls={_mean(len(s.llm_calls()) for s in dense):.2f} "
              f"serial={_mean(serial_chain([(c.issued, c.done) for c in s.llm_calls()]) for s in dense):.2f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6f} {unit}")
    print(f"episode_ms samples={len(episodes)}")

    print(json.dumps({
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
