"""Output checks for every benchmark run, and self-checks of the environment.

``episode_problems`` lists what is wrong with one episode; any problem makes
the episode count as failed. ``self_check`` verifies the latency model and
the serial-chain counter the metrics rely on.
"""

from __future__ import annotations

import threading

from claimcheck.agent import INIT_KG, VERDICT_ACTION, WEB_SEARCH
from simlatency import jitter, kg_delay_ms, llm_delay_ms, serial_chain, web_delay_ms

LABELS = ("Supported", "Refuted")


def episode_problems(scope, spec, config, check_gold):
    """Shape, budget and (for oracle-decidable workloads) verdict checks."""
    if scope.error:
        return [f"raised {scope.error}"]
    traj, result = scope.trajectory, scope.result
    if traj is None or result is None or result is not traj.verdict:
        return ["no verdict"]
    problems = []
    kinds = traj.action_kinds()
    if not kinds or kinds[0] != INIT_KG or kinds.count(INIT_KG) != 1:
        problems.append(f"does not open with one {INIT_KG}: {kinds}")
    if kinds.count(VERDICT_ACTION) != 1 or kinds[-1] != VERDICT_ACTION:
        problems.append(f"does not end in exactly one verdict: {kinds}")
    if result.label not in LABELS:
        problems.append(f"verdict label {result.label!r}")
    if len(traj.steps) > config.max_steps + 1 or kinds.count(WEB_SEARCH) > config.max_web_searches:
        problems.append(f"step budget broken: {kinds}")

    k, n = config.k, config.n_hops
    expansions = traj.counters.get("sparql_queries")
    core = traj.counters.get("core_llm_calls")
    fetched = sum(1 for c in scope.calls if c.op == "relations_of")
    if expansions is None or core is None:
        problems.append("trajectory lacks the sparql_queries/core_llm_calls counters")
    elif expansions > k * n or core > n + k * n + 1 or fetched > 2 * k * n:
        problems.append(f"retrieval budget broken: {expansions} expansions, {core} core calls")
    elif spec["kind"] == "dense" and (expansions, core) != (k * n, n + k * n + 1):
        problems.append(f"dense claim used {expansions}/{core}, not {k * n}/{n + k * n + 1}")
    llm_counter = traj.counters.get("llm_calls")
    if llm_counter is not None and llm_counter != len(scope.llm_calls()):
        problems.append(f"llm_calls counter {llm_counter} != {len(scope.llm_calls())} backend calls")

    if check_gold:
        if result.label != spec["gold_label"]:
            problems.append(f"verdict {result.label}, gold {spec['gold_label']}")
        if spec["kind"] != "dense" and not result.citations:
            problems.append("verdict cites no evidence")
    return problems


def self_check(seed):
    """Problems with the latency model or the serial-chain counter, if any."""
    problems = []
    requests = [lambda: llm_delay_ms(seed, "fp-a", 120, 14), lambda: llm_delay_ms(seed, "fp-b", 30, 2),
                lambda: kg_delay_ms(seed, "relations_of", "Q1", "outgoing"),
                lambda: kg_delay_ms(seed, "search_entities", "Ann Lee", 5),
                lambda: web_delay_ms(seed, "ann lee employer", 10)]
    forward = [delay() for delay in requests]
    backward = [delay() for delay in reversed(requests)][::-1]
    threaded = [None] * len(requests)

    def worker(i):
        threaded[i] = requests[i]()

    threads = [threading.Thread(target=worker, args=(i,)) for i in reversed(range(len(requests)))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    if any(t.is_alive() for t in threads) or not forward == backward == threaded:
        problems.append("a request's delay depends on call order or thread")
    if not all(0.75 <= jitter(seed, "probe", i) <= 1.25 for i in range(200)):
        problems.append("jitter outside [0.75, 1.25]")

    # two overlapping calls, then two serial ones: 3 round trips on the critical path
    intervals = [(0.0, 10.0), (2.0, 12.0), (12.0, 20.0), (20.0, 30.0)]
    if serial_chain(intervals) != 3:
        problems.append(f"serial_chain gave {serial_chain(intervals)} for {intervals}, want 3")
    return problems
