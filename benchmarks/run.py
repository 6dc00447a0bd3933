"""deidkit benchmark: seeded essays through the real CLI pipeline, checked and timed.

Usage, from the repository root:

    python3 benchmarks/run.py --workload rules-offline --seed 1 --seconds 30 --trace 0

One run generates its corpus from ``--seed``, starts the chat endpoint
(``endpoint.py``, its own process) when the workload needs one, and then
launches fresh pipeline processes (``pipeline.py``) over the same corpus until
``--seconds`` have passed. Each pipeline process calls ``deidkit.cli.main``
once per stage with the argv a user would type. Every pass is checked
independently of ``deidkit`` (spans against the essay text, exit codes, split
sizes, the audit log against the de-identified text, and identical output on
every pass); throughput and CPU time are pooled over passes, start-up is a median.

``--workload all`` (the default) runs the three workloads in turn.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones (``tracing.py``) and prints the per-layer
metrics, including the tracing overhead. A workload's output ends with one
line holding a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list every metric by name and unit. A full record of the
run, with metadata, is written under ``.bench_runs/results/``. The exit code
is 1 if any correctness check failed and 2 if the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

BENCH_DIR = Path(__file__).resolve().parent
JOBS = len(os.sched_getaffinity(0))
RPM = 10_000_000  # far above any run's request count: the rate limiter never sleeps
SETUP_PROBES = 6  # extra launches that only import deidkit.cli; the first warms caches
MIN_PASSES = 2  # at least two, so every run compares a pass's output with another's
RUN_BUDGET_S = 100  # no new pass starts after this, whatever --seconds says
PASS_TIMEOUT_S = 60
CATEGORIES = set(gen.CATEGORY_RATES)


@dataclass(frozen=True)
class Workload:
    docs: int
    why: str
    llm: bool = False  # detect with llm-finetuned instead of rules
    split: bool = False
    verify: bool = False
    drift: bool = False


# Corpus sizes keep one rules pass near 1.5 s and one LLM pass near 12 s on a
# 2-core machine, so a 30-second run makes several passes to pool.
WORKLOADS = {
    "rules-offline": Workload(
        300, "no network: corpus I/O, gazetteer, overlap resolution, HIPS and eval do the work",
        split=True),
    "rules-verify": Workload(
        150, "detect-then-verify: one tiny chat request per rule span, so client and verify dominate",
        verify=True),
    "llm-drift-mix": Workload(
        12, "few large detection requests; half the replies drift, so decode dominates",
        llm=True, drift=True),
}

END_TO_END = {  # name: (unit, higher is better)
    "setup_s": ("s", False),
    "docs_per_s": ("docs/s", True),
    "cpu_ms_per_doc": ("ms", False),
    "peak_rss_mb": ("MB", False),
    "recall": ("ratio", True),
    "precision": ("ratio", True),
    "protected_ratio": ("ratio", True),
    "success_rate": ("ratio", True),
}
STAGES = ("ingest", "split", "detect", "verify", "replace", "evaluate")
TIMED = {  # traced function: metrics reported for it
    "corpus.read_crapii_jsonl": ("busy_s",),
    "corpus.bio_to_spans": ("busy_s",),
    "corpus.read_documents": ("busy_s",),
    "corpus.read_standoff": ("busy_s",),
    "corpus.write_standoff": ("busy_s",),
    "corpus.write_documents": ("busy_s",),
    "corpus.split_corpus": ("busy_s",),
    "detect.rule_detect": ("ms_p50", "ms_tail", "busy_s"),
    "hips.load_name_pools": ("busy_s",),
    "detect.llm_detect": ("ms_p50", "ms_tail", "busy_s"),
    "client.complete": ("ms_p50", "ms_tail", "busy_s"),
    "verify.verify_spans": ("ms_p50", "ms_tail", "busy_s"),
    "hips.apply_hips": ("ms_p50", "busy_s"),
    "eval.evaluate_documents": ("busy_s",),
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"cli.{stage}_s": "s" for stage in STAGES}
    for name, kinds in TIMED.items():
        for kind in kinds:
            units[f"{name}.{kind}"] = "s" if kind == "busy_s" else "ms"
    units.update({
        "corpus.reconstruct_text.calls_per_doc": "count",
        "detect.rule_spans": "count",
        "client.calls": "count",
        "client.attempts_per_call": "ratio",
        "client.overhead_s": "s",
        "endpoint.requests": "count",
        "endpoint.service.busy_s": "s",
        "codec.decode.ms_p50.clean": "ms",
        "codec.decode.ms_tail.clean": "ms",
        "codec.decode.ms_p50.drift": "ms",
        "codec.decode.ms_tail.drift": "ms",
        "codec.decode.busy_s": "s",
        "codec.anchored_exact": "count",
        "codec.anchored_fuzzy": "count",
        "codec.dropped": "count",
        "codec.exact_ratio": "ratio",
        "verify.spans_in": "count",
        "verify.spans_kept": "count",
        "verify.kept_ratio": "ratio",
        "hips.replacements": "count",
        "hips.identity_surrogates": "count",
        "trace.overhead_frac": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# Stages and processes


def stage_argvs(wl: Workload, seed: int, base_url: str | None) -> list[tuple[str, list[str]]]:
    """The deidkit command lines of one pass, run from the pass directory."""
    llm_flags = ["--base-url", str(base_url), "--jobs", str(JOBS), "--rpm", str(RPM)]
    stages = [("ingest", ["ingest", "--in", "../corpus.jsonl", "--out-docs", "docs.jsonl",
                          "--out-gold", "gold.json"])]
    if wl.split:
        stages.append(("split", ["split", "--in", "docs.jsonl", "--gold", "gold.json",
                                 "--seed", str(seed), "--out", "split.json"]))
    if wl.llm:
        stages.append(("detect", ["detect", "--detector", "llm-finetuned", "--in", "docs.jsonl",
                                  "--out", "pred.json", *llm_flags]))
    else:
        stages.append(("detect", ["detect", "--detector", "rules", "--in", "docs.jsonl",
                                  "--pools", "../pools.csv", "--out", "pred.json"]))
    final = "pred.json"
    if wl.verify:
        stages.append(("verify", ["verify", "--in", "docs.jsonl", "--spans", "pred.json",
                                  "--variant", "without-cot", "--out", "verified.json",
                                  *llm_flags]))
        final = "verified.json"
    stages.append(("replace", ["replace", "--in", "docs.jsonl", "--spans", final,
                               "--pools", "../pools.csv", "--seed", str(seed),
                               "--out-docs", "anon.jsonl", "--out-audit", "audit.jsonl",
                               "--out-gold", "anon_gold.json"]))
    stages.append(("evaluate", ["evaluate", "--pred", final, "--gold", "gold.json",
                                "--out", "metrics.json"]))
    return stages


def pipeline_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["NO_PROXY"] = ",".join(p for p in (env.get("NO_PROXY"), "127.0.0.1,localhost") if p)
    return env


def run_pipeline(run_dir: Path, src: Path, stages, trace: bool) -> dict:
    """Launch one pipeline process in ``run_dir`` and return what it reported."""
    run_dir.mkdir()
    spec = {
        "stages": stages,
        "result": str(run_dir / "result.json"),
        "trace": str(run_dir / "spans.jsonl") if trace else None,
    }
    (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(run_dir / "pipeline.log", "w", encoding="utf-8") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "pipeline.py"), str(run_dir / "spec.json")],
            cwd=run_dir, env=pipeline_env(src), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            exit_code = proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            exit_code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = run_dir / "result.json"
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
    result.update(launched=launched, exit=exit_code)
    return result


class Endpoint:
    """The chat endpoint process, started and stopped by the benchmark."""

    def __init__(self, keys: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "endpoint.py"), "--keys", str(keys)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            self.close()
            raise RuntimeError("chat endpoint did not start")
        self.port = int(line[1])
        self.base_url = f"http://127.0.0.1:{self.port}/v1"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        with self._opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Correctness: the benchmark's own readers and exact-match scoring


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _read_spans(path: Path) -> dict[str, list[tuple]]:
    return {
        str(obj["document"]): [(e["start"], e["end"], e["category"], e["text"]) for e in obj["spans"]]
        for obj in json.loads(path.read_text(encoding="utf-8"))
    }


@dataclass
class PassCheck:
    failed: set[str]
    problems: list[str]
    fingerprints: dict[str, str]
    tp: int = 0
    fp: int = 0
    fn: int = 0
    leaked: int = 0
    gold_total: int = 0


def _spans_ok(text: str, spans: list[tuple]) -> bool:
    prev_end = 0
    for start, end, category, surface in spans:
        if not (prev_end <= start < end <= len(text)) or text[start:end] != surface:
            return False
        if category not in CATEGORIES:
            return False
        prev_end = end
    return True


def _audit_ok(text: str, anon: str, spans: list[tuple], replacements: list[dict]) -> bool:
    """The audit log replaces exactly ``spans`` and rebuilds the output text."""
    if [(r["input_offsets"][0], r["input_offsets"][1], r["original"]) for r in replacements] != [
        (s[0], s[1], s[3]) for s in spans
    ]:
        return False
    parts, cursor = [], 0
    for r in replacements:
        start, end = r["input_offsets"]
        parts.append(text[cursor:start])
        out_start = sum(len(p) for p in parts)
        if r["output_offsets"] != [out_start, out_start + len(r["surrogate"])]:
            return False
        parts.append(r["surrogate"])
        cursor = end
    parts.append(text[cursor:])
    return "".join(parts) == anon


def check_pass(pass_dir: Path, corpus: gen.Corpus, wl: Workload, result: dict) -> PassCheck:
    ids = [e.id for e in corpus.essays]
    stages = result.get("stages", [])
    ran = [s["name"] for s in stages if s["rc"] == 0]
    expected = [name for name, _ in stage_argvs(wl, 0, None)]
    if result.get("exit") != 0 or ran != expected:
        failed = next((s for s in stages if s["rc"] != 0), None)
        why = f"stage {failed['name']} exited {failed['rc']}" if failed else f"process exit {result.get('exit')}"
        log = (pass_dir / "pipeline.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        return PassCheck(set(ids), [f"{why}; pipeline log tail:\n{log}"], {})

    problems: list[str] = []
    final_name = "verified.json" if wl.verify else "pred.json"
    try:
        docs = {str(d["id"]): d["text"] for d in _read_jsonl(pass_dir / "docs.jsonl")}
        ingested = _read_spans(pass_dir / "gold.json")
        final = _read_spans(pass_dir / final_name)
        detected = _read_spans(pass_dir / "pred.json")
        anon = {str(d["id"]): d["text"] for d in _read_jsonl(pass_dir / "anon.jsonl")}
        audit = {str(a["document"]): a["replacements"] for a in _read_jsonl(pass_dir / "audit.jsonl")}
        report = json.loads((pass_dir / "metrics.json").read_text(encoding="utf-8"))["overall"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return PassCheck(set(ids), [f"unreadable output: {type(exc).__name__}: {exc}"], {})

    if wl.split:
        try:
            split = json.loads((pass_dir / "split.json").read_text(encoding="utf-8"))
            sets = [split[k] for k in ("base_train", "verifier_train", "test")]
            if sum(len(s) for s in sets) != len(ids) or set().union(*map(set, sets)) != set(ids):
                problems.append(f"split sizes {[len(s) for s in sets]} do not partition {len(ids)} essays")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable split: {exc}")

    check = PassCheck(set(), problems, {})
    for essay in corpus.essays:
        text = essay.text
        spans = final.get(essay.id)
        gold = set(essay.spans)
        ok = (
            docs.get(essay.id) == text
            and [s[:3] for s in ingested.get(essay.id, [])] == [tuple(s) for s in essay.spans]
            and spans is not None
            and _spans_ok(text, spans)
            and (not wl.verify or set(spans) <= set(detected.get(essay.id, [])))
            and essay.id in anon
            and _audit_ok(text, anon[essay.id], spans, audit.get(essay.id, []))
        )
        if not ok:
            check.failed.add(essay.id)
            continue
        predicted = {s[:3] for s in spans}
        check.tp += len(predicted & gold)
        check.fp += len(predicted - gold)
        check.fn += len(gold - predicted)
        check.gold_total += len(gold)
        for start, end, _ in gold:
            cover = next(
                (r for r in audit[essay.id]
                 if r["input_offsets"][0] <= start and end <= r["input_offsets"][1]),
                None,
            )
            if cover is None or cover["surrogate"] == cover["original"]:
                check.leaked += 1
        check.fingerprints[essay.id] = hashlib.sha256(
            json.dumps([spans, anon[essay.id], audit[essay.id]]).encode("utf-8")
        ).hexdigest()
    if not check.failed and (report["tp"], report["fp"], report["fn"]) != (check.tp, check.fp, check.fn):
        problems.append(
            f"evaluate reported tp/fp/fn {report['tp']}/{report['fp']}/{report['fn']}, "
            f"expected {check.tp}/{check.fp}/{check.fn}"
        )
    if check.failed:
        problems.append(f"{len(check.failed)} essay(s) failed the output check, e.g. {sorted(check.failed)[:3]}")
    return check


# ---------------------------------------------------------------------------
# Traced passes: self time and per-layer figures


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= max(start, reach):
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize_spans(path: Path, drifted: set[str]) -> dict:
    """Calls, durations, summed self time and counts per traced name."""
    spans = _read_jsonl(path)
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    layers = defaultdict(lambda: {"calls": 0, "ms": [], "self_s": 0.0, "counts": Counter(), "errors": []})
    for span in spans:
        duration = span["end"] - span["start"]
        covered = _covered([
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children[span["id"]]
        ])
        names = [span["name"]]
        if span["name"] == "codec.decode":
            names.append("codec.decode.drift" if span["doc"] in drifted else "codec.decode.clean")
        for name in names:
            layer = layers[name]
            layer["calls"] += 1
            layer["ms"].append(duration * 1000)
            layer["self_s"] += duration - covered
            layer["counts"].update(span.get("counts", {}))
            if "counts_error" in span:
                layer["errors"].append(span["counts_error"])
    return layers


def throughput(passes: list[dict], wl: Workload) -> float:
    """Documents per second of stage time, pooled over the passes.

    Pooling, rather than a median of per-pass rates, averages over the
    seconds-long slow spells that a shared host imposes on single passes.
    """
    return wl.docs * len(passes) / sum(p["wall_s"] for p in passes)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 100.0)
    return float(np.percentile(ordered, pct)), pct, n


def layer_metrics(traced: list[dict], untraced: list[dict], wl: Workload, name: str) -> tuple[dict, dict, dict]:
    """Per-layer values, tail details and reasons for absent layers."""
    values: dict[str, float] = {}
    tails: dict[str, dict] = {}
    absent: dict[str, str] = {}
    first = traced[0]["layers"]

    def pooled(layer: str) -> list[float]:
        return [ms for p in traced for ms in p["layers"].get(layer, {}).get("ms", [])]

    def busy(layer: str) -> float:
        return statistics.median(p["layers"].get(layer, {}).get("self_s", 0.0) for p in traced)

    def timed(prefix: str, layer: str, kinds, suffix: str = "") -> None:
        samples = pooled(layer)
        for kind in kinds:
            key = f"{prefix}.{kind}{suffix}"
            if kind == "busy_s":
                values[key] = busy(layer)
            elif not samples:
                values[key] = 0.0
                absent[key] = f"{layer} is not called on {name}"
            elif kind == "ms_p50":
                values[key] = float(np.percentile(samples, 50))
            else:
                value, pct, n = tail(samples)
                values[key] = value
                tails[key] = {"percentile": pct, "samples": n, "beyond": round(n * (1 - pct / 100))}

    for layer, kinds in TIMED.items():
        timed(layer, layer, kinds)
    timed("codec.decode", "codec.decode", ("busy_s",))
    timed("codec.decode", "codec.decode.clean", ("ms_p50", "ms_tail"), ".clean")
    timed("codec.decode", "codec.decode.drift", ("ms_p50", "ms_tail"), ".drift")

    for stage in STAGES:
        durations = [
            s["end"] - s["start"] for p in untraced for s in p["result"]["stages"] if s["name"] == stage
        ]
        values[f"cli.{stage}_s"] = statistics.median(durations) if durations else 0.0
        if not durations:
            absent[f"cli.{stage}_s"] = f"{name} has no {stage} stage"

    def count(layer: str, key: str) -> int:
        return first.get(layer, {}).get("counts", {}).get(key, 0)

    def ratio(key: str, num: float, den: float, why: str) -> None:
        values[key] = num / den if den else 0.0
        if not den:
            absent[key] = why

    values["corpus.reconstruct_text.calls_per_doc"] = (
        first.get("corpus.reconstruct_text", {}).get("calls", 0) / wl.docs
    )
    values["detect.rule_spans"] = count("detect.rule_detect", "spans")
    calls = first.get("client.complete", {}).get("calls", 0)
    requests = traced[0]["endpoint"].get("requests", 0)
    values["client.calls"] = calls
    values["endpoint.requests"] = requests
    ratio("client.attempts_per_call", requests, calls, f"no chat calls on {name}")
    endpoint_busy = statistics.median(p["endpoint"].get("service_s", 0.0) for p in traced)
    values["endpoint.service.busy_s"] = endpoint_busy
    values["client.overhead_s"] = values["client.complete.busy_s"] - endpoint_busy
    exact, fuzzy = count("codec.decode", "anchored_exact"), count("codec.decode", "anchored_fuzzy")
    dropped = count("codec.decode", "dropped")
    values.update({"codec.anchored_exact": exact, "codec.anchored_fuzzy": fuzzy, "codec.dropped": dropped})
    ratio("codec.exact_ratio", exact, exact + fuzzy + dropped, f"no marked regions decoded on {name}")
    spans_in, kept = count("verify.verify_spans", "spans_in"), count("verify.verify_spans", "spans_kept")
    values.update({"verify.spans_in": spans_in, "verify.spans_kept": kept})
    ratio("verify.kept_ratio", kept, spans_in, f"nothing verified on {name}")
    values["hips.replacements"] = count("hips.apply_hips", "replacements")
    values["hips.identity_surrogates"] = count("hips.apply_hips", "identity_surrogates")

    values["trace.overhead_frac"] = 1 - throughput(traced, wl) / throughput(untraced, wl)
    for layer, data in first.items():
        if data["errors"]:
            absent[layer] = f"counts unavailable: {data['errors'][0]}"
    return values, tails, absent


# ---------------------------------------------------------------------------
# One run


def metadata(root: Path, args, corpus: gen.Corpus) -> dict:
    sha = None  # an exported checkout has no history to ask
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    loc = sum(
        1
        for path in sorted((root / "src" / "deidkit").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": JOBS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_loc": loc,
        "docs": len(corpus.essays),
        "words": corpus.words,
        "corpus_sha256": gen.digest(corpus),
    }


def run(args, root: Path, work: Path) -> int:
    wl = WORKLOADS[args.workload]
    src = root / "src"
    corpus = gen.generate(args.seed, wl.docs, drift=wl.drift)
    gen.write_inputs(corpus, work)
    drifted = {e.id for e in corpus.essays if e.drift_seed is not None}
    endpoint = None
    if wl.llm or wl.verify:
        gen.write_endpoint_keys(corpus, work / "keys.json")
        endpoint = Endpoint(work / "keys.json")
    try:
        stages = stage_argvs(wl, args.seed, endpoint.base_url if endpoint else None)
        setups = []
        for k in range(SETUP_PROBES):
            probe = run_pipeline(work / f"probe{k}", src, [], trace=False)
            if probe.get("exit") != 0:
                print(f"error: pipeline process failed to start:\n"
                      f"{(work / f'probe{k}' / 'pipeline.log').read_text()[-2000:]}", file=sys.stderr)
                return 2
            if k:
                setups.append(probe["ready"] - probe["launched"])
        deidkit_file = Path(probe["deidkit_file"]).resolve()
        if src.resolve() not in deidkit_file.parents:
            print(f"error: pipeline imported {deidkit_file}, not the checkout's src/", file=sys.stderr)
            return 2

        passes, problems = [], []
        reference: dict[str, str] | None = None
        started = time.monotonic()
        while len(passes) < (2 * MIN_PASSES if args.trace else MIN_PASSES) or (
            time.monotonic() - started < args.seconds
        ):
            if time.monotonic() - started > RUN_BUDGET_S:
                break
            traced = bool(args.trace) and len(passes) % 2 == 1
            before = endpoint.stats() if endpoint else {}
            pass_dir = work / f"pass{len(passes)}"
            result = run_pipeline(pass_dir, src, stages, traced)
            after = endpoint.stats() if endpoint else {}
            served = {k: after[k] - before[k] for k in after}
            check = check_pass(pass_dir, corpus, wl, result)
            if served.get("unknown"):
                check.problems.append(f"endpoint got {served['unknown']} request(s) it has no answer for")
            if served.get("requests", 0) >= RPM:
                check.problems.append("request count reached --rpm; the rate limiter slept")
            if reference is None:
                reference = check.fingerprints
            changed = {i for i, fp in check.fingerprints.items() if reference.get(i, fp) != fp}
            if changed:
                check.failed |= changed
                check.problems.append(f"{len(changed)} essay(s) differ from the first pass")
            record = {"traced": traced, "result": result, "check": check, "endpoint": served}
            if not check.problems:
                record["wall_s"] = result["stages"][-1]["end"] - result["stages"][0]["start"]
                setups.append(result["ready"] - result["launched"])
                if traced:
                    record["layers"] = summarize_spans(pass_dir / "spans.jsonl", drifted)
            passes.append(record)
            problems += [f"pass {len(passes)}: {p}" for p in check.problems]
            shutil.rmtree(pass_dir)
            if check.problems:
                break
    finally:
        if endpoint:
            endpoint.close()

    attempted = wl.docs * len(passes)
    failed = sum(len(p["check"].failed) for p in passes)
    correct = not problems
    untraced = [p for p in passes if not p["traced"]]
    first = passes[0]["check"]
    units: dict[str, str] = {}
    values: dict[str, float] = {}
    details: dict = {}
    if not args.trace:
        quality = {
            "recall": first.tp / (first.tp + first.fn) if first.tp + first.fn else 0.0,
            "precision": first.tp / (first.tp + first.fp) if first.tp + first.fp else 0.0,
            "protected_ratio": 1 - first.leaked / first.gold_total if first.gold_total else 0.0,
            "success_rate": 1 - failed / attempted,
        }
        values.update(quality)
        if correct:  # timings only from runs whose every output checked out
            values["setup_s"] = statistics.median(setups)
            values["docs_per_s"] = throughput(untraced, wl)
            values["cpu_ms_per_doc"] = 1000 * sum(p["result"]["cpu_s"] for p in untraced) / (
                wl.docs * len(untraced))
            values["peak_rss_mb"] = statistics.median(p["result"]["peak_rss_kb"] / 1024 for p in untraced)
        units = {k: END_TO_END[k][0] for k in END_TO_END if k in values}
        details = {"leaked_entities": first.leaked, "gold_entities": first.gold_total,
                   "error_rate": failed / attempted,
                   "samples": {"setup_s": setups,
                               "docs_per_s": [wl.docs / p["wall_s"] for p in untraced],
                               "cpu_s": [p["result"].get("cpu_s") for p in untraced]}}
    elif correct:
        traced = [p for p in passes if p["traced"]]
        values, tails, absent = layer_metrics(traced, untraced, wl, args.workload)
        units = per_layer_units()
        details = {"tails": tails, "absent": absent,
                   "passes": {"traced": len(traced), "untraced": len(untraced)},
                   "busiest": sorted(
                       ((k, round(v, 4)) for k, v in values.items() if k.endswith(".busy_s")),
                       key=lambda kv: -kv[1])[:5]}

    for problem in problems:
        print(f"FAIL {problem}")
    for key in units:
        print(f"{key:<40} {values[key]:>14.6g} {units[key]}")
    for key in ("leaked_entities", "error_rate"):
        if key in details:
            print(f"{key:<40} {details[key]:>14.6g} {'count' if key == 'leaked_entities' else 'ratio'}")
    meta = metadata(root, args, corpus)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    results_dir = root / ".bench_runs" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    record_path.write_text(json.dumps(
        {"meta": meta, "details": details, "problems": problems, **summary}, indent=2), encoding="utf-8")
    print(json.dumps({"meta": meta, **details}))
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all",
                        help="one workload, or all of them in turn (the default)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its endpoint and pipeline processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"stopped by signal {signum}"))

    root = Path.cwd()
    if not (root / "src" / "deidkit" / "cli.py").is_file():
        print("error: src/deidkit not found; run from the repository root", file=sys.stderr)
        return 2
    status = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        work = root / ".bench_runs" / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            status = max(status, run(one, root, work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
