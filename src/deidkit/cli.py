"""Command-line pipeline: ingest, split, detect, verify, replace, evaluate.

Every subcommand reads and writes only the files named on its command line
and accepts ``--seed`` wherever randomness is involved. ``main`` applies the
``--config`` run config as flag defaults, calls the handler with ``args``
alone, and drops a run manifest (flags, seed, versions, digests of every input
file, the run config included) beside the first output so runs can be
reproduced byte for byte. Exit codes: 0 success, 1 validation failure,
2 transport failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import threading
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

from . import __version__, corpus, detect, mockllm
from .corpus import Document, Span
from .eval import (
    bias_entries,
    bias_report,
    cost_summary,
    evaluate_documents,
    load_gender_table,
    load_region_table,
    load_surname_table,
    render_metrics_table,
    stage_ledger,
)
from .hips import (
    EmptyGroup, HipsError, apply_hips, assign_groups, load_name_pools, simulate_leakage,
)
from .llm import ChatClient, TransportError
from .verify import VerifierVariant, verifier_examples, verifier_training_record, verify_spans

T = TypeVar("T")
_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

#: Run-config key -> dest of the flag it is the default for. A key under a
#: section is written ``section.key``.
_CONFIG_FLAGS = {
    "pools": "pools",
    "detector": "detector",
    "gender_table": "gender_table",
    "surname_table": "surname_table",
    "region_table": "region_table",
    "llm.base_url": "base_url",
    "llm.model": "model",
    "llm.api_key_env": "api_key_env",
    "llm.requests_per_minute": "rpm",
    "llm.max_retries": "max_retries",
}
#: Types of every known run-config key, sections first; unknown keys are ignored.
_CONFIG_TYPES = {"llm": (dict,), "pricing": (dict,)} | {key: (str,) for key in _CONFIG_FLAGS} | {
    "llm.requests_per_minute": (int,),
    "llm.max_retries": (int,),
    "pricing.usd_per_1m_input": (int, float),
    "pricing.usd_per_1m_output": (int, float),
}
#: Dests of the flags that name input files; the manifest digests each one set.
_INPUT_FLAGS = (
    "config", "infile", "tscc", "gold", "spans", "pred", "detections", "ledger",
    "pools", "split_file", "gender_table", "surname_table", "region_table",
)
#: Every detector: the rules, then one LLM detector per prompt mode.
_DETECTORS = ("rules", *(f"llm-{mode}" for mode in detect.PROMPT_BUILDERS))


def _env_value(path: str | Path, match: re.Match) -> str:
    var = match.group(1)
    if var not in os.environ:
        raise ValueError(f"{path}: config references unset environment variable {var}")
    return os.environ[var]


def _config_value(config: Mapping, key: str):
    section, _, name = key.rpartition(".")
    return ((config.get(section) or {}) if section else config).get(name)


def load_run_config(path: str | Path) -> dict:
    """Declarative run configuration; each key is the default for one flag.

    Environment interpolation (``${VAR}``) is applied only inside the ``llm``
    section, which is the only place secrets could appear.
    """
    config = corpus.read_json(path)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    for key, types in _CONFIG_TYPES.items():
        value = _config_value(config, key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
            expected = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{path}: {key} must be {expected}, not {type(value).__name__}")
        if key.startswith("pricing.") and value is not None and not 0 <= value < float("inf"):
            raise ValueError(f"{path}: {key} must be a non-negative finite number, not {value!r}")
    if config.get("detector") and config["detector"] not in _DETECTORS:
        raise ValueError(f"{path}: unknown detector {config['detector']!r}")
    config["llm"] = {
        k: _ENV_RE.sub(lambda m: _env_value(path, m), v) if isinstance(v, str) else v
        for k, v in (config.get("llm") or {}).items()
    }
    for key, dest in _CONFIG_FLAGS.items():
        if dest in _INPUT_FLAGS and config.get(key) is not None and not Path(config[key]).exists():
            raise ValueError(f"{path}: {key} {config[key]!r} does not exist")
    return config


def _apply_config(args: argparse.Namespace, config: Mapping) -> None:
    """Fill each flag the user left unset from the run config."""
    given = vars(args)
    for key, dest in _CONFIG_FLAGS.items():
        # An empty value counts as unset, as it always has.
        if dest in given and given[dest] in (None, ""):
            setattr(args, dest, _config_value(config, key))
    args.pricing = config.get("pricing")


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_digests(args: argparse.Namespace) -> dict[str, str]:
    """The digest of each input file; one that is a directory raises. A pipe is left out:
    read here, it would be empty when the stage reads it."""
    inputs = (getattr(args, dest, None) for dest in _INPUT_FLAGS)
    files = [p for p in inputs if p and (Path(p).is_file() or Path(p).is_dir())]
    return {str(p): _sha256_file(p) for p in files}


def _write_manifest(
    out_path: str | Path, settings: Mapping, args: argparse.Namespace, inputs: Mapping[str, str]
) -> None:
    plain = {
        k: v
        for k, v in sorted(settings.items())
        if isinstance(v, (str, int, float, bool, type(None)))
    }
    manifest = {
        "command": args.subcommand,
        "settings": plain,
        "config_hash": hashlib.sha256(
            json.dumps(plain, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "seed": getattr(args, "seed", None),
        "versions": {
            "deidkit": __version__,
            "python": sys.version.split()[0],
        },
        "inputs": inputs,
    }
    corpus.write_json(str(out_path) + ".manifest.json", manifest)


def _build_client(args: argparse.Namespace) -> ChatClient:
    if not args.base_url:
        raise ValueError(f"{args.subcommand} needs --base-url (or llm.base_url in the config)")
    # The llm section's keys are ChatClient's parameter names.
    fields = {
        key.removeprefix("llm."): getattr(args, dest)
        for key, dest in _CONFIG_FLAGS.items()
        if key.startswith("llm.") and getattr(args, dest) is not None
    }
    return ChatClient(**fields)


def _map_documents(
    ids: Sequence[str], per_doc: Callable[[str], T], jobs: int, client=None
) -> dict[str, T]:
    """Map ``per_doc`` over ``ids``, at most ``jobs`` in flight; results come in id order.

    Each of ``min(jobs, len(ids))`` threads takes the next document in id order.
    No document starts once one has failed, or once the waiting caller is
    interrupted. The first failure in id order is raised when the running ones
    finish, so the caller writes nothing. ``client`` is closed after the last document.
    """
    results: list = [None] * len(ids)
    failures: dict[int, BaseException] = {}  # by position in ids
    pending, lock, stop = iter(enumerate(ids)), threading.Lock(), threading.Event()
    # Released by each thread as it ends. The caller waits on it, not in join(): on
    # Python before 3.13 a join that Ctrl-C interrupts marks the running thread as ended,
    # so nothing would wait for its document to finish.
    finished = threading.Semaphore(0)

    def work() -> None:
        try:
            while True:
                with lock:
                    item = None if stop.is_set() else next(pending, None)
                if item is None:
                    return
                n, doc_id = item
                try:
                    results[n] = per_doc(doc_id)
                except BaseException as exc:
                    with lock:
                        failures[n] = exc
                        stop.set()
        finally:
            finished.release()

    with client or nullcontext():
        if jobs < 1:
            raise ValueError("--jobs must be >= 1")
        threads = [threading.Thread(target=work) for _ in range(min(jobs, len(ids)))]
        try:
            for thread in threads:
                thread.start()
            for _ in threads:
                finished.acquire()
        finally:  # an interrupted caller lets the running documents finish
            stop.set()
            for thread in filter(threading.Thread.is_alive, threads):
                thread.join()
        if failures:
            raise failures[min(failures)]
        return dict(zip(ids, results))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_ingest(args: argparse.Namespace) -> None:
    if args.tscc and args.strict:
        raise ValueError("--strict applies to --in input, not --tscc")
    if args.infile and args.id is not None:
        raise ValueError("--id applies to --tscc input, not --in")
    if args.tscc:
        try:  # bytes that are not UTF-8, or a line that is not "role: text"
            text = Path(args.tscc).read_text(encoding=corpus.READ_ENCODING)
            doc, placeholders = corpus.ingest_tscc(text, args.id or Path(args.tscc).stem)
        except ValueError as exc:
            raise ValueError(f"{args.tscc}: {exc}") from exc
        corpus.write_documents(args.out_docs, [doc])
        corpus.write_standoff(args.out_gold, {doc.id: placeholders})
        return

    docs: list[Document] = []
    gold: dict[str, list[Span]] = {}
    dropped: Counter = Counter()
    repaired = 0
    for rec, conversion in corpus.read_crapii_jsonl(args.infile, strict=args.strict):
        docs.append(Document(rec.document_id, conversion.text, "crapii"))
        gold[rec.document_id] = conversion.spans
        repaired += conversion.repaired_continuations
        dropped.update(conversion.dropped_categories)
    corpus.write_documents(args.out_docs, docs)
    corpus.write_standoff(args.out_gold, gold)
    if repaired or dropped:
        print(
            f"ingest: {repaired} BIO continuation(s) repaired; dropped out-of-scope: "
            f"{json.dumps(dropped, sort_keys=True)}",
            file=sys.stderr,
        )


def _cmd_split(args: argparse.Namespace) -> None:
    docs = corpus.read_documents(args.infile)
    gold = corpus.read_standoff(args.gold, docs) if args.gold else {}
    entity_counts = {d: Counter(s.category.value for s in gold.get(d, ())) for d in docs}
    try:  # too few or too many parts, or one that is not a number
        base, verifier, test = map(float, args.ratios.split(","))
    except ValueError:
        raise ValueError("--ratios needs three comma-separated numbers") from None
    split = corpus.split_corpus(entity_counts, (base, verifier, test), args.seed, gold=args.gold)
    corpus.write_json(args.out, split.as_dict())


def _cmd_detect(args: argparse.Namespace) -> None:
    docs = corpus.read_documents(args.infile)
    ids = corpus.read_split(args.split_file, args.split_name, docs)

    detector_name = args.detector or "rules"
    if detector_name == "rules":
        pools = load_name_pools(args.pools) if args.pools else None
        corpus.write_standoff(args.out, _map_documents(
            ids, lambda i: detect.rule_detect(docs[i], pools=pools), args.jobs))
        return
    client, mode = _build_client(args), detector_name.removeprefix("llm-")
    corpus.write_standoff(args.out, _map_documents(
        ids, lambda i: detect.llm_detect(docs[i], client, mode).spans, args.jobs, client))
    if args.pricing is not None:
        corpus.write_json(str(args.out) + ".cost.json", stage_ledger(
            "evaluation", client.estimated_input_tokens, client.estimated_output_tokens, args.pricing
        ))


def _cmd_verify(args: argparse.Namespace) -> None:
    docs = corpus.read_documents(args.infile)
    detections = corpus.read_standoff(args.spans, docs)
    client = _build_client(args)
    variant = VerifierVariant(args.variant)
    corpus.write_standoff(args.out, _map_documents(
        sorted(detections), lambda i: verify_spans(docs[i], detections[i], client, variant),
        args.jobs, client))


def _cmd_replace(args: argparse.Namespace) -> None:
    docs = corpus.read_documents(args.infile)
    pools = load_name_pools(args.pools) if args.pools else None
    spans_by_doc = corpus.read_spans(args.spans, docs) if args.spans else {}

    if args.group:
        group = tuple(args.group.split(":"))
        if len(group) != 2 or not all(group):
            raise ValueError("--group must look like Gender:Culture, e.g. Female:Africa")
        group_of = dict.fromkeys(docs, group)
    else:
        group_of = assign_groups(sorted(docs), args.seed)

    results = {}
    for doc_id in sorted(docs):
        try:
            results[doc_id] = apply_hips(docs[doc_id], spans_by_doc.get(doc_id, []), group_of[doc_id],
                                         seed=args.seed, pools=pools)
        except HipsError as exc:  # a span that has no surrogate
            # A group the pools lack is the pools file's fault, not the span file's.
            source = args.pools if isinstance(exc, EmptyGroup) else args.spans
            raise ValueError(f"{source}: document {doc_id!r}: {exc}") from exc
    corpus.write_jsonl(args.out_audit, ({
        "document": i, "group": list(group_of[i]),
        "replacements": [r._asdict() for r in res.replacements],
    } for i, res in results.items()))
    corpus.write_documents(
        args.out_docs, (Document(i, res.text, docs[i].source) for i, res in results.items()))
    if args.out_gold:
        corpus.write_standoff(args.out_gold, {i: res.shifted_spans for i, res in results.items()})


def _cmd_evaluate(args: argparse.Namespace) -> None:
    pred = corpus.read_standoff(args.pred)
    gold = corpus.read_standoff(args.gold)
    report = evaluate_documents(pred, gold)
    print(render_metrics_table(report))
    if args.out:
        corpus.write_json(args.out, {
            "per_category": {c.value: m._asdict() for c, m in report.per_category.items()},
            "overall": report.overall._asdict(),
        })


def _cmd_bias(args: argparse.Namespace) -> None:
    pred = corpus.read_standoff(args.pred)
    gold = corpus.read_standoff(args.gold)
    for dest in ("gender_table", "surname_table", "region_table"):
        if not getattr(args, dest):
            raise ValueError(f"bias needs --{dest.replace('_', '-')} (or {dest} in the config)")
    tables = (load_gender_table(args.gender_table), load_surname_table(args.surname_table),
              load_region_table(args.region_table))
    report = bias_report(bias_entries(pred, gold, *tables))
    corpus.write_json(args.out, report._asdict())


def _cmd_cost(args: argparse.Namespace) -> None:
    ledger = corpus.read_json(args.ledger)
    try:
        summary = cost_summary(ledger)
    except ValueError as exc:
        raise ValueError(f"{args.ledger}: {exc}") from exc
    corpus.write_json(args.out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_simulate_leakage(args: argparse.Namespace) -> None:
    parameters = {"fn": args.fn, "attacker_rate": args.attacker_rate,
                  "entities_per_doc": args.entities, "docs": args.docs, "seed": args.seed}
    payload = simulate_leakage(**parameters)._asdict() | {"parameters": parameters}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        corpus.write_json(args.out, payload)


def _cmd_make_finetune(args: argparse.Namespace) -> None:
    docs = corpus.read_documents(args.infile)
    gold = corpus.read_standoff(args.gold, docs)
    ids = corpus.read_split(args.split_file, args.split_name, docs)
    count = detect.write_finetune_file(args.out, ((docs[i], gold.get(i, [])) for i in ids))
    print(f"wrote {count} training record(s) to {args.out}")


def _cmd_make_verifier_data(args: argparse.Namespace) -> None:
    docs = corpus.read_documents(args.infile)
    gold = corpus.read_standoff(args.gold, docs)
    detections = corpus.read_standoff(args.detections, docs)
    variant = VerifierVariant(args.variant)
    client = _build_client(args) if variant is VerifierVariant.WITH_COT else None
    by_doc = _map_documents(sorted(detections), lambda i: verifier_examples(
        docs[i], detections[i], gold.get(i, ()), variant, client), 1, client)
    examples = [e for doc_examples in by_doc.values() for e in doc_examples]
    count = corpus.write_jsonl(args.out, (verifier_training_record(e, variant) for e in examples))
    forced = sum(1 for e in examples if e.forced_default)
    print(f"wrote {count} verifier example(s) to {args.out} ({forced} defaulted to T)")


def _cmd_mock_llm(args: argparse.Namespace) -> None:
    if not 0 <= args.port <= 65535:
        raise ValueError(f"--port must be between 0 and 65535, not {args.port}")
    if args.gold and not args.corpus:
        raise ValueError(f"--gold {args.gold} needs --corpus, the documents its spans belong to")
    docs = corpus.read_documents(args.corpus) if args.corpus else {}
    gold = corpus.read_standoff(args.gold, docs) if args.gold else {}
    gold_by_text = {doc.text: gold.get(doc_id, []) for doc_id, doc in docs.items()}
    mock = mockllm.MockLlm(args.mode, gold_by_text, seed=args.seed)
    server = mockllm.make_server(mock, port=args.port)
    host, port = server.server_address[:2]
    print(f"mock-llm listening on http://{host}:{port}/v1 (mode={args.mode})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


# ---------------------------------------------------------------------------
# Parser


_JOBS_HELP = "documents, and so chat requests, in flight at once"


class _Subcommand:
    """A subcommand's parser, built only when argparse parses with it.

    argparse calls nothing on a subparser but ``parse_known_args``: the top-level help
    lists each subcommand from its ``help=``. So a stage builds two parsers, the top
    level and its own, not all thirteen.
    """

    def __init__(self, flags: Callable[[argparse.ArgumentParser], None], **kwargs) -> None:
        self._flags, self._kwargs = flags, kwargs  # kwargs: what add_parser forwards, e.g. prog

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(**self._kwargs)
        self._flags(parser)
        return parser

    def parse_known_args(self, args=None, namespace=None):
        return self.parser().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deidkit",
        description="Detect, verify, and replace PII in text corpora.",
    )
    parser.add_argument("--config", help="JSON run configuration; flags override it")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subcommand)
    sub.add_parser("ingest", help="read a BIO corpus or transcript into documents + spans",
                   flags=_ingest_flags)
    sub.add_parser("split", help="stratified base/verifier/test partition", flags=_split_flags)
    sub.add_parser("detect", help="run a detector over documents", flags=_detect_flags)
    sub.add_parser("verify", help="filter detected spans with a verifier model",
                   flags=_verify_flags)
    sub.add_parser("replace", help="hidden-in-plain-sight surrogate replacement",
                   flags=_replace_flags)
    sub.add_parser("evaluate", help="exact-match metrics for predictions vs gold",
                   flags=_evaluate_flags)
    sub.add_parser("bias", help="recall per gender and culture group", flags=_bias_flags)
    sub.add_parser("cost", help="total and per-million-token cost summary", flags=_cost_flags)
    sub.add_parser("simulate-leakage", help="document-level leakage Monte Carlo",
                   flags=_simulate_leakage_flags)
    sub.add_parser("make-finetune", help="emit chat-format fine-tuning records",
                   flags=_make_finetune_flags)
    sub.add_parser("make-verifier-data", help="emit verifier training records",
                   flags=_make_verifier_data_flags)
    sub.add_parser("mock-llm", help="offline chat endpoint for CI and demos", flags=_mock_llm_flags)
    return parser


def _ingest_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="token-record JSONL input")
    source.add_argument("--tscc", help="role/text transcript input")
    p.add_argument("--id", help="document id for --tscc input")
    p.add_argument("--strict", action="store_true", help="error on malformed BIO continuations")
    p.add_argument("--out-docs", required=True)
    p.add_argument("--out-gold", required=True)
    p.set_defaults(func=_cmd_ingest)


def _split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gold", help="standoff gold spans used for stratification")
    p.add_argument("--ratios", default="0.25,0.15,0.60")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)


def _detect_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--detector", choices=_DETECTORS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pools", help="name pool CSV for the gazetteer")
    p.add_argument("--split-file")
    p.add_argument("--split-name", default="test")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_detect)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--variant", choices=[v.value for v in VerifierVariant], default="without-cot")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_verify)


def _replace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spans", help="standoff spans or placeholder spans to replace")
    p.add_argument("--pools")
    p.add_argument("--group", help="fixed Gender:Culture group; default assigns per document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-docs", required=True)
    p.add_argument("--out-audit", required=True)
    p.add_argument("--out-gold", help="write shifted spans as standoff gold")
    p.set_defaults(func=_cmd_replace)


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=_cmd_evaluate)


def _bias_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--gender-table")
    p.add_argument("--surname-table")
    p.add_argument("--region-table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bias)


def _cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ledger", required=True, help="JSON with items and tokens_per_stage")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cost)


def _simulate_leakage_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fn", type=float, required=True, help="detector false-negative rate")
    p.add_argument("--attacker-rate", type=float, default=1.0)
    p.add_argument("--entities", "-k", type=int, default=10)
    p.add_argument("--docs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate_leakage)


def _make_finetune_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--split-file")
    p.add_argument("--split-name", default="base_train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_finetune)


def _make_verifier_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--variant", choices=[v.value for v in VerifierVariant], default="without-cot")
    p.add_argument("--out", required=True)
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_make_verifier_data)


def _mock_llm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=list(mockllm.MODES), required=True)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--corpus", help="documents the mock should know gold answers for")
    p.add_argument("--gold")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mock_llm)


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    for key, dest in _CONFIG_FLAGS.items():
        if key.startswith("llm."):
            p.add_argument(f"--{dest.replace('_', '-')}", type=_CONFIG_TYPES[key][0])


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = dict(vars(args))
    try:
        _apply_config(args, load_run_config(args.config) if args.config else {})
        out = getattr(args, "out", None) or getattr(args, "out_docs", None)
        # Before the stage: it may overwrite an input, or write its output and then fail on one.
        inputs = _input_digests(args) if out else {}
        args.func(args)
        if out:
            _write_manifest(out, settings, args, inputs)
        return 0
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: one line, not a traceback
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
