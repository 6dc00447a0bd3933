"""Command-line pipeline: ingest, split, detect, verify, replace, evaluate.

Every subcommand reads and writes only the files named on its command line
and accepts ``--seed`` wherever randomness is involved. ``main`` applies the
``--config`` run config as flag defaults, calls the handler with ``args``
alone, and drops a run manifest (flags, seed, versions, digests of every input
file, the run config included) beside the first output so runs can be
reproduced byte for byte. Exit codes: 0 success, 1 validation failure,
2 transport failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__, corpus, detect, mockllm
from .corpus import Category, CorpusError, Document, Span
from .eval import (
    bias_report,
    cost_summary,
    evaluate_documents,
    load_gender_table,
    load_surname_table,
    parse_and_map_name,
    render_metrics_table,
)
from .hips import (
    EmptyGroup, HipsError, apply_hips, assign_groups, load_name_pools, load_region_table,
    simulate_leakage,
)
from .llm import ChatClient, TransportError
from .verify import VerifierVariant, build_verifier_dataset, verify_spans, write_verifier_training_file

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


class CliError(ValueError):
    pass


def _env_value(path: str | Path, match: re.Match) -> str:
    var = match.group(1)
    if var not in os.environ:
        raise CliError(f"{path}: config references unset environment variable {var}")
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
        raise CliError(f"{path}: config file must hold a JSON object")
    for key, types in _CONFIG_TYPES.items():
        value = _config_value(config, key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, types)):
            expected = " or ".join(t.__name__ for t in types)
            raise CliError(f"{path}: {key} must be {expected}, not {type(value).__name__}")
    config["llm"] = {
        k: _ENV_RE.sub(lambda m: _env_value(path, m), v) if isinstance(v, str) else v
        for k, v in (config.get("llm") or {}).items()
    }
    for key in ("pools", "gender_table", "surname_table", "region_table"):
        if config.get(key) is not None and not Path(config[key]).exists():
            raise CliError(f"{path}: {key} {config[key]!r} does not exist")
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


def _write_manifest(out_path: str | Path, settings: Mapping, args: argparse.Namespace) -> None:
    plain = {
        k: v
        for k, v in sorted(settings.items())
        if isinstance(v, (str, int, float, bool, type(None)))
    }
    inputs = [getattr(args, dest, None) for dest in _INPUT_FLAGS]
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
        "inputs": {str(p): _sha256_file(p) for p in inputs if p and Path(p).exists()},
    }
    corpus.write_json(str(out_path) + ".manifest.json", manifest)


def _load_docs(path: str) -> dict[str, Document]:
    return {d.id: d for d in corpus.read_documents(path)}


def _build_client(args: argparse.Namespace) -> ChatClient:
    if not args.base_url:
        raise CliError("an LLM detector needs --base-url (or llm.base_url in the config)")
    # The llm section's keys are ChatClient's parameter names.
    fields = {
        key.removeprefix("llm."): getattr(args, dest)
        for key, dest in _CONFIG_FLAGS.items()
        if key.startswith("llm.") and getattr(args, dest) is not None
    }
    return ChatClient(**fields)


def _map_docs(
    fn: Callable[[str], list[Span]], ids: Sequence[str], jobs: int
) -> dict[str, list[Span]]:
    """Run ``fn`` over document ids with at most ``jobs`` in flight."""
    if jobs < 1:
        raise CliError("--jobs must be >= 1")
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return dict(zip(ids, pool.map(fn, ids)))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _record_line(path: str, ordinal: int) -> int:
    """Line number of the ``ordinal``-th (1-based) record of a JSON-Lines file."""
    with open(path, encoding="utf-8") as handle:
        records = (lineno for lineno, line in enumerate(handle, start=1) if line.strip())
        return next(itertools.islice(records, ordinal - 1, None))


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.tscc and args.strict:
        raise CliError("--strict applies to --in input, not --tscc")
    if args.infile and args.id is not None:
        raise CliError("--id applies to --tscc input, not --in")
    if args.tscc:
        text = Path(args.tscc).read_text(encoding="utf-8")
        doc, placeholders = corpus.ingest_tscc(text, args.id or Path(args.tscc).stem)
        corpus.write_documents(args.out_docs, [doc])
        corpus.write_standoff(args.out_gold, {doc.id: placeholders})
        return 0

    docs: list[Document] = []
    gold: dict[str, list[Span]] = {}
    dropped: dict[str, int] = {}
    repaired = 0
    for ordinal, rec in enumerate(corpus.read_crapii_jsonl(args.infile), start=1):
        try:
            conversion = corpus.bio_to_spans(rec, strict=args.strict)
        except CorpusError as exc:  # a label or text fault the record reader does not check
            raise CliError(f"{args.infile}:{_record_line(args.infile, ordinal)}: {exc}") from exc
        docs.append(Document(rec.document_id, conversion.text, "crapii"))
        gold[rec.document_id] = conversion.spans
        repaired += conversion.repaired_continuations
        for cat, count in conversion.dropped_categories.items():
            dropped[cat] = dropped.get(cat, 0) + count
    corpus.write_documents(args.out_docs, docs)
    corpus.write_standoff(args.out_gold, gold)
    if repaired or dropped:
        print(
            f"ingest: {repaired} BIO continuation(s) repaired; dropped out-of-scope: "
            f"{json.dumps(dropped, sort_keys=True)}",
            file=sys.stderr,
        )
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    docs = _load_docs(args.infile)
    gold = corpus.read_standoff(args.gold) if args.gold else {}
    entity_counts: dict[str, dict[str, int]] = {doc_id: {} for doc_id in docs}
    for doc_id, spans in gold.items():
        counts: dict[str, int] = {}
        for span in spans:
            counts[span.category.value] = counts.get(span.category.value, 0) + 1
        entity_counts[doc_id] = counts
    ratios = tuple(float(x) for x in args.ratios.split(","))
    if len(ratios) != 3:
        raise CliError("--ratios needs three comma-separated numbers")
    split = corpus.split_corpus(
        entity_counts, ratios=ratios, seed=args.seed, stratify=not args.no_stratify
    )
    corpus.write_json(args.out, split.as_dict())
    return 0


def _select_ids(docs: dict[str, Document], args: argparse.Namespace) -> list[str]:
    if getattr(args, "split_file", None):
        split = corpus.read_json(args.split_file)
        if not isinstance(split, dict) or args.split_name not in split:
            raise CliError(f"{args.split_file}: no set named {args.split_name!r}")
        requested = [str(i) for i in split[args.split_name]]
        missing = [i for i in requested if i not in docs]
        if missing:
            raise CliError(f"{args.split_file}: split references unknown documents: {missing[:5]}")
        return requested
    return sorted(docs)


def _check_known_document(path: str, doc_id: str, docs: Mapping[str, Document]) -> None:
    if doc_id not in docs:
        raise CliError(f"{path}: spans reference unknown document {doc_id!r}")


def _check_span_documents(path: str, spans_by_doc: Mapping, docs: Mapping[str, Document]) -> None:
    """Every span names a known document and fits its text, before any of it is used."""
    for doc_id, spans in spans_by_doc.items():
        _check_known_document(path, doc_id, docs)
        try:
            corpus.validate_spans(docs[doc_id].text, spans)
        except CorpusError as exc:
            raise CliError(f"{path}: document {doc_id!r}: {exc}") from exc


def _cmd_detect(args: argparse.Namespace) -> int:
    docs = _load_docs(args.infile)
    ids = _select_ids(docs, args)

    pools = load_name_pools(args.pools) if args.pools else None
    detector_name = args.detector or "rules"
    if detector_name not in _DETECTORS:
        raise CliError(f"unknown detector {detector_name!r}")
    mode = detector_name.removeprefix("llm-")
    with (nullcontext() if detector_name == "rules" else _build_client(args)) as client:
        def detect_one(doc_id: str) -> list[Span]:
            if client is None:
                return detect.rule_detect(docs[doc_id], pools=pools)
            return detect.llm_detect(docs[doc_id], client, mode).spans

        corpus.write_standoff(args.out, _map_docs(detect_one, ids, args.jobs))
    if client is not None and args.pricing is not None:
        tokens_in, tokens_out = client.estimated_input_tokens, client.estimated_output_tokens
        usd = tokens_in / 1e6 * args.pricing.get("usd_per_1m_input", 0.0) + (
            tokens_out / 1e6 * args.pricing.get("usd_per_1m_output", 0.0)
        )
        corpus.write_json(str(args.out) + ".cost.json", {
            "items": {"evaluation": round(usd, 6)},
            "tokens_per_stage": {"evaluation": tokens_in + tokens_out},
        })
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    docs = _load_docs(args.infile)
    detections = corpus.read_standoff(args.spans)
    client = _build_client(args)
    variant = VerifierVariant(args.variant)
    _check_span_documents(args.spans, detections, docs)

    def verify_one(doc_id: str) -> list[Span]:
        return verify_spans(docs[doc_id], detections[doc_id], client, variant)

    with client:
        corpus.write_standoff(args.out, _map_docs(verify_one, sorted(detections), args.jobs))
    return 0


def _cmd_replace(args: argparse.Namespace) -> int:
    docs = _load_docs(args.infile)
    pools = load_name_pools(args.pools) if args.pools else None

    spans_by_doc = corpus.read_spans(args.spans) if args.spans else {}
    # A span entry for a document missing from --in would never be applied.
    # Span validity is left to apply_hips, which sorts the spans first.
    for doc_id in spans_by_doc:
        _check_known_document(args.spans, doc_id, docs)

    if args.group:
        gender, _, culture = args.group.partition(":")
        if not culture:
            raise CliError("--group must look like Gender:Culture, e.g. Female:Africa")
        group_of = {doc_id: (gender, culture) for doc_id in docs}
    else:
        group_of = assign_groups(sorted(docs), args.seed)

    out_docs: list[Document] = []
    shifted_gold: dict[str, list[Span]] = {}
    audit: list[dict] = []
    for doc_id in sorted(docs):
        doc = docs[doc_id]
        try:
            result = apply_hips(
                doc,
                spans_by_doc.get(doc_id, []),
                group_of[doc_id],
                seed=args.seed,
                pools=pools,
            )
        except (CorpusError, HipsError) as exc:  # a span that does not fit or has no surrogate
            # A group the pools lack is the pools file's fault, not the span file's.
            source = args.pools if isinstance(exc, EmptyGroup) else args.spans
            raise CliError(f"{source}: document {doc_id!r}: {exc}") from exc
        out_docs.append(Document(doc_id, result.text, doc.source))
        shifted_gold[doc_id] = [s for s in result.shifted_spans if isinstance(s.category, Category)]
        audit.append({
            "document": doc_id,
            "group": list(group_of[doc_id]),
            "replacements": [r.as_dict() for r in result.replacements],
        })
    corpus.write_jsonl(args.out_audit, audit)
    corpus.write_documents(args.out_docs, out_docs)
    if args.out_gold:
        corpus.write_standoff(args.out_gold, shifted_gold)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pred = corpus.read_standoff(args.pred)
    gold = corpus.read_standoff(args.gold)
    report = evaluate_documents(pred, gold)
    print(render_metrics_table(report))
    if args.out:
        corpus.write_json(args.out, report.as_dict())
    return 0


def _cmd_bias(args: argparse.Namespace) -> int:
    pred = corpus.read_standoff(args.pred)
    gold = corpus.read_standoff(args.gold)
    for dest in ("gender_table", "surname_table", "region_table"):
        if not getattr(args, dest):
            raise CliError(f"bias needs --{dest.replace('_', '-')} (or {dest} in the config)")
    gender_table = load_gender_table(args.gender_table)
    surname_table = load_surname_table(args.surname_table)
    region_table = load_region_table(args.region_table)

    entries = []
    for doc_id, spans in sorted(gold.items()):
        pred_keys = {(s.start, s.end, s.category) for s in pred.get(doc_id, ())}
        for span in spans:
            if span.category is not Category.NAME_STUDENT:
                continue
            demographic = parse_and_map_name(
                span.surface, gender_table, surname_table, region_table
            )
            entries.append((demographic, (span.start, span.end, span.category) in pred_keys))
    report = bias_report(entries)
    corpus.write_json(args.out, report.as_dict())
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    ledger_input = corpus.read_json(args.ledger)
    if not isinstance(ledger_input, dict):
        raise CliError(f"{args.ledger}: a cost ledger must be a JSON object")
    try:
        ledger = cost_summary(ledger_input.get("items", {}), ledger_input.get("tokens_per_stage"))
    except ValueError as exc:
        raise CliError(f"{args.ledger}: {exc}") from exc
    corpus.write_json(args.out, ledger.as_dict())
    print(json.dumps(ledger.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_simulate_leakage(args: argparse.Namespace) -> int:
    estimate = simulate_leakage(
        fn_rate=args.fn,
        attacker_detect_rate=args.attacker_rate,
        entities_per_doc=args.entities,
        n_docs=args.docs,
        seed=args.seed,
    )
    closed_redaction = 1.0 - (1.0 - args.fn) ** args.entities
    closed_hips = 1.0 - (1.0 - args.fn * args.attacker_rate) ** args.entities
    payload = {
        "redaction_leak_fraction": estimate.redaction_leak_fraction,
        "hips_observed_leak_fraction": estimate.hips_observed_leak_fraction,
        "closed_form_redaction": closed_redaction,
        "closed_form_hips": closed_hips,
        "parameters": {
            "fn": args.fn,
            "attacker_rate": args.attacker_rate,
            "entities_per_doc": args.entities,
            "docs": args.docs,
            "seed": args.seed,
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        corpus.write_json(args.out, payload)
    return 0


def _cmd_make_finetune(args: argparse.Namespace) -> int:
    docs = _load_docs(args.infile)
    gold = corpus.read_standoff(args.gold)
    ids = _select_ids(docs, args)
    _check_span_documents(args.gold, {i: gold[i] for i in ids if i in gold}, docs)
    # A document with no text has nothing to label, and an empty target teaches nothing.
    count = detect.write_finetune_file(
        args.out, ((docs[i], gold.get(i, [])) for i in ids if docs[i].text.strip())
    )
    print(f"wrote {count} training record(s) to {args.out}")
    return 0


def _cmd_make_verifier_data(args: argparse.Namespace) -> int:
    docs = _load_docs(args.infile)
    gold = corpus.read_standoff(args.gold)
    detections = corpus.read_standoff(args.detections)
    _check_span_documents(args.detections, detections, docs)
    variant = VerifierVariant(args.variant)
    with (_build_client(args) if variant is VerifierVariant.WITH_COT else nullcontext()) as client:
        examples = build_verifier_dataset(detections, gold, docs, variant, client=client)
    count = write_verifier_training_file(args.out, examples, variant)
    forced = sum(1 for e in examples if e.forced_default)
    print(f"wrote {count} verifier example(s) to {args.out} ({forced} defaulted to T)")
    return 0


def _cmd_mock_llm(args: argparse.Namespace) -> int:
    if not 0 <= args.port <= 65535:
        raise CliError(f"--port must be between 0 and 65535, not {args.port}")
    gold_by_text: dict[str, list[Span]] = {}
    if args.corpus:
        docs = _load_docs(args.corpus)
        gold = corpus.read_standoff(args.gold) if args.gold else {}
        for doc_id, doc in docs.items():
            gold_by_text[doc.text] = gold.get(doc_id, [])
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
    return 0


# ---------------------------------------------------------------------------
# Parser


_JOBS_HELP = "documents, and so chat requests, in flight at once"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deidkit",
        description="Detect, verify, and replace PII in text corpora.",
    )
    parser.add_argument("--config", help="JSON run configuration; flags override it")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="read a BIO corpus or transcript into documents + spans")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="token-record JSONL input")
    source.add_argument("--tscc", help="role/text transcript input")
    p.add_argument("--id", help="document id for --tscc input")
    p.add_argument("--strict", action="store_true", help="error on malformed BIO continuations")
    p.add_argument("--out-docs", required=True)
    p.add_argument("--out-gold", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("split", help="stratified base/verifier/test partition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gold", help="standoff gold spans used for stratification")
    p.add_argument("--ratios", default="0.25,0.15,0.60")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("detect", help="run a detector over documents")
    p.add_argument("--detector", choices=_DETECTORS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pools", help="name pool CSV for the gazetteer")
    p.add_argument("--split-file")
    p.add_argument("--split-name", default="test")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("verify", help="filter detected spans with a verifier model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--variant", choices=[v.value for v in VerifierVariant], default="without-cot")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("replace", help="hidden-in-plain-sight surrogate replacement")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spans", help="standoff spans or placeholder spans to replace")
    p.add_argument("--pools")
    p.add_argument("--group", help="fixed Gender:Culture group; default assigns per document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-docs", required=True)
    p.add_argument("--out-audit", required=True)
    p.add_argument("--out-gold", help="write shifted spans as standoff gold")
    p.set_defaults(func=_cmd_replace)

    p = sub.add_parser("evaluate", help="exact-match metrics for predictions vs gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bias", help="recall per gender and culture group")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--gender-table")
    p.add_argument("--surname-table")
    p.add_argument("--region-table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser("cost", help="total and per-million-token cost summary")
    p.add_argument("--ledger", required=True, help="JSON with items and tokens_per_stage")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("simulate-leakage", help="document-level leakage Monte Carlo")
    p.add_argument("--fn", type=float, required=True, help="detector false-negative rate")
    p.add_argument("--attacker-rate", type=float, default=1.0)
    p.add_argument("--entities", "-k", type=int, default=10)
    p.add_argument("--docs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate_leakage)

    p = sub.add_parser("make-finetune", help="emit chat-format fine-tuning records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--split-file")
    p.add_argument("--split-name", default="base_train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_finetune)

    p = sub.add_parser("make-verifier-data", help="emit verifier training records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--variant", choices=[v.value for v in VerifierVariant], default="without-cot")
    p.add_argument("--out", required=True)
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_make_verifier_data)

    p = sub.add_parser("mock-llm", help="offline chat endpoint for CI and demos")
    p.add_argument("--mode", choices=list(mockllm.MODES), required=True)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--corpus", help="documents the mock should know gold answers for")
    p.add_argument("--gold")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mock_llm)

    return parser


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.add_argument("--api-key-env")
    p.add_argument("--rpm", type=int)
    p.add_argument("--max-retries", type=int)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = dict(vars(args))
    try:
        _apply_config(args, load_run_config(args.config) if args.config else {})
        code = args.func(args)
        out = getattr(args, "out", None) or getattr(args, "out_docs", None)
        if out:
            _write_manifest(out, settings, args)
        return code
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
