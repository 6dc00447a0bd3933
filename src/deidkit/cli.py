"""Command-line pipeline: ingest, split, detect, verify, replace, evaluate.

Every subcommand reads and writes only the files named on its command line,
accepts ``--seed`` wherever randomness is involved, and drops a run manifest
(config hash, seed, versions, input digests) beside its first output so runs
can be reproduced byte for byte. Exit codes: 0 success, 1 validation failure,
2 transport failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__, corpus, detect, mockllm
from .corpus import Category, CorpusError, Document, Span
from .detect import ChatClient, EmptyCompletion, LlmClientConfig, TransportError
from .eval import (
    bias_report,
    cost_summary,
    evaluate_documents,
    load_gender_table,
    load_surname_table,
    parse_and_map_name,
    render_metrics_table,
)
from .hips import apply_hips, assign_groups, load_name_pools, load_region_table, simulate_leakage
from .verify import VerifierVariant, build_verifier_dataset, verify_spans, write_verifier_training_file

_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class CliError(ValueError):
    pass


def _interpolate_env(value):
    if isinstance(value, str):
        def repl(match: re.Match) -> str:
            var = match.group(1)
            if var not in os.environ:
                raise CliError(f"config references unset environment variable {var}")
            return os.environ[var]

        return _ENV_RE.sub(repl, value)
    return value


def load_run_config(path: str | Path) -> dict:
    """Declarative run configuration; flags override whatever it sets.

    Environment interpolation (``${VAR}``) is applied only inside the ``llm``
    section, which is the only place secrets could appear.
    """
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise CliError("config file must hold a JSON object")
    llm = config.get("llm")
    if isinstance(llm, dict):
        config["llm"] = {k: _interpolate_env(v) for k, v in llm.items()}
    for key in ("corpus", "pools", "gender_table", "surname_table", "region_table"):
        if key in config and not Path(config[key]).exists():
            raise CliError(f"config path {key}={config[key]!r} does not exist")
    return config


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: str | Path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _write_manifest(
    out_path: str | Path,
    command: str,
    settings: Mapping,
    inputs: Sequence[str | Path],
    seed: int | None,
) -> None:
    plain = {
        k: v
        for k, v in sorted(settings.items())
        if isinstance(v, (str, int, float, bool, type(None)))
    }
    manifest = {
        "command": command,
        "settings": plain,
        "config_hash": hashlib.sha256(
            json.dumps(plain, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "seed": seed,
        "versions": {
            "deidkit": __version__,
            "python": sys.version.split()[0],
        },
        "inputs": {str(p): _sha256_file(p) for p in inputs if Path(p).exists()},
    }
    _write_json(str(out_path) + ".manifest.json", manifest)


def _load_docs(path: str) -> dict[str, Document]:
    docs = corpus.read_documents(path)
    return {d.id: d for d in docs}


def _build_client(args: argparse.Namespace, config: dict) -> ChatClient:
    llm = dict(config.get("llm", {}))
    base_url = args.base_url or llm.get("base_url")
    model = args.model or llm.get("model", "gpt-4o-mini")
    if not base_url:
        raise CliError("an LLM detector needs --base-url (or llm.base_url in the config)")
    client_config = LlmClientConfig(
        base_url=base_url,
        model=model,
        api_key_env=args.api_key_env or llm.get("api_key_env", "DEIDKIT_API_KEY"),
        temperature=args.temperature if args.temperature is not None else llm.get("temperature", 0.0),
        requests_per_minute=args.rpm or llm.get("requests_per_minute", 1000),
        max_retries=args.max_retries if args.max_retries is not None else llm.get("max_retries", 3),
    )
    return ChatClient(client_config)


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


def _cmd_ingest(args: argparse.Namespace, config: dict) -> int:
    if args.tscc:
        doc_id = args.id or Path(args.tscc).stem
        doc, placeholders = corpus.ingest_tscc(
            Path(args.tscc).read_text(encoding="utf-8"), doc_id
        )
        corpus.write_documents(args.out_docs, [doc])
        corpus.write_standoff(args.out_gold, {doc.id: placeholders})
        _write_manifest(args.out_docs, "ingest", vars(args), [args.tscc], None)
        return 0

    records = list(corpus.read_crapii_jsonl(args.infile))
    docs: list[Document] = []
    gold: dict[str, list[Span]] = {}
    dropped: dict[str, int] = {}
    repaired = 0
    for rec in records:
        text = corpus.reconstruct_text(rec)
        conversion = corpus.bio_to_spans(rec, strict=args.strict)
        docs.append(Document(rec.document_id, text, "crapii"))
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
    _write_manifest(args.out_docs, "ingest", vars(args), [args.infile], None)
    return 0


def _cmd_split(args: argparse.Namespace, config: dict) -> int:
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
    _write_json(args.out, split.as_dict())
    _write_manifest(args.out, "split", vars(args), [args.infile] + ([args.gold] if args.gold else []), args.seed)
    return 0


def _select_ids(docs: dict[str, Document], args: argparse.Namespace) -> list[str]:
    if getattr(args, "split_file", None):
        split = json.loads(Path(args.split_file).read_text(encoding="utf-8"))
        if args.split_name not in split:
            raise CliError(f"split file has no set named {args.split_name!r}")
        requested = [str(i) for i in split[args.split_name]]
        missing = [i for i in requested if i not in docs]
        if missing:
            raise CliError(f"split references unknown documents: {missing[:5]}")
        return requested
    return sorted(docs)


def _cmd_detect(args: argparse.Namespace, config: dict) -> int:
    docs = _load_docs(args.infile)
    ids = _select_ids(docs, args)

    pools = None
    pools_path = args.pools or config.get("pools")
    if pools_path:
        pools = load_name_pools(pools_path)

    detector_name = args.detector or config.get("detector", "rules")
    client = None
    if detector_name == "rules":
        def detect_one(doc_id: str) -> list[Span]:
            return detect.rule_detect(docs[doc_id], pools=pools)
    elif detector_name in ("llm-fewshot", "llm-finetuned"):
        client = _build_client(args, config)
        mode = detector_name.removeprefix("llm-")

        def detect_one(doc_id: str) -> list[Span]:
            return detect.llm_detect(docs[doc_id], client, mode).spans
    else:
        raise CliError(f"unknown detector {detector_name!r}")

    corpus.write_standoff(args.out, _map_docs(detect_one, ids, args.jobs))
    pricing = config.get("pricing")
    if client is not None and isinstance(pricing, dict):
        usd = client.estimated_input_tokens / 1e6 * float(
            pricing.get("usd_per_1m_input", 0.0)
        ) + client.estimated_output_tokens / 1e6 * float(
            pricing.get("usd_per_1m_output", 0.0)
        )
        _write_json(
            str(args.out) + ".cost.json",
            {
                "items": {"evaluation": round(usd, 6)},
                "tokens_per_stage": {
                    "evaluation": client.estimated_input_tokens
                    + client.estimated_output_tokens
                },
            },
        )
    inputs = [args.infile] + ([pools_path] if pools_path else [])
    _write_manifest(args.out, "detect", vars(args), inputs, None)
    return 0


def _cmd_verify(args: argparse.Namespace, config: dict) -> int:
    docs = _load_docs(args.infile)
    detections = corpus.read_standoff(args.spans)
    client = _build_client(args, config)
    variant = VerifierVariant(args.variant)

    for doc_id in detections:
        if doc_id not in docs:
            raise CliError(f"spans reference unknown document {doc_id!r}")

    def verify_one(doc_id: str) -> list[Span]:
        return verify_spans(docs[doc_id], detections[doc_id], client, variant, args.window)

    corpus.write_standoff(args.out, _map_docs(verify_one, sorted(detections), args.jobs))
    _write_manifest(args.out, "verify", vars(args), [args.infile, args.spans], None)
    return 0


def _cmd_replace(args: argparse.Namespace, config: dict) -> int:
    docs = _load_docs(args.infile)
    pools_path = args.pools or config.get("pools")
    pools = load_name_pools(pools_path) if pools_path else None

    spans_by_doc = corpus.read_spans(args.spans) if args.spans else {}

    if args.group:
        gender, _, culture = args.group.partition(":")
        if not culture:
            raise CliError("--group must look like Gender:Culture, e.g. Female:Africa")
        group_of = {doc_id: (gender, culture) for doc_id in docs}
    else:
        assignment = assign_groups(sorted(docs), args.seed)
        group_of = assignment.mapping

    out_docs: list[Document] = []
    shifted_gold: dict[str, list[Span]] = {}
    audit_path = Path(args.out_audit)
    with open(audit_path, "w", encoding="utf-8") as audit:
        for doc_id in sorted(docs):
            doc = docs[doc_id]
            result = apply_hips(
                doc,
                spans_by_doc.get(doc_id, []),
                group_of[doc_id],
                seed=args.seed,
                pools=pools,
                consistent=not args.inconsistent,
            )
            out_docs.append(Document(doc_id, result.text, doc.source))
            shifted_gold[doc_id] = [s for s in result.shifted_spans if isinstance(s, Span)]
            audit.write(
                json.dumps(
                    {
                        "document": doc_id,
                        "group": list(group_of[doc_id]),
                        "replacements": [r.as_dict() for r in result.replacements],
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    corpus.write_documents(args.out_docs, out_docs)
    if args.out_gold:
        corpus.write_standoff(args.out_gold, shifted_gold)
    inputs = [args.infile] + ([args.spans] if args.spans else []) + ([pools_path] if pools_path else [])
    _write_manifest(args.out_docs, "replace", vars(args), inputs, args.seed)
    return 0


def _cmd_evaluate(args: argparse.Namespace, config: dict) -> int:
    pred = corpus.read_standoff(args.pred)
    gold = corpus.read_standoff(args.gold)
    report = evaluate_documents(pred, gold)
    print(render_metrics_table(report))
    if args.out:
        _write_json(args.out, report.as_dict())
        _write_manifest(args.out, "evaluate", vars(args), [args.pred, args.gold], None)
    return 0


def _cmd_bias(args: argparse.Namespace, config: dict) -> int:
    pred = corpus.read_standoff(args.pred)
    gold = corpus.read_standoff(args.gold)
    gender_table = load_gender_table(args.gender_table or config["gender_table"])
    surname_table = load_surname_table(args.surname_table or config["surname_table"])
    region_table = load_region_table(args.region_table or config["region_table"])

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
    _write_json(args.out, report.as_dict())
    _write_manifest(
        args.out,
        "bias",
        vars(args),
        [args.pred, args.gold],
        None,
    )
    return 0


def _cmd_cost(args: argparse.Namespace, config: dict) -> int:
    ledger_input = json.loads(Path(args.ledger).read_text(encoding="utf-8"))
    ledger = cost_summary(
        ledger_input.get("items", {}), ledger_input.get("tokens_per_stage", {})
    )
    _write_json(args.out, ledger.as_dict())
    print(json.dumps(ledger.as_dict(), indent=2, sort_keys=True))
    _write_manifest(args.out, "cost", vars(args), [args.ledger], None)
    return 0


def _cmd_simulate_leakage(args: argparse.Namespace, config: dict) -> int:
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
        _write_json(args.out, payload)
        _write_manifest(args.out, "simulate-leakage", vars(args), [], args.seed)
    return 0


def _cmd_make_finetune(args: argparse.Namespace, config: dict) -> int:
    docs = _load_docs(args.infile)
    gold = corpus.read_standoff(args.gold)
    ids = _select_ids(docs, args)
    count = detect.write_finetune_file(
        args.out, ((docs[i], gold.get(i, [])) for i in ids)
    )
    print(f"wrote {count} training record(s) to {args.out}")
    inputs = [args.infile, args.gold] + ([args.split_file] if args.split_file else [])
    _write_manifest(args.out, "make-finetune", vars(args), inputs, None)
    return 0


def _cmd_make_verifier_data(args: argparse.Namespace, config: dict) -> int:
    docs = _load_docs(args.infile)
    gold = corpus.read_standoff(args.gold)
    detections = corpus.read_standoff(args.detections)
    variant = VerifierVariant(args.variant)
    client = _build_client(args, config) if variant is VerifierVariant.WITH_COT else None
    examples = build_verifier_dataset(
        detections, gold, docs, variant, client=client, window_chars=args.window
    )
    count = write_verifier_training_file(args.out, examples, variant)
    forced = sum(1 for e in examples if e.forced_default)
    print(f"wrote {count} verifier example(s) to {args.out} ({forced} defaulted to T)")
    _write_manifest(
        args.out,
        "make-verifier-data",
        vars(args),
        [args.infile, args.gold, args.detections],
        None,
    )
    return 0


def _cmd_mock_llm(args: argparse.Namespace, config: dict) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deidkit",
        description="Detect, verify, and replace PII in text corpora.",
    )
    parser.add_argument("--config", help="JSON run configuration; flags override it")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="read a BIO corpus or transcript into documents + spans")
    p.add_argument("--in", dest="infile", help="token-record JSONL input")
    p.add_argument("--tscc", help="role/text transcript input")
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
    p.add_argument("--detector", choices=["rules", "llm-fewshot", "llm-finetuned"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pools", help="name pool CSV for the gazetteer")
    p.add_argument("--split-file")
    p.add_argument("--split-name", default="test")
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("verify", help="filter detected spans with a verifier model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--variant", choices=[v.value for v in VerifierVariant], default="without-cot")
    p.add_argument("--window", type=int, default=150)
    p.add_argument("--out", required=True)
    _add_llm_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("replace", help="hidden-in-plain-sight surrogate replacement")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spans", help="standoff spans or placeholder spans to replace")
    p.add_argument("--pools")
    p.add_argument("--group", help="fixed Gender:Culture group; default assigns per document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inconsistent", action="store_true", help="resample repeat mentions")
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
    p.add_argument("--window", type=int, default=150)
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
    p.add_argument("--temperature", type=float)
    p.add_argument("--rpm", type=int)
    p.add_argument("--max-retries", type=int)
    p.add_argument(
        "--jobs", type=int, default=1, help="documents, and so chat requests, in flight at once"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_run_config(args.config) if args.config else {}
        return args.func(args, config)
    except (TransportError, EmptyCompletion) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 2
    except (CliError, CorpusError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
