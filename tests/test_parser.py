"""The CLI parser builds only the subcommand it parses with, and behaves as one that builds all.

``_reference_build_parser`` is the parser as it was when every subcommand's
parser was built up front, kept verbatim. Help text, usage errors and parsed
namespaces must match it on every supported Python.
"""

from __future__ import annotations

import argparse

import pytest

from deidkit import cli, mockllm
from deidkit.cli import (
    _DETECTORS,
    _JOBS_HELP,
    VerifierVariant,
    _add_llm_flags,
    _cmd_bias,
    _cmd_cost,
    _cmd_detect,
    _cmd_evaluate,
    _cmd_ingest,
    _cmd_make_finetune,
    _cmd_make_verifier_data,
    _cmd_mock_llm,
    _cmd_replace,
    _cmd_simulate_leakage,
    _cmd_split,
    _cmd_verify,
)


def _reference_build_parser() -> argparse.ArgumentParser:
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


_SUBCOMMANDS = (
    "ingest", "split", "detect", "verify", "replace", "evaluate", "bias", "cost",
    "simulate-leakage", "make-finetune", "make-verifier-data", "mock-llm",
)
_DETECT = ["detect", "--in", "docs.jsonl", "--out", "pred.json"]
_EVALUATE = ["evaluate", "--pred", "p", "--gold", "g"]
_INGEST_OUT = ["--out-docs", "d", "--out-gold", "g"]

_HELP = [["--help"], ["-h"], ["--config", "c", "--help"]] + [[n, "--help"] for n in _SUBCOMMANDS]
_USAGE_ERRORS = [
    [],  # no subcommand
    ["--config", "c"],
    ["nope"],  # unknown subcommand
    ["--config"],  # a flag without its value
    ["ingest", "--in", "a", "--tscc", "b", *_INGEST_OUT],  # mutually exclusive
    ["ingest", *_INGEST_OUT],  # neither source
    ["ingest", "--in", "a"],  # a required flag missing
    [*_DETECT, "--jobs", "two"],
    [*_DETECT, "--detector", "bogus"],
    [*_DETECT, "--s", "x"],  # ambiguous: --split-file or --split-name
    ["verify", "--in", "a", "--spans", "s", "--out", "o", "--variant", "cot"],
    [*_EVALUATE, "--bogus"],
    [*_EVALUATE, "extra"],
    [*_EVALUATE, "--", "extra"],
    ["evaluate", "--pred", "p"],
    ["simulate-leakage", "--fn", "half"],
    ["mock-llm", "--mode", "nope"],
    ["mock-llm", "--port"],
    ["cost", "--help-me"],
]
_VALID = [
    _EVALUATE,
    ["--config=run.json", *_EVALUATE, "--out", "m.json"],
    ["--conf", "run.json", *_DETECT, "--max-r", "3", "--ba", "http://127.0.0.1:1/v1"],
    [*_DETECT, "--detector", "llm-finetuned", "--jobs", "4", "--rpm", "60", "--split-n", "dev"],
    ["ingest", "--tscc", "t.txt", "--id", "t1", *_INGEST_OUT],
    ["ingest", "--in", "c.jsonl", "--strict", "--out-docs=d", "--out-gold=g"],
    ["replace", "--in", "a", "--out-docs", "b", "--out-audit", "c", "--seed", "7", "--group",
     "Female:Africa"],
    ["simulate-leakage", "--fn", "0.1", "-k", "3", "--docs", "10"],
    ["make-verifier-data", "--in", "a", "--gold", "g", "--detections", "d", "--out", "o",
     "--variant", "with-cot", "--model", "m"],
    ["mock-llm", "--mode", "perturb", "--port", "0"],
    ["split", "--in", "a", "--out", "s.json", "--ratios", "0.5,0.2,0.3"],
    ["bias", "--pred", "p", "--gold", "g", "--out", "b.json", "--gender-table", "t.csv"],
    ["cost", "--ledger", "l.json", "--out", "c.json"],
    ["make-finetune", "--in", "a", "--gold", "g", "--out", "o", "--split-file", "s.json"],
]


def _outcome(build, argv, capsys):
    """The namespace ``argv`` parses to, or the exit code; then stdout and stderr."""
    try:
        result = build().parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


@pytest.mark.parametrize("argv, expected", [(a, 0) for a in _HELP] + [(a, 2) for a in _USAGE_ERRORS]
                         + [(a, argparse.Namespace) for a in _VALID], ids=repr)
def test_parser_matches_the_one_that_builds_every_subcommand(argv, expected, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # help and usage wrap at the terminal width
    outcome = _outcome(cli.build_parser, argv, capsys)
    assert outcome == _outcome(_reference_build_parser, argv, capsys)
    result, out, err = outcome
    if expected is argparse.Namespace:
        assert isinstance(result, argparse.Namespace) and not out and not err
    else:
        assert result == expected and bool(out) == (expected == 0) and bool(err) == (expected == 2)


def _parsers_built(monkeypatch, run) -> int:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    return len(built)


def test_a_stage_builds_only_its_own_subcommand_parser(monkeypatch, tmp_path, capsys):
    pred = tmp_path / "pred.json"
    pred.write_text("[]", encoding="utf-8")
    argv = ["evaluate", "--pred", str(pred), "--gold", str(pred)]
    assert _parsers_built(monkeypatch, lambda: cli.main(argv)) == 2  # top level and evaluate
    assert "overall" in capsys.readouterr().out.lower()
    assert _parsers_built(monkeypatch, lambda: _reference_build_parser().parse_args(argv)) == 13
