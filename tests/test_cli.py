from __future__ import annotations

import argparse
import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from deidkit import cli, codec, corpus, mockllm
from deidkit.cli import main


@contextmanager
def mock_llm_server(mode: str, corpus_path=None, gold_path=None, seed: int = 0):
    cmd = [sys.executable, "-m", "deidkit", "mock-llm", "--mode", mode, "--seed", str(seed)]
    if corpus_path:
        cmd += ["--corpus", str(corpus_path)]
    if gold_path:
        cmd += ["--gold", str(gold_path)]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"mock-llm did not announce a port: {line!r}"
        yield f"http://{match.group(1)}:{match.group(2)}/v1"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


@contextmanager
def capture_server(reply: bytes):
    """One-off chat endpoint: answers every request with ``reply`` (HTTP 200)
    and records the model each request asked for."""
    models: list[str] = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            models.append(body["model"])
            self.send_response(200)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1", models
    finally:
        server.shutdown()
        server.server_close()


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestIngestAndSplit:
    def test_ingest_crapii(self, fixture_paths, tmp_path):
        out_docs = tmp_path / "docs.jsonl"
        out_gold = tmp_path / "gold.json"
        code = run_cli(
            "ingest",
            "--in", str(fixture_paths["corpus"]),
            "--out-docs", str(out_docs),
            "--out-gold", str(out_gold),
        )
        assert code == 0
        gold = corpus.read_standoff(out_gold)
        assert {s.surface for s in gold["379"]} == {"John Doe", "(555)555-5555"}
        assert (tmp_path / "docs.jsonl.manifest.json").exists()

    def test_ingest_tscc(self, fixture_paths, tmp_path):
        out_docs = tmp_path / "tscc.jsonl"
        out_gold = tmp_path / "tscc_placeholders.json"
        code = run_cli(
            "ingest",
            "--tscc", str(fixture_paths["tscc"]),
            "--id", "tscc-1",
            "--out-docs", str(out_docs),
            "--out-gold", str(out_gold),
        )
        assert code == 0
        payload = json.loads(out_gold.read_text(encoding="utf-8"))
        assert payload[0]["spans"][0]["placeholder"] == "STUDENT"

    def test_ingest_reconstructs_each_record_once(self, fixture_paths, tmp_path, monkeypatch):
        calls: list[str] = []
        reconstruct = corpus.reconstruct_text

        def counting(rec):
            calls.append(rec.document_id)
            return reconstruct(rec)

        monkeypatch.setattr(corpus, "reconstruct_text", counting)
        out_docs = tmp_path / "docs.jsonl"
        code = run_cli(
            "ingest",
            "--in", str(fixture_paths["corpus"]),
            "--out-docs", str(out_docs),
            "--out-gold", str(tmp_path / "gold.json"),
        )
        assert code == 0
        assert sorted(calls) == sorted(doc.id for doc in corpus.read_documents(out_docs))

    @pytest.mark.parametrize(
        "sources", [[], ["--in", "corpus", "--tscc", "tscc"]], ids=["neither", "both"]
    )
    def test_ingest_takes_exactly_one_source(self, fixture_paths, tmp_path, capsys, sources):
        argv = [str(fixture_paths.get(arg, arg)) for arg in sources]
        out_docs = tmp_path / "docs.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("ingest", *argv, "--out-docs", str(out_docs),
                    "--out-gold", str(tmp_path / "g.json"))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--in" in err and "--tscc" in err and "Traceback" not in err
        assert not out_docs.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--in", "corpus", "--id", "zzz"], "--id"), (["--tscc", "tscc", "--strict"], "--strict")],
        ids=["id-with-in", "strict-with-tscc"],
    )
    def test_ingest_rejects_flag_its_input_ignores(self, fixture_paths, tmp_path, capsys, argv, flag):
        argv = [str(fixture_paths.get(arg, arg)) for arg in argv]
        code = run_cli("ingest", *argv, "--out-docs", str(tmp_path / "docs.jsonl"),
                       "--out-gold", str(tmp_path / "g.json"))
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0], lines
        assert not any(tmp_path.iterdir())

    def _ingest_repairable_record(self, tmp_path, *flags: str) -> tuple[Path, int]:
        # An I- tag that continues nothing, and a label outside the four categories.
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({
            "document": "d1",
            "full_text": "Hi Ann Lee from jdoe42",
            "tokens": ["Hi", "Ann", "Lee", "from", "jdoe42"],
            "labels": ["O", "I-NAME_STUDENT", "I-NAME_STUDENT", "O", "B-USERNAME"],
            "trailing_whitespace": [True, True, True, True, False],
        }) + "\n", encoding="utf-8")
        code = run_cli("ingest", "--in", str(records), *flags,
                       "--out-docs", str(tmp_path / "docs.jsonl"),
                       "--out-gold", str(tmp_path / "gold.json"))
        return records, code

    def test_ingest_reports_repairs_and_out_of_scope_labels(self, tmp_path, capsys):
        _, code = self._ingest_repairable_record(tmp_path)
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            'ingest: 1 BIO continuation(s) repaired; dropped out-of-scope: {"USERNAME": 1}'
        ]
        assert corpus.read_standoff(tmp_path / "gold.json")["d1"] == [
            corpus.Span(3, 10, corpus.Category.NAME_STUDENT, "Ann Lee")
        ]

    def test_ingest_strict_names_the_file_and_line(self, tmp_path, capsys):
        records, code = self._ingest_repairable_record(tmp_path, "--strict")
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {records}:1: "), lines
        assert "I-NAME_STUDENT" in lines[0]

    def test_split_deterministic_bytes(self, fixture_paths, tmp_path):
        out_a = tmp_path / "split_a.json"
        out_b = tmp_path / "split_b.json"
        for out in (out_a, out_b):
            code = run_cli(
                "split",
                "--in", str(fixture_paths["corpus"]),
                "--gold", str(fixture_paths["gold"]),
                "--seed", "7",
                "--out", str(out),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        split = json.loads(out_a.read_text(encoding="utf-8"))
        assert set(split) == {"base_train", "verifier_train", "test"}

    def test_inputs_not_mutated(self, fixture_paths, tmp_path):
        before = fixture_paths["corpus"].read_bytes()
        run_cli(
            "split",
            "--in", str(fixture_paths["corpus"]),
            "--seed", "1",
            "--out", str(tmp_path / "s.json"),
        )
        assert fixture_paths["corpus"].read_bytes() == before


class TestDetectAndEvaluate:
    def test_rules_detect_finds_table_spans(self, fixture_paths, tmp_path):
        out = tmp_path / "spans.json"
        code = run_cli(
            "detect",
            "--detector", "rules",
            "--in", str(fixture_paths["corpus"]),
            "--pools", str(fixture_paths["pools"]),
            "--out", str(out),
        )
        assert code == 0
        pred = corpus.read_standoff(out)
        surfaces = {(s.surface, s.category.value) for s in pred["379"]}
        assert ("John Doe", "NAME_STUDENT") in surfaces
        assert ("(555)555-5555", "PHONE_NUM") in surfaces

    def test_evaluate_identical_sets_score_one(self, fixture_paths, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = run_cli(
            "evaluate",
            "--pred", str(fixture_paths["gold"]),
            "--gold", str(fixture_paths["gold"]),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["overall"]["precision"] == 1.0
        assert payload["overall"]["recall"] == 1.0
        assert "Overall" in capsys.readouterr().out

    def test_llm_detect_against_mock(self, fixture_paths, tmp_path):
        out = tmp_path / "llm_spans.json"
        with mock_llm_server(
            "echo-gold", fixture_paths["corpus"], fixture_paths["gold"]
        ) as base_url:
            code = run_cli(
                "detect",
                "--detector", "llm-finetuned",
                "--in", str(fixture_paths["corpus"]),
                "--base-url", base_url,
                "--out", str(out),
                "--jobs", "2",
            )
        assert code == 0
        pred = corpus.read_standoff(out)
        gold = corpus.read_standoff(fixture_paths["gold"])
        assert pred == gold

    def test_perturb_mock_shifts_text_but_keeps_entities(self, mini_docs, mini_gold):
        gold_by_text = {doc.text: mini_gold.get(doc.id, []) for doc in mini_docs.values()}
        echo = mockllm.MockLlm("echo-gold", gold_by_text)
        perturb = mockllm.MockLlm("perturb", gold_by_text)
        shifted = 0
        for doc in mini_docs.values():
            body = {"messages": [{"role": "user", "content": doc.text}]}
            faithful, drifted = echo.respond(body), perturb.respond(body)
            for span in mini_gold.get(doc.id, []):
                open_m, close_m = codec.MARKERS[span.category]
                region = open_m + span.surface + close_m
                assert region in drifted
                # Substitution keeps offsets; only insertions and deletions move a region.
                shifted += drifted.index(region) != faithful.index(region)
        assert shifted > 0

    def test_transport_failure_exit_code(self, fixture_paths, tmp_path):
        code = run_cli(
            "detect",
            "--detector", "llm-finetuned",
            "--in", str(fixture_paths["corpus"]),
            "--base-url", "http://127.0.0.1:1/v1",
            "--max-retries", "0",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_missing_input_is_validation_failure(self, tmp_path):
        code = run_cli(
            "detect",
            "--detector", "rules",
            "--in", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1


class TestVerifyCommand:
    def test_deny_all_mock_empties_spans(self, fixture_paths, tmp_path):
        out = tmp_path / "kept.json"
        with mock_llm_server("deny-all") as base_url:
            code = run_cli(
                "verify",
                "--in", str(fixture_paths["corpus"]),
                "--spans", str(fixture_paths["gold"]),
                "--variant", "without-cot",
                "--base-url", base_url,
                "--out", str(out),
            )
        assert code == 0
        kept = corpus.read_standoff(out)
        assert all(spans == [] for spans in kept.values())

    def test_echo_gold_mock_confirms_everything(self, fixture_paths, tmp_path):
        out = tmp_path / "kept.json"
        with mock_llm_server("echo-gold") as base_url:
            code = run_cli(
                "verify",
                "--in", str(fixture_paths["corpus"]),
                "--spans", str(fixture_paths["gold"]),
                "--variant", "with-cot",
                "--base-url", base_url,
                "--out", str(out),
            )
        assert code == 0
        assert corpus.read_standoff(out) == corpus.read_standoff(fixture_paths["gold"])


class TestReplaceCommand:
    def test_replace_writes_docs_audit_and_gold(self, fixture_paths, tmp_path):
        out_docs = tmp_path / "anon.jsonl"
        out_audit = tmp_path / "audit.jsonl"
        out_gold = tmp_path / "shifted.json"
        code = run_cli(
            "replace",
            "--in", str(fixture_paths["corpus"]),
            "--spans", str(fixture_paths["gold"]),
            "--pools", str(fixture_paths["pools"]),
            "--seed", "3",
            "--out-docs", str(out_docs),
            "--out-audit", str(out_audit),
            "--out-gold", str(out_gold),
        )
        assert code == 0
        docs = {d.id: d for d in corpus.read_documents(out_docs)}
        assert "John Doe" not in docs["379"].text
        shifted = corpus.read_standoff(out_gold)
        for doc_id, spans in shifted.items():
            for span in spans:
                assert docs[doc_id].text[span.start : span.end] == span.surface
        audit_lines = out_audit.read_text(encoding="utf-8").splitlines()
        assert len(audit_lines) == len(docs)
        entry = json.loads(audit_lines[0])
        assert {"document", "group", "replacements"} <= set(entry)

    def test_replace_is_deterministic(self, fixture_paths, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out_docs = tmp_path / f"anon_{tag}.jsonl"
            run_cli(
                "replace",
                "--in", str(fixture_paths["corpus"]),
                "--spans", str(fixture_paths["gold"]),
                "--pools", str(fixture_paths["pools"]),
                "--seed", "3",
                "--out-docs", str(out_docs),
                "--out-audit", str(tmp_path / f"audit_{tag}.jsonl"),
            )
            outs.append(out_docs.read_bytes())
        assert outs[0] == outs[1]

    def test_transcript_pipeline(self, fixture_paths, tmp_path):
        tscc_docs = tmp_path / "tscc_docs.jsonl"
        placeholders = tmp_path / "placeholders.json"
        run_cli(
            "ingest",
            "--tscc", str(fixture_paths["tscc"]),
            "--id", "t1",
            "--out-docs", str(tscc_docs),
            "--out-gold", str(placeholders),
        )
        out_docs = tmp_path / "tscc_anon.jsonl"
        out_gold = tmp_path / "tscc_gold.json"
        code = run_cli(
            "replace",
            "--in", str(tscc_docs),
            "--spans", str(placeholders),
            "--pools", str(fixture_paths["pools"]),
            "--group", "Female:Africa",
            "--seed", "5",
            "--out-docs", str(out_docs),
            "--out-audit", str(tmp_path / "tscc_audit.jsonl"),
            "--out-gold", str(out_gold),
        )
        assert code == 0
        text = corpus.read_documents(out_docs)[0].text
        assert "〈" not in text
        gold = corpus.read_standoff(out_gold)
        assert len(gold["t1"]) == 2  # STUDENT and TEACHER become name spans


    # SHA-256 over anon.jsonl then audit.jsonl. Reruns promise byte-identical
    # outputs, so any change to the surrogate stream has to show up here.
    STREAM_SHA256 = {
        ("corpus", 0): "0b7905e89fa04f50b18b70027e7cf75c35ab3591dcc35c4a6d6417142ce4ee49",
        ("corpus", 3): "aea4c8d9586110caa40dae3e57ebdb312a9ddcd26d12e1ce248887a7311e8324",
        ("tscc", 0): "6726d736d1e25dfd6177457b63ccc6998476cb74a39c67c00ed4ba788729bc02",
        ("tscc", 3): "2c3f1a4d2979abbb132ca78cc7750aae0b3f804c4fe40ba0276b4eea76720826",
    }

    @pytest.mark.parametrize("source,seed", sorted(STREAM_SHA256))
    def test_replace_stream_is_pinned(self, fixture_paths, tmp_path, source, seed):
        if source == "tscc":
            docs, spans = tmp_path / "tdocs.jsonl", tmp_path / "tgold.json"
            assert run_cli("ingest", "--tscc", str(fixture_paths["tscc"]),
                           "--out-docs", str(docs), "--out-gold", str(spans)) == 0
        else:
            docs, spans = fixture_paths["corpus"], fixture_paths["gold"]
        anon, audit = tmp_path / "anon.jsonl", tmp_path / "audit.jsonl"
        assert run_cli("replace", "--in", str(docs), "--spans", str(spans),
                       "--pools", str(fixture_paths["pools"]), "--seed", str(seed),
                       "--out-docs", str(anon), "--out-audit", str(audit)) == 0
        digest = hashlib.sha256(anon.read_bytes() + audit.read_bytes()).hexdigest()
        assert digest == self.STREAM_SHA256[(source, seed)]


class TestUtilityCommands:
    def test_simulate_leakage_matches_closed_form(self, tmp_path, capsys):
        code = run_cli(
            "simulate-leakage",
            "--fn", "0.05",
            "--entities", "10",
            "--docs", "100000",
            "--seed", "0",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["redaction_leak_fraction"] - 0.4013) < 0.01
        assert (
            payload["hips_observed_leak_fraction"] <= payload["redaction_leak_fraction"]
        )

    def test_cost_command(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(
            json.dumps(
                {
                    "items": {"base_finetuning": 7.22, "evaluation": 4.71},
                    "tokens_per_stage": {"all": 12_967_391},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "cost.json"
        assert run_cli("cost", "--ledger", str(ledger), "--out", str(out)) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["total_usd"] == pytest.approx(11.93)
        assert abs(payload["usd_per_1m_tokens"] - 0.92) < 0.01

    def test_make_finetune_respects_split(self, fixture_paths, tmp_path):
        split_path = tmp_path / "split.json"
        run_cli(
            "split",
            "--in", str(fixture_paths["corpus"]),
            "--gold", str(fixture_paths["gold"]),
            "--ratios", "0.4,0.3,0.3",
            "--seed", "2",
            "--out", str(split_path),
        )
        split = json.loads(split_path.read_text(encoding="utf-8"))
        out = tmp_path / "train.jsonl"
        code = run_cli(
            "make-finetune",
            "--in", str(fixture_paths["corpus"]),
            "--gold", str(fixture_paths["gold"]),
            "--split-file", str(split_path),
            "--split-name", "base_train",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(split["base_train"])
        for line in lines:
            json.loads(line)

    def test_make_verifier_data(self, fixture_paths, tmp_path):
        detections = tmp_path / "det.json"
        run_cli(
            "detect",
            "--detector", "rules",
            "--in", str(fixture_paths["corpus"]),
            "--pools", str(fixture_paths["pools"]),
            "--out", str(detections),
        )
        out = tmp_path / "verifier_train.jsonl"
        code = run_cli(
            "make-verifier-data",
            "--in", str(fixture_paths["corpus"]),
            "--gold", str(fixture_paths["gold"]),
            "--detections", str(detections),
            "--variant", "without-cot",
            "--out", str(out),
        )
        assert code == 0
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert records
        labels = {r["messages"][2]["content"] for r in records}
        assert labels <= {"T", "F"}
        assert "F" in labels  # the rule detector produced at least one false positive

    def test_bias_command(self, fixture_paths, tmp_path):
        out = tmp_path / "bias.json"
        code = run_cli(
            "bias",
            "--pred", str(fixture_paths["gold"]),
            "--gold", str(fixture_paths["gold"]),
            "--gender-table", str(fixture_paths["gender"]),
            "--surname-table", str(fixture_paths["surname"]),
            "--region-table", str(fixture_paths["region"]),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["by_culture"]["Africa"] == 1.0
        assert payload["by_gender"]["Female"] == 1.0

    def test_usage_error_nonzero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect"])  # missing required flags
        assert excinfo.value.code != 0

    def test_config_file_supplies_paths(self, fixture_paths, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"pools": str(fixture_paths["pools"]), "detector": "rules"}),
            encoding="utf-8",
        )
        out = tmp_path / "spans.json"
        code = run_cli(
            "--config", str(config),
            "detect",
            "--in", str(fixture_paths["corpus"]),
            "--out", str(out),
        )
        assert code == 0
        pred = corpus.read_standoff(out)
        assert any(s.category.value == "NAME_STUDENT" for s in pred["379"])

    def test_pricing_config_emits_cost_ledger(self, fixture_paths, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"pricing": {"usd_per_1m_input": 0.15, "usd_per_1m_output": 0.60}}),
            encoding="utf-8",
        )
        out = tmp_path / "spans.json"
        with mock_llm_server(
            "echo-gold", fixture_paths["corpus"], fixture_paths["gold"]
        ) as base_url:
            code = run_cli(
                "--config", str(config),
                "detect",
                "--detector", "llm-finetuned",
                "--in", str(fixture_paths["corpus"]),
                "--base-url", base_url,
                "--out", str(out),
            )
        assert code == 0
        ledger = json.loads((tmp_path / "spans.json.cost.json").read_text())
        assert ledger["items"]["evaluation"] > 0
        assert ledger["tokens_per_stage"]["evaluation"] > 0
        # The emitted ledger feeds straight into the cost subcommand.
        cost_out = tmp_path / "cost.json"
        assert run_cli(
            "cost", "--ledger", str(tmp_path / "spans.json.cost.json"), "--out", str(cost_out)
        ) == 0

    def test_config_env_interpolation_in_llm_section(self, fixture_paths, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_LLM_HOST", "127.0.0.1")
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"llm": {"base_url": "http://${TEST_LLM_HOST}:1/v1"}}),
            encoding="utf-8",
        )
        code = run_cli(
            "--config", str(config),
            "detect",
            "--detector", "llm-finetuned",
            "--in", str(fixture_paths["corpus"]),
            "--max-retries", "0",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2  # interpolation resolved; the dead endpoint is a transport error

    def test_config_unset_env_variable_is_validation_error(self, fixture_paths, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"llm": {"base_url": "http://${DEIDKIT_UNSET_VAR_XYZ}/v1"}}),
            encoding="utf-8",
        )
        code = run_cli(
            "--config", str(config),
            "detect",
            "--detector", "llm-finetuned",
            "--in", str(fixture_paths["corpus"]),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1

    def test_manifest_records_seed_and_digests(self, fixture_paths, tmp_path):
        out = tmp_path / "split.json"
        run_cli(
            "split",
            "--in", str(fixture_paths["corpus"]),
            "--seed", "42",
            "--out", str(out),
        )
        manifest = json.loads((tmp_path / "split.json.manifest.json").read_text())
        assert manifest["seed"] == 42
        assert str(fixture_paths["corpus"]) in manifest["inputs"]
        assert re.fullmatch(r"[0-9a-f]{64}", manifest["inputs"][str(fixture_paths["corpus"])])


class TestSpanFiles:
    STUDENT = {"start": 19, "end": 28, "placeholder": "STUDENT", "name_kind": True,
               "text": "〈STUDENT〉"}

    def _write_two_transcripts(self, tmp_path, spans_a, spans_b):
        docs = tmp_path / "docs.jsonl"
        corpus.write_documents(docs, [
            corpus.Document("a", "teacher: nothing to hide here", "tscc"),
            corpus.Document("b", "teacher: well done 〈STUDENT〉", "tscc"),
        ])
        spans = tmp_path / "spans.json"
        spans.write_text(json.dumps([
            {"document": "a", "spans": spans_a},
            {"document": "b", "spans": spans_b},
        ]), encoding="utf-8")
        return docs, spans

    def _replace(self, fixture_paths, tmp_path, docs, spans) -> int:
        return run_cli(
            "replace",
            "--in", str(docs),
            "--spans", str(spans),
            "--pools", str(fixture_paths["pools"]),
            "--group", "Female:Africa",
            "--out-docs", str(tmp_path / "anon.jsonl"),
            "--out-audit", str(tmp_path / "audit.jsonl"),
        )

    def test_placeholder_file_whose_first_document_has_no_spans(self, fixture_paths, tmp_path):
        docs, spans = self._write_two_transcripts(tmp_path, [], [self.STUDENT])
        assert self._replace(fixture_paths, tmp_path, docs, spans) == 0
        out = {d.id: d.text for d in corpus.read_documents(tmp_path / "anon.jsonl")}
        assert out["a"] == "teacher: nothing to hide here"
        assert "〈STUDENT〉" not in out["b"]
        assert out["b"].startswith("teacher: well done ")

    def test_mixed_entry_shapes_are_a_validation_failure(self, fixture_paths, tmp_path, capsys):
        category = {"start": 9, "end": 16, "category": "NAME_STUDENT", "text": "nothing"}
        docs, spans = self._write_two_transcripts(tmp_path, [category], [self.STUDENT])
        assert self._replace(fixture_paths, tmp_path, docs, spans) == 1
        assert "mixes category and placeholder" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["start", "end", "category", "text"])
    def test_malformed_standoff_is_one_line_error(self, fixture_paths, tmp_path, capsys, missing):
        entry = {"start": 0, "end": 4, "category": "NAME_STUDENT", "text": "John"}
        del entry[missing]
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps([{"document": "379", "spans": [entry]}]), encoding="utf-8")
        code = run_cli("evaluate", "--pred", str(pred), "--gold", str(fixture_paths["gold"]))
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(pred) in lines[0] and "'379'" in lines[0] and missing in lines[0]


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("stage", ["detect", "verify"])
    def test_jobs_below_one_rejected(self, fixture_paths, tmp_path, capsys, stage, jobs):
        if stage == "detect":
            argv = ["detect", "--detector", "rules", "--pools", str(fixture_paths["pools"])]
        else:
            # Rejected before any request, so the endpoint is never contacted.
            argv = ["verify", "--spans", str(fixture_paths["gold"]),
                    "--base-url", "http://127.0.0.1:1/v1"]
        argv += ["--in", str(fixture_paths["corpus"]), "--out", str(tmp_path / "x.json"),
                 "--jobs", jobs]
        assert run_cli(*argv) == 1
        assert "error: --jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_make_verifier_data_takes_no_jobs(self, fixture_paths, tmp_path):
        # It calls the endpoint serially, so the flag would have no effect.
        with pytest.raises(SystemExit) as excinfo:
            run_cli("make-verifier-data", "--in", str(fixture_paths["corpus"]),
                    "--gold", str(fixture_paths["gold"]),
                    "--detections", str(fixture_paths["gold"]),
                    "--out", str(tmp_path / "v.jsonl"), "--jobs", "2")
        assert excinfo.value.code == 2

    def _outputs_by_jobs(self, tmp_path, argv) -> list[bytes]:
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"{argv[0]}-jobs{jobs}.json"
            assert run_cli(*argv, "--jobs", jobs, "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        return outputs

    def test_jobs_do_not_change_output(self, fixture_paths, tmp_path):
        corpus_path = str(fixture_paths["corpus"])
        rules = self._outputs_by_jobs(tmp_path, [
            "detect", "--detector", "rules", "--in", corpus_path,
            "--pools", str(fixture_paths["pools"]),
        ])
        assert rules[0] == rules[1]
        with mock_llm_server("perturb", corpus_path, fixture_paths["gold"]) as base_url:
            llm = self._outputs_by_jobs(tmp_path, [
                "detect", "--detector", "llm-finetuned", "--in", corpus_path,
                "--base-url", base_url,
            ])
        assert llm[0] == llm[1]
        rules_spans = tmp_path / "detect-jobs1.json"
        with mock_llm_server("echo-gold", corpus_path, fixture_paths["gold"]) as base_url:
            verified = self._outputs_by_jobs(tmp_path, [
                "verify", "--in", corpus_path, "--spans", str(rules_spans),
                "--base-url", base_url,
            ])
        assert verified[0] == verified[1]


_UNKNOWN_DOCUMENT_SPANS = (
    '[{"document": "nope", "spans": [{"start": 0, "end": 2, "category": "EMAIL", "text": "hi"}]}]'
)
_VERIFY = ["verify", "--in", "{corpus}", "--spans", "{gold}", "--base-url", "http://127.0.0.1:1/v1"]

# Each case: the content of the malformed file and the command that reads it,
# with {bad} for that file and the other fixture names for good inputs.
_MALFORMED_INPUTS = {
    "documents-line-missing-id": (
        '{"text": "no id here"}\n', ["detect", "--detector", "rules", "--in", "{bad}"]),
    "documents-line-not-json": (
        '{"id": "a", "text": \n', ["detect", "--detector", "rules", "--in", "{bad}"]),
    "token-record-missing-trailing-whitespace": (
        '{"document": "d", "tokens": ["hi"], "labels": ["O"]}\n',
        ["detect", "--detector", "rules", "--in", "{bad}"]),
    "span-file-not-json": ('[{"document": ', ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "span-file-a-bare-object": (
        '{"document": "379", "spans": []}', ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "span-file-of-placeholders-as-pred": (
        '[{"document": "379", "spans": [{"start": 3, "end": 11, "placeholder": "STUDENT", '
        '"name_kind": true, "text": "John Doe"}]}]',
        ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "gender-table-without-gender": (
        "first_name,count\nAmina,3\n",
        ["bias", "--pred", "{gold}", "--gold", "{gold}", "--gender-table", "{bad}",
         "--surname-table", "{surname}", "--region-table", "{region}"]),
    "pools-without-kind": (
        "gender,culture,name\nFemale,Africa,Amina\n",
        ["detect", "--detector", "rules", "--in", "{corpus}", "--pools", "{bad}"]),
    "ledger-is-a-list": ("[]", ["cost", "--ledger", "{bad}"]),
    "ledger-item-not-a-number": ('{"items": {"a": "x"}}', ["cost", "--ledger", "{bad}"]),
    "ledger-items-a-list": ('{"items": [1]}', ["cost", "--ledger", "{bad}"]),
    "ledger-tokens-per-stage-a-list": (
        '{"items": {"a": 1}, "tokens_per_stage": [1]}', ["cost", "--ledger", "{bad}"]),
    "ledger-token-count-not-an-integer": (
        '{"items": {"a": 1}, "tokens_per_stage": {"a": "x"}}', ["cost", "--ledger", "{bad}"]),
    "gender-table-count-not-an-integer": (
        "first_name,gender,count\nAmina,Female,x\n",
        ["bias", "--pred", "{gold}", "--gold", "{gold}", "--gender-table", "{bad}",
         "--surname-table", "{surname}", "--region-table", "{region}"]),
    "token-record-text-mismatch": (
        '{"document": "d", "tokens": ["hi"], "labels": ["O"], "trailing_whitespace": [false],'
        ' "full_text": "ho"}\n',
        ["detect", "--detector", "rules", "--in", "{bad}"]),
    # The endpoint is never contacted: the config is checked before any stage runs.
    "config-llm-not-an-object": ('{"llm": "x"}', ["--config", "{bad}", *_VERIFY]),
    "config-max-retries-a-string": (
        '{"llm": {"max_retries": "3"}}', ["--config", "{bad}", *_VERIFY]),
    "config-unset-env-variable": (
        '{"llm": {"base_url": "http://${DEIDKIT_UNSET_VAR_XYZ}/v1"}}',
        ["--config", "{bad}", *_VERIFY]),
    "config-pools-a-number": (
        '{"pools": 5}', ["--config", "{bad}", "detect", "--detector", "rules", "--in", "{corpus}"]),
    "verify-spans-unknown-document": (
        _UNKNOWN_DOCUMENT_SPANS,
        ["verify", "--in", "{corpus}", "--spans", "{bad}", "--base-url", "http://127.0.0.1:1/v1"]),
    "make-verifier-data-unknown-document": (
        _UNKNOWN_DOCUMENT_SPANS,
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{gold}", "--detections", "{bad}"]),
    # Spans are checked against their document before any of them is used.
    "verify-span-out-of-bounds": (
        '[{"document": "379", "spans": [{"start": 5, "end": 10000, "category": "EMAIL", '
        '"text": "zzz"}]}]',
        ["verify", "--in", "{corpus}", "--spans", "{bad}", "--base-url", "http://127.0.0.1:1/v1"]),
    "make-verifier-data-span-surface-differs": (
        '[{"document": "379", "spans": [{"start": 3, "end": 11, "category": "NAME_STUDENT", '
        '"text": "Jane Roe"}]}]',
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{gold}", "--detections", "{bad}"]),
    "split-file-unknown-document": (
        '{"test": ["nope"]}',
        ["detect", "--detector", "rules", "--in", "{corpus}", "--split-file", "{bad}"]),
    # Spans meant for document 379 under a wrong id would leave "John Doe" in it.
    "replace-spans-unknown-document": (
        '[{"document": "379x", "spans": [{"start": 3, "end": 11, "category": "NAME_STUDENT", '
        '"text": "John Doe"}]}]',
        ["replace", "--in", "{corpus}", "--spans", "{bad}", "--pools", "{pools}",
         "--out-docs", "{bad}.docs.jsonl", "--out-audit", "{bad}.audit.jsonl"]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_input_is_one_line_error(fixture_paths, tmp_path, capsys, case):
    content, template = _MALFORMED_INPUTS[case]
    bad = tmp_path / "malformed.input"
    bad.write_text(content, encoding="utf-8")
    names = {k: str(v) for k, v in fixture_paths.items()} | {"bad": str(bad)}
    argv = [arg.format(**names) for arg in template]
    if "replace" not in argv:  # replace names its own outputs; it has no --out
        argv += ["--out", str(tmp_path / "out.json")]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert str(bad) in lines[0], lines[0]


def test_replace_span_out_of_bounds_names_the_span_file(fixture_paths, tmp_path, capsys):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps([{"document": "379", "spans": [
        {"start": 0, "end": 10_000, "category": "EMAIL", "text": "x"}]}]), encoding="utf-8")
    code = run_cli("replace", "--in", str(fixture_paths["corpus"]), "--spans", str(spans),
                   "--pools", str(fixture_paths["pools"]),
                   "--out-docs", str(tmp_path / "anon.jsonl"), "--out-audit", str(tmp_path / "a.jsonl"))
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert str(spans) in lines[0] and "out of bounds" in lines[0], lines[0]


@pytest.mark.parametrize("source", ["tscc-placeholder", "name-span"])
def test_replace_without_pools_names_the_flag_and_the_span_file(
    fixture_paths, tmp_path, capsys, source
):
    if source == "tscc-placeholder":
        docs, spans = tmp_path / "tdocs.jsonl", tmp_path / "tgold.json"
        assert run_cli("ingest", "--tscc", str(fixture_paths["tscc"]),
                       "--out-docs", str(docs), "--out-gold", str(spans)) == 0
        capsys.readouterr()
    else:
        docs, spans = fixture_paths["corpus"], fixture_paths["gold"]
    code = run_cli("replace", "--in", str(docs), "--spans", str(spans),
                   "--out-docs", str(tmp_path / "anon.jsonl"), "--out-audit", str(tmp_path / "a.jsonl"))
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "--pools" in lines[0] and str(spans) in lines[0], lines[0]


def test_replace_pools_without_the_group_names_the_pools_file(fixture_paths, tmp_path, capsys):
    pools = tmp_path / "pools.csv"
    rows = fixture_paths["pools"].read_text(encoding="utf-8").splitlines(keepends=True)
    pools.write_text("".join(row for row in rows if ",Oceania," not in row), encoding="utf-8")
    code = run_cli("replace", "--in", str(fixture_paths["corpus"]),
                   "--spans", str(fixture_paths["gold"]), "--pools", str(pools),
                   "--group", "Female:Oceania",
                   "--out-docs", str(tmp_path / "anon.jsonl"), "--out-audit", str(tmp_path / "a.jsonl"))
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {pools}: "), err
    assert "(Female, Oceania)" in lines[0]


@pytest.mark.parametrize("argv", [
    ["verify", "--in", "{corpus}", "--spans", "{gold}", "--window", "5"],
    ["make-verifier-data", "--in", "{corpus}", "--gold", "{gold}", "--detections", "{gold}",
     "--window", "5"],
    ["detect", "--in", "{corpus}", "--temperature", "1"],
], ids=["verify-window", "make-verifier-data-window", "detect-temperature"])
def test_fixed_llm_settings_have_no_flag(fixture_paths, tmp_path, capsys, argv):
    names = {k: str(v) for k, v in fixture_paths.items()}
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*[arg.format(**names) for arg in argv], "--out", str(tmp_path / "out.json"))
    assert exit_info.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_llm_temperature_in_the_config_is_ignored(fixture_paths, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"llm": {"temperature": "hot"}}), encoding="utf-8")
    reply = json.dumps({"choices": [{"message": {"content": "no entities"}}]}).encode()
    with capture_server(reply) as (base_url, models):
        code = run_cli("--config", str(config), "detect", "--detector", "llm-finetuned",
                       "--in", str(fixture_paths["corpus"]), "--base-url", base_url,
                       "--out", str(tmp_path / "pred.json"))
    assert code == 0
    assert models


def test_replace_has_no_inconsistent_flag(fixture_paths, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("replace", "--in", str(fixture_paths["corpus"]), "--inconsistent",
                "--out-docs", str(tmp_path / "anon.jsonl"), "--out-audit", str(tmp_path / "a.jsonl"))
    assert exit_info.value.code == 2
    assert "--inconsistent" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["99999", "-1"])
def test_mock_llm_port_out_of_range_is_one_line_error(capsys, port):
    code = run_cli("mock-llm", "--mode", "echo-gold", "--port", port)
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "--port" in lines[0]


def test_bias_without_tables_names_the_missing_flag(fixture_paths, tmp_path, capsys):
    gold = str(fixture_paths["gold"])
    code = run_cli("bias", "--pred", gold, "--gold", gold, "--out", str(tmp_path / "b.json"))
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "--gender-table" in lines[0]


def test_manifest_inputs_include_config_split_file_and_tables(fixture_paths, tmp_path):
    paths = {k: str(v) for k, v in fixture_paths.items()}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pools": paths["pools"], "detector": "rules"}), encoding="utf-8")
    split = tmp_path / "split.json"
    assert run_cli("split", "--in", paths["corpus"], "--out", str(split)) == 0
    pred = tmp_path / "pred.json"
    assert run_cli("--config", str(config), "detect", "--in", paths["corpus"],
                   "--split-file", str(split), "--out", str(pred)) == 0
    manifest = json.loads((tmp_path / "pred.json.manifest.json").read_text())
    assert set(manifest["inputs"]) == {str(config), str(split), paths["pools"], paths["corpus"]}
    # Settings hold the flags as typed; the config's values are in its digest only.
    assert manifest["settings"]["pools"] is None
    assert manifest["settings"]["config"] == str(config)

    bias = tmp_path / "bias.json"
    assert run_cli("bias", "--pred", str(pred), "--gold", paths["gold"],
                   "--gender-table", paths["gender"], "--surname-table", paths["surname"],
                   "--region-table", paths["region"], "--out", str(bias)) == 0
    manifest = json.loads((tmp_path / "bias.json.manifest.json").read_text())
    assert set(manifest["inputs"]) == {
        str(pred), paths["gold"], paths["gender"], paths["surname"], paths["region"]
    }


def test_model_precedence_flag_then_config_then_default(fixture_paths, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"llm": {"model": "config-model"}}), encoding="utf-8")
    reply = json.dumps({"choices": [{"message": {"content": "T"}}]}).encode()
    runs = {
        "gpt-4o-mini": ([], []),
        "config-model": (["--config", str(config)], []),
        "flag-model": (["--config", str(config)], ["--model", "flag-model"]),
    }
    for expected, (config_flags, model_flags) in runs.items():
        with capture_server(reply) as (base_url, models):
            code = run_cli(*config_flags, "verify", "--in", str(fixture_paths["corpus"]),
                           "--spans", str(fixture_paths["gold"]), "--base-url", base_url,
                           *model_flags, "--out", str(tmp_path / "kept.json"))
        assert code == 0
        assert models and set(models) == {expected}


def test_non_json_reply_is_a_transport_error(fixture_paths, tmp_path, capsys):
    with capture_server(b"<html><body>gateway</body></html>") as (base_url, models):
        code = run_cli("detect", "--detector", "llm-finetuned",
                       "--in", str(fixture_paths["corpus"]), "--base-url", base_url,
                       "--max-retries", "0", "--out", str(tmp_path / "x.json"))
    assert models
    assert code == 2
    assert capsys.readouterr().err.startswith("transport error:")


@pytest.mark.parametrize("flag,value,message", [
    ("--max-retries", "-1", "max_retries must be >= 0"),
    ("--rpm", "0", "requests_per_minute must be positive"),
])
def test_bad_client_setting_is_one_line_error(
    fixture_paths, tmp_path, capsys, flag, value, message
):
    # Rejected before any request: an attempt on port 1 would exit 2.
    code = run_cli("verify", "--in", str(fixture_paths["corpus"]),
                   "--spans", str(fixture_paths["gold"]), "--base-url", "http://127.0.0.1:1/v1",
                   flag, value, "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "x.json").exists()


def _with_an_empty_document(tmp_path, mini_docs, mini_gold) -> tuple[Path, Path]:
    docs, gold = tmp_path / "docs.jsonl", tmp_path / "gold.json"
    corpus.write_documents(docs, [corpus.Document("e1", ""), mini_docs["379"]])
    corpus.write_standoff(gold, {"379": mini_gold["379"]})
    return docs, gold


def test_empty_document_is_not_sent_to_the_detector(tmp_path, mini_docs, mini_gold):
    # The mock answers an empty text with itself, which is no completion.
    docs, gold = _with_an_empty_document(tmp_path, mini_docs, mini_gold)
    out = tmp_path / "pred.json"
    with mock_llm_server("echo-gold", docs, gold) as base_url:
        code = run_cli("detect", "--detector", "llm-finetuned", "--in", str(docs),
                       "--base-url", base_url, "--jobs", "2", "--out", str(out))
    assert code == 0
    entries = {e["document"]: e["spans"] for e in json.loads(out.read_text(encoding="utf-8"))}
    assert entries["e1"] == []
    assert corpus.read_standoff(out)["379"] == mini_gold["379"]


def test_make_finetune_skips_empty_documents(tmp_path, mini_docs, mini_gold, capsys):
    docs, gold = _with_an_empty_document(tmp_path, mini_docs, mini_gold)
    out = tmp_path / "train.jsonl"
    assert run_cli("make-finetune", "--in", str(docs), "--gold", str(gold), "--out", str(out)) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 1
    assert records[0]["messages"][1]["content"].endswith("\n" + mini_docs["379"].text)
    assert capsys.readouterr().out == f"wrote 1 training record(s) to {out}\n"


def test_make_finetune_gold_mismatch_names_the_file_and_document(fixture_paths, tmp_path, capsys):
    gold = tmp_path / "gold.json"
    gold.write_text(json.dumps([{"document": "379", "spans": [
        {"start": 3, "end": 11, "category": "NAME_STUDENT", "text": "Jane Doe"}]}]), encoding="utf-8")
    out = tmp_path / "train.jsonl"
    code = run_cli("make-finetune", "--in", str(fixture_paths["corpus"]), "--gold", str(gold),
                   "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {gold}: document '379': "), err
    assert "'Jane Doe'" in lines[0]
    assert not out.exists()


def _flag_actions(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _flag_actions(sub)
        elif action.option_strings:
            yield action


def test_config_keys_and_input_names_are_flag_dests():
    # A renamed flag would otherwise drop silently out of the config or the manifest.
    dests = {action.dest for action in _flag_actions(cli.build_parser())}
    assert set(cli._CONFIG_FLAGS.values()) <= dests
    assert set(cli._INPUT_FLAGS) <= dests
    llm_keys = {k.removeprefix("llm.") for k in cli._CONFIG_FLAGS if k.startswith("llm.")}
    assert llm_keys <= set(inspect.signature(cli.ChatClient).parameters)


def test_readme_names_only_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    options = {opt for action in _flag_actions(cli.build_parser()) for opt in action.option_strings}
    assert named, "the README names no flag"
    assert named <= options, sorted(named - options)


_TRACE_SCRIPT = r"""
import json, sys, threading
from pathlib import Path

import tracing
from deidkit import cli, corpus, mockllm

paths, out = json.loads(sys.argv[1]), Path(sys.argv[2])
docs = corpus.read_documents(paths["corpus"])
gold = corpus.read_standoff(paths["gold"])
tracer = tracing.Tracer()
tracing.install(tracer)  # after the reads above, so only the CLI's calls are traced
server = mockllm.make_server(
    mockllm.MockLlm("perturb", {d.text: gold.get(d.id, []) for d in docs})
)
threading.Thread(target=server.serve_forever, daemon=True).start()
url = "http://%s:%d/v1" % server.server_address[:2]
stages = [
    ["detect", "--detector", "rules", "--in", paths["corpus"], "--pools", paths["pools"],
     "--out", str(out / "rules.json")],
    ["detect", "--detector", "llm-finetuned", "--in", paths["corpus"], "--base-url", url,
     "--jobs", "2", "--out", str(out / "llm.json")],
    ["verify", "--in", paths["corpus"], "--spans", str(out / "rules.json"), "--base-url", url,
     "--out", str(out / "kept.json")],
    ["replace", "--in", paths["corpus"], "--spans", str(out / "kept.json"),
     "--pools", paths["pools"], "--out-docs", str(out / "anon.jsonl"),
     "--out-audit", str(out / "audit.jsonl")],
    ["evaluate", "--pred", str(out / "kept.json"), "--gold", paths["gold"]],
]
for argv in stages:
    assert cli.main(argv) == 0, argv
server.shutdown()
print(json.dumps(sorted({s["name"] for s in tracer.spans})))
"""


def test_benchmark_trace_hooks_still_fire(fixture_paths, tmp_path):
    # The benchmark's per-layer metrics come from wrappers installed at the
    # names the CLI looks up at call time; a call that bypasses them would
    # silently report the layer as idle. ``install`` patches for good, so it
    # runs in its own interpreter.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "benchmarks"), str(root / "src"), env.get("PYTHONPATH")) if p
    )
    paths = {k: str(fixture_paths[k]) for k in ("corpus", "gold", "pools")}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT, json.dumps(paths), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    expected = {
        "detect.rule_detect", "detect.llm_detect", "codec.decode", "client.complete",
        "verify.verify_spans", "hips.apply_hips", "eval.evaluate_documents",
        "corpus.read_documents", "corpus.write_documents", "corpus.write_standoff",
        "corpus.read_standoff", "hips.load_name_pools",
    }
    assert expected <= names, expected - names


def test_cli_import_loads_neither_requests_nor_numpy():
    # Every CLI process pays for what ``deidkit.cli`` imports. The package,
    # the chat client and simulate-leakage included, is standard library only.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import deidkit.cli, sys; "
         "print(sorted({'requests', 'urllib3', 'numpy'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_imports_only_the_standard_library():
    # deidkit has no runtime dependency: every absolute import, at module
    # level or inside a function, names a standard-library module.
    package = Path(__file__).resolve().parents[1] / "src" / "deidkit"
    foreign: list[str] = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_transport_lives_in_one_module():
    # The chat client owns the HTTP client side and TLS, the mock endpoint the
    # server side, and nothing else in the package speaks the chat protocol.
    package = Path(__file__).resolve().parents[1] / "src" / "deidkit"
    importers: dict[str, set[str]] = {"http.client": set(), "ssl": set(), "http.server": set()}
    completers: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "complete" for item in node.body
            ):
                completers.add(path.name)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if name in importers:
                    importers[name].add(path.name)
    assert importers == {"http.client": {"llm.py"}, "ssl": {"llm.py"}, "http.server": {"mockllm.py"}}
    assert completers == {"llm.py"}
