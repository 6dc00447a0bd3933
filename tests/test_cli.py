from __future__ import annotations

import argparse
import ast
import hashlib
import http.client
import importlib
import inspect
import json
import os
import pkgutil
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import http_reply, one_error_line

import deidkit
from deidkit import cli, codec, corpus, llm, mockllm
from deidkit.cli import main


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
        assert sorted(calls) == sorted(corpus.read_documents(out_docs))

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
        assert flag in one_error_line(capsys.readouterr().err)
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
        assert "I-NAME_STUDENT" in one_error_line(capsys.readouterr().err, f"error: {records}:1: ")

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

    def test_spans_in_any_order_give_the_same_split_and_training_file(self, fixture_paths, tmp_path):
        entries = json.loads(fixture_paths["gold"].read_text(encoding="utf-8"))
        for entry in entries:
            entry["spans"].reverse()
        assert any(len(entry["spans"]) > 1 for entry in entries)
        reversed_gold = tmp_path / "reversed.json"
        reversed_gold.write_text(json.dumps(entries), encoding="utf-8")
        outputs = []
        for gold in (fixture_paths["gold"], reversed_gold):
            split, train = tmp_path / f"{gold.stem}.split.json", tmp_path / f"{gold.stem}.train.jsonl"
            assert run_cli("split", "--in", str(fixture_paths["corpus"]), "--gold", str(gold),
                           "--seed", "7", "--out", str(split)) == 0
            # The test set holds "mixed", whose three spans the reversal reorders.
            assert run_cli("make-finetune", "--in", str(fixture_paths["corpus"]), "--gold", str(gold),
                           "--split-file", str(split), "--split-name", "test",
                           "--out", str(train)) == 0
            outputs.append((split.read_bytes(), train.read_bytes()))
        assert outputs[0] == outputs[1]

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

    def test_llm_detect_against_mock(
        self, mock_endpoint, mini_gold_by_text, fixture_paths, tmp_path
    ):
        out = tmp_path / "llm_spans.json"
        endpoint = mock_endpoint(mockllm.MockLlm("echo-gold", mini_gold_by_text))
        code = run_cli(
            "detect",
            "--detector", "llm-finetuned",
            "--in", str(fixture_paths["corpus"]),
            "--base-url", endpoint.base_url,
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

    def test_perturb_edits_a_third_each_outside_marked_regions(self):
        # One-letter lines outside the regions make every edit readable: "X" kept,
        # one lowercase letter substituted, "X" plus an inserted letter, or "" deleted.
        regions = [open_m + "Ann Lee x" + close_m for open_m, close_m in codec.MARKERS.values()]
        lines = ["X"] * 3000
        for k in range(40):
            lines.insert(75 * k, regions[k % len(regions)])
        drifted = mockllm.perturb_outside_regions("\n".join(lines), seed=5).split("\n")
        assert len(drifted) == len(lines)
        edits = Counter()
        for before, after in zip(lines, drifted):
            if before != "X":
                assert after == before
            elif after == "X":
                edits["kept"] += 1
            elif after == "":
                edits["deleted"] += 1
            elif re.fullmatch("[a-z]", after):
                edits["substituted"] += 1
            else:
                assert re.fullmatch("X[a-z]", after), after
                edits["inserted"] += 1
        assert edits == {"kept": 2850, "substituted": 50, "inserted": 50, "deleted": 50}

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
    def test_deny_all_mock_empties_spans(self, mock_endpoint, fixture_paths, tmp_path):
        out = tmp_path / "kept.json"
        endpoint = mock_endpoint(mockllm.MockLlm("deny-all", {}))
        code = run_cli(
            "verify",
            "--in", str(fixture_paths["corpus"]),
            "--spans", str(fixture_paths["gold"]),
            "--variant", "without-cot",
            "--base-url", endpoint.base_url,
            "--out", str(out),
        )
        assert code == 0
        kept = corpus.read_standoff(out)
        assert all(spans == [] for spans in kept.values())

    def test_echo_gold_mock_confirms_everything(self, mock_endpoint, fixture_paths, tmp_path):
        out = tmp_path / "kept.json"
        endpoint = mock_endpoint(mockllm.MockLlm("echo-gold", {}))
        code = run_cli(
            "verify",
            "--in", str(fixture_paths["corpus"]),
            "--spans", str(fixture_paths["gold"]),
            "--variant", "with-cot",
            "--base-url", endpoint.base_url,
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
        docs = corpus.read_documents(out_docs)
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
        text = corpus.read_documents(out_docs)["t1"].text
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

    def test_replace_sorts_spans_before_checking_them(self, fixture_paths, tmp_path):
        entries = json.loads(fixture_paths["gold"].read_text(encoding="utf-8"))
        mixed = next(e for e in entries if e["document"] == "mixed")
        assert len(mixed["spans"]) == 3
        mixed["spans"].reverse()
        reversed_spans = tmp_path / "reversed.json"
        reversed_spans.write_text(json.dumps(entries), encoding="utf-8")
        outputs = []
        for spans in (fixture_paths["gold"], reversed_spans):
            anon, audit = tmp_path / f"{spans.stem}.anon.jsonl", tmp_path / f"{spans.stem}.audit.jsonl"
            assert run_cli("replace", "--in", str(fixture_paths["corpus"]), "--spans", str(spans),
                           "--pools", str(fixture_paths["pools"]),
                           "--out-docs", str(anon), "--out-audit", str(audit)) == 0
            outputs.append((anon.read_bytes(), audit.read_bytes()))
        assert outputs[0] == outputs[1]


class TestUtilityCommands:
    _LEAKAGE = ["simulate-leakage", "--fn", "0.05", "--docs", "20000", "--seed", "7"]
    # SHA-256 over what each report command prints, then its --out file, with rules
    # predictions on the fixture corpus. A report's JSON and table keep their bytes.
    REPORT_SHA256 = {
        "evaluate": (["evaluate", "--pred", "{pred}", "--gold", "{gold}"],
                     "9347a2fcc8433af4b4f91c51db128bb08f0062558fac11c30d28acd6d069ed35"),
        "bias": (["bias", "--pred", "{pred}", "--gold", "{gold}", "--gender-table", "{gender}",
                  "--surname-table", "{surname}", "--region-table", "{region}"],
                 "00efd57c27eb2f5748f615c20f2fd1bf422464f603e0ad7ba078d8731a9e0f90"),
        "simulate-leakage": (
            _LEAKAGE, "c802817bd72acdd3d6c0f8cf66a9ae866c83a63f1dcc848699eebf0058a21ec9"),
        "simulate-leakage-attacker-rate-0.5": (
            [*_LEAKAGE, "--attacker-rate", "0.5"],
            "b327b860162be41ed9ef5f53e186a37ab3989b392613c20d4a98ae6a192ba6b5"),
    }

    @pytest.mark.parametrize("report", sorted(REPORT_SHA256))
    def test_report_bytes_are_pinned(self, fixture_paths, tmp_path, capsys, report):
        pred, out = tmp_path / "pred.json", tmp_path / "report.json"
        assert run_cli("detect", "--detector", "rules", "--in", str(fixture_paths["corpus"]),
                       "--pools", str(fixture_paths["pools"]), "--out", str(pred)) == 0
        template, expected = self.REPORT_SHA256[report]
        names = {k: str(v) for k, v in fixture_paths.items()} | {"pred": str(pred)}
        capsys.readouterr()
        assert run_cli(*[arg.format(**names) for arg in template], "--out", str(out)) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(printed + out.read_bytes()).hexdigest() == expected

    def test_simulate_leakage_matches_closed_form(self, tmp_path, capsys):
        fn, k = 0.05, 10
        # Below an attacker rate of 1 the two closed forms differ.
        for d, rate_flag in ((1.0, []), (0.5, ["--attacker-rate", "0.5"])):
            code = run_cli(
                "simulate-leakage",
                "--fn", str(fn),
                "--entities", str(k),
                "--docs", "100000",
                "--seed", "0",
                *rate_flag,
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert abs(payload["redaction_leak_fraction"] - 0.4013) < 0.01
            assert (
                payload["hips_observed_leak_fraction"] <= payload["redaction_leak_fraction"]
            )
            assert payload["closed_form_redaction"] == 1 - (1 - fn) ** k
            assert payload["closed_form_hips"] == 1 - (1 - fn * d) ** k

    def test_simulate_leakage_out_writes_what_it_prints(self, tmp_path, capsys):
        out = tmp_path / "leakage.json"
        assert run_cli("simulate-leakage", "--fn", "0.1", "--entities", "4", "--docs", "500",
                       "--seed", "3", "--out", str(out)) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == json.loads(capsys.readouterr().out)
        manifest = json.loads((tmp_path / "leakage.json.manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "simulate-leakage" and manifest["seed"] == 3

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

    def test_only_the_rules_detector_loads_the_pools(
        self, mock_endpoint, mini_gold_by_text, fixture_paths, tmp_path, monkeypatch
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pools": str(fixture_paths["pools"])}), encoding="utf-8")
        loaded: list[str] = []
        load = cli.load_name_pools
        monkeypatch.setattr(cli, "load_name_pools", lambda path: loaded.append(path) or load(path))
        argv = ["--config", str(config), "detect", "--in", str(fixture_paths["corpus"])]
        endpoint = mock_endpoint(mockllm.MockLlm("echo-gold", mini_gold_by_text))
        out = tmp_path / "llm.json"
        assert run_cli(*argv, "--detector", "llm-finetuned", "--out", str(out),
                       "--base-url", endpoint.base_url) == 0
        assert loaded == []
        # The manifest records the inputs the run was given, used or not.
        manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        assert str(fixture_paths["pools"]) in manifest["inputs"]
        assert run_cli(*argv, "--detector", "rules", "--out", str(tmp_path / "rules.json")) == 0
        assert loaded == [str(fixture_paths["pools"])]

    def test_pricing_config_emits_cost_ledger(
        self, mock_endpoint, mini_gold_by_text, fixture_paths, tmp_path
    ):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"pricing": {"usd_per_1m_input": 0.15, "usd_per_1m_output": 0.60}}),
            encoding="utf-8",
        )
        out = tmp_path / "spans.json"
        endpoint = mock_endpoint(mockllm.MockLlm("echo-gold", mini_gold_by_text))
        code = run_cli(
            "--config", str(config),
            "detect",
            "--detector", "llm-finetuned",
            "--in", str(fixture_paths["corpus"]),
            "--base-url", endpoint.base_url,
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
        out = {i: d.text for i, d in corpus.read_documents(tmp_path / "anon.jsonl").items()}
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
        assert code == 1
        line = one_error_line(capsys.readouterr().err)
        assert str(pred) in line and "'379'" in line and missing in line


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

    def test_jobs_do_not_change_output(
        self, mock_endpoint, mini_gold_by_text, fixture_paths, tmp_path
    ):
        corpus_path = str(fixture_paths["corpus"])
        rules = self._outputs_by_jobs(tmp_path, [
            "detect", "--detector", "rules", "--in", corpus_path,
            "--pools", str(fixture_paths["pools"]),
        ])
        assert rules[0] == rules[1]
        perturb = mock_endpoint(mockllm.MockLlm("perturb", mini_gold_by_text))
        llm = self._outputs_by_jobs(tmp_path, [
            "detect", "--detector", "llm-finetuned", "--in", corpus_path,
            "--base-url", perturb.base_url,
        ])
        assert llm[0] == llm[1]
        rules_spans = tmp_path / "detect-jobs1.json"
        echo_gold = mock_endpoint(mockllm.MockLlm("echo-gold", mini_gold_by_text))
        verified = self._outputs_by_jobs(tmp_path, [
            "verify", "--in", corpus_path, "--spans", str(rules_spans),
            "--base-url", echo_gold.base_url,
        ])
        assert verified[0] == verified[1]

    def test_interrupt_starts_no_further_document(self, chat_endpoint, fixture_paths, tmp_path):
        # Ctrl-C while the endpoint holds request 1: no later document starts, and the
        # stage writes nothing. The exit code and the traceback are left unpinned.
        held, release = 1, threading.Event()

        def answer(i, body):
            if i == held:
                release.wait(timeout=30)
            return http_reply({"choices": [{"message": {"content": "ok"}, "finish_reason": "stop"}]})

        endpoint = chat_endpoint(answer)
        out = tmp_path / "pred.json"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "deidkit", "detect", "--detector", "llm-finetuned",
             "--in", str(fixture_paths["corpus"]), "--base-url", endpoint.base_url,
             "--jobs", "1", "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 30
            while len(endpoint.requests) <= held and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(endpoint.requests) == held + 1
            proc.send_signal(signal.SIGINT)
            time.sleep(0.5)  # the waiting thread takes the interrupt before the reply comes
        finally:
            release.set()
            proc.communicate(timeout=60)
        assert len(endpoint.requests) == held + 1
        assert not out.exists() and not (tmp_path / "pred.json.manifest.json").exists()


_UNKNOWN_DOCUMENT_SPANS = (
    '[{"document": "nope", "spans": [{"start": 0, "end": 2, "category": "EMAIL", "text": "hi"}]}]'
)
# Document 379 reads "Hi John Doe. ..."; this span's surface differs from text[3:11].
_SURFACE_DIFFERS_SPANS = (
    '[{"document": "379", "spans": [{"start": 3, "end": 11, "category": "NAME_STUDENT", '
    '"text": "Jane Roe"}]}]'
)
_JOHN_DOE_SPANS = (
    '[{"document": "379", "spans": [{"start": 3, "end": 11, "category": "NAME_STUDENT", '
    '"text": "John Doe"}]}]'
)
# "Doe" at 8-11 lies inside "John Doe" at 3-11.
_OVERLAPPING_SPANS = (
    _JOHN_DOE_SPANS[:-3] + ', {"start": 8, "end": 11, "category": "NAME_STUDENT", "text": "Doe"}]}]'
)
_INGEST = [
    "ingest", "--in", "{bad}", "--out-docs", "{bad}.docs.jsonl", "--out-gold", "{bad}.gold.json",
]
_DEEP_JSON = "[" * 200_000 + "]" * 200_000
_VERIFY = ["verify", "--in", "{corpus}", "--spans", "{gold}", "--base-url", "http://127.0.0.1:1/v1"]

# Each case: the content of the malformed file and the command that reads it,
# with {bad} for that file and the other fixture names for good inputs.
_MALFORMED_INPUTS = {
    "documents-line-missing-id": (
        '{"text": "no id here"}\n', ["detect", "--detector", "rules", "--in", "{bad}"]),
    "documents-line-not-json": (
        '{"id": "a", "text": \n', ["detect", "--detector", "rules", "--in", "{bad}"]),
    "documents-text-not-a-string": (
        '{"id": "d", "text": 1.5}\n', ["detect", "--detector", "rules", "--in", "{bad}"]),
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
    # A control character in a name could be drawn as a surrogate. Python 3.10's csv module
    # rejects the NUL itself, later versions load it; either way the run exits 1 naming the file.
    "pools-name-with-a-tab": (
        "gender,culture,kind,name\nFemale,Africa,first,A\tnn\n",
        ["detect", "--detector", "rules", "--in", "{corpus}", "--pools", "{bad}"]),
    "pools-name-with-a-nul": (
        "gender,culture,kind,name\nFemale,Africa,first,A\x00nn\n",
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
    # A count is a positive integer: a negative or zero weight would invert or void the argmax.
    "gender-table-count-negative": (
        "first_name,gender,count\nAlex,Female,-5\nAlex,Male,-1\n",
        ["bias", "--pred", "{gold}", "--gold", "{gold}", "--gender-table", "{bad}",
         "--surname-table", "{surname}", "--region-table", "{region}"]),
    "gender-table-count-zero": (
        "first_name,gender,count\nKim,Female,0\nKim,Male,2\n",
        ["bias", "--pred", "{gold}", "--gold", "{gold}", "--gender-table", "{bad}",
         "--surname-table", "{surname}", "--region-table", "{region}"]),
    "region-table-count-negative": (
        "country,region,count\nFrance,Europe,-1\n",
        ["bias", "--pred", "{gold}", "--gold", "{gold}", "--gender-table", "{gender}",
         "--surname-table", "{surname}", "--region-table", "{bad}"]),
    # Token-record types are checked where the record is read, so ingest names the line.
    "token-record-token-not-a-string": (
        '{"document": "d", "tokens": [5], "labels": ["O"], "trailing_whitespace": [false]}\n',
        _INGEST),
    "token-record-label-null": (
        '{"document": "d", "tokens": ["hi"], "labels": [null], "trailing_whitespace": [false]}\n',
        _INGEST),
    "token-record-full-text-a-number": (
        '{"document": "d", "tokens": ["5"], "labels": ["O"], "trailing_whitespace": [false],'
        ' "full_text": 5}\n',
        _INGEST),
    # Each of these was once read as an offset: "3" and 3.9 as 3 (a true positive), true as 1.
    "span-offset-a-string": (
        _JOHN_DOE_SPANS.replace('"start": 3', '"start": "3"'),
        ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "span-offset-a-float": (
        _JOHN_DOE_SPANS.replace('"start": 3', '"start": 3.9'),
        ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "span-offset-a-bool": (
        _JOHN_DOE_SPANS.replace('"start": 3', '"start": true'),
        ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "span-text-not-a-string": (
        _JOHN_DOE_SPANS.replace('"John Doe"', '8'),
        ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
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
    "config-pricing-negative": (
        '{"pricing": {"usd_per_1m_input": -1}}',
        ["--config", "{bad}", "detect", "--detector", "llm-finetuned", "--in", "{corpus}",
         "--base-url", "http://127.0.0.1:1/v1"]),
    "config-pricing-not-finite": (
        '{"pricing": {"usd_per_1m_output": 1e400}}',
        ["--config", "{bad}", "detect", "--detector", "llm-finetuned", "--in", "{corpus}",
         "--base-url", "http://127.0.0.1:1/v1"]),
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
        _SURFACE_DIFFERS_SPANS,
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{gold}", "--detections", "{bad}"]),
    "make-finetune-gold-unknown-document": (
        _UNKNOWN_DOCUMENT_SPANS, ["make-finetune", "--in", "{corpus}", "--gold", "{bad}"]),
    "make-verifier-data-gold-unknown-document": (
        _UNKNOWN_DOCUMENT_SPANS,
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{bad}", "--detections", "{gold}"]),
    "make-verifier-data-gold-span-surface-differs": (
        _SURFACE_DIFFERS_SPANS,
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{bad}", "--detections", "{gold}"]),
    # A split naming a document outside --in would break every later --split-file run.
    "split-gold-unknown-document": (
        '[{"document": "ghost", "spans": []}]', ["split", "--in", "{corpus}", "--gold", "{bad}"]),
    "split-gold-span-surface-differs": (
        _SURFACE_DIFFERS_SPANS, ["split", "--in", "{corpus}", "--gold", "{bad}"]),
    # Checked before the mock listens, so the fault is not served as HTTP 400s.
    "mock-llm-gold-span-surface-differs": (
        _SURFACE_DIFFERS_SPANS,
        ["mock-llm", "--mode", "echo-gold", "--corpus", "{corpus}", "--gold", "{bad}"]),
    "split-file-unknown-document": (
        '{"test": ["nope"]}',
        ["detect", "--detector", "rules", "--in", "{corpus}", "--split-file", "{bad}"]),
    # Spans meant for document 379 under a wrong id would leave "John Doe" in it.
    "replace-spans-unknown-document": (
        '[{"document": "379x", "spans": [{"start": 3, "end": 11, "category": "NAME_STUDENT", '
        '"text": "John Doe"}]}]',
        ["replace", "--in", "{corpus}", "--spans", "{bad}", "--pools", "{pools}",
         "--out-docs", "{bad}.docs.jsonl", "--out-audit", "{bad}.audit.jsonl"]),
    # A repeated id once let the last entry win: here "John Doe" stayed in the output.
    "replace-spans-repeat-a-document": (
        _JOHN_DOE_SPANS[:-1] + ', {"document": "379", "spans": []}]',
        ["replace", "--in", "{corpus}", "--spans", "{bad}", "--pools", "{pools}",
         "--out-docs", "{bad}.docs.jsonl", "--out-audit", "{bad}.audit.jsonl"]),
    "documents-repeat-an-id": (
        '{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n',
        ["detect", "--detector", "rules", "--in", "{bad}"]),
    "token-record-repeats-a-document": (
        '{"document": "d", "tokens": ["hi"], "labels": ["O"], "trailing_whitespace": [false]}\n'
        * 2,
        _INGEST),
    # A named set is a list of strings: "abc" was once read as the ids a, b and c.
    "split-file-set-a-number": (
        '{"test": 5}', ["detect", "--detector", "rules", "--in", "{corpus}", "--split-file", "{bad}"]),
    "split-file-set-null": (
        '{"test": null}',
        ["detect", "--detector", "rules", "--in", "{corpus}", "--split-file", "{bad}"]),
    "split-file-set-a-string": (
        '{"base_train": "abc"}',
        ["make-finetune", "--in", "{corpus}", "--gold", "{gold}", "--split-file", "{bad}"]),
    # A bool is no cost or count, and NaN and Infinity are not JSON numbers.
    "ledger-item-a-bool": ('{"items": {"a": true}}', ["cost", "--ledger", "{bad}"]),
    "ledger-token-count-a-bool": (
        '{"items": {"a": 1}, "tokens_per_stage": {"a": true}}', ["cost", "--ledger", "{bad}"]),
    "ledger-item-nan": ('{"items": {"a": NaN}}', ["cost", "--ledger", "{bad}"]),
    # A number past the largest float is read as inf, or sums or divides to it, and
    # would be written as Infinity, which deidkit's own readers refuse.
    "ledger-item-past-the-largest-float": (
        '{"items": {"a": 1e400}, "tokens_per_stage": {"a": 5}}', ["cost", "--ledger", "{bad}"]),
    "ledger-items-sum-past-the-largest-float": (
        '{"items": {"a": 1e308, "b": 1e308}}', ["cost", "--ledger", "{bad}"]),
    "ledger-usd-per-1m-tokens-past-the-largest-float": (
        '{"items": {"a": 1e303}, "tokens_per_stage": {"a": 1}}', ["cost", "--ledger", "{bad}"]),
    "ledger-token-count-past-the-largest-float": (
        '{"tokens_per_stage": {"a": 1' + "0" * 400 + '}, "items": {"a": 1.0}}',
        ["cost", "--ledger", "{bad}"]),
    # JSON nested past the recursion limit once raised a RecursionError out of main.
    "span-file-nested-too-deep": (_DEEP_JSON, ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "documents-line-nested-too-deep": (
        _DEEP_JSON + "\n", ["detect", "--detector", "rules", "--in", "{bad}"]),
    "config-nested-too-deep": (
        _DEEP_JSON, ["--config", "{bad}", "detect", "--detector", "rules", "--in", "{corpus}"]),
    "ledger-nested-too-deep": (_DEEP_JSON, ["cost", "--ledger", "{bad}"]),
    # Found by the fuzz test: each raised an AttributeError out of main.
    "token-record-line-not-an-object": ('"x"\n', _INGEST),
    "replace-placeholder-not-a-string": (
        '[{"document": "379", "spans": [{"start": 3, "end": 11, "placeholder": 5, '
        '"name_kind": true, "text": "John Doe"}]}]',
        ["replace", "--in", "{corpus}", "--spans", "{bad}", "--pools", "{pools}",
         "--out-docs", "{bad}.docs.jsonl", "--out-audit", "{bad}.audit.jsonl"]),
    "documents-line-with-infinity": (
        '{"id": "a", "text": "x", "source": -Infinity}\n',
        ["detect", "--detector", "rules", "--in", "{bad}"]),
    # A repeated id once wrote the same training record twice.
    "split-file-repeats-a-document": (
        '{"base_train": ["379", "379"]}',
        ["make-finetune", "--in", "{corpus}", "--gold", "{gold}", "--split-file", "{bad}"]),
    "ledger-token-count-negative": (
        '{"items": {"a": 1}, "tokens_per_stage": {"a": -5, "b": 10}}', ["cost", "--ledger", "{bad}"]),
    "tscc-line-not-role-text": (
        "teacher: Hi 〈STUDENT〉\nno role here\n",
        ["ingest", "--tscc", "{bad}", "--out-docs", "{bad}.docs.jsonl",
         "--out-gold", "{bad}.gold.json"]),
    "config-not-an-object": (
        "[]", ["--config", "{bad}", "detect", "--detector", "rules", "--in", "{corpus}"]),
    "config-pools-missing": (
        '{"pools": "no-such-pools.csv"}',
        ["--config", "{bad}", "detect", "--detector", "rules", "--in", "{corpus}"]),
    "config-unknown-detector": (
        '{"detector": "llm-psychic"}', ["--config", "{bad}", "detect", "--in", "{corpus}"]),
    # Each span file read next to --in rejects a span that does not lie in its document.
    "split-gold-overlapping-spans": (
        _OVERLAPPING_SPANS, ["split", "--in", "{corpus}", "--gold", "{bad}"]),
    "verify-spans-overlapping-spans": (
        _OVERLAPPING_SPANS,
        ["verify", "--in", "{corpus}", "--spans", "{bad}", "--base-url", "http://127.0.0.1:1/v1"]),
    "replace-spans-overlapping-spans": (
        _OVERLAPPING_SPANS,
        ["replace", "--in", "{corpus}", "--spans", "{bad}", "--pools", "{pools}",
         "--out-docs", "{bad}.docs.jsonl", "--out-audit", "{bad}.audit.jsonl"]),
    "make-finetune-gold-span-surface-differs": (
        _SURFACE_DIFFERS_SPANS, ["make-finetune", "--in", "{corpus}", "--gold", "{bad}"]),
    "make-finetune-gold-overlapping-spans": (
        _OVERLAPPING_SPANS, ["make-finetune", "--in", "{corpus}", "--gold", "{bad}"]),
    "make-verifier-data-overlapping-spans": (
        _OVERLAPPING_SPANS,
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{gold}", "--detections", "{bad}"]),
    "make-verifier-data-gold-overlapping-spans": (
        _OVERLAPPING_SPANS,
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{bad}", "--detections", "{gold}"]),
    "mock-llm-gold-unknown-document": (
        _UNKNOWN_DOCUMENT_SPANS,
        ["mock-llm", "--mode", "echo-gold", "--corpus", "{corpus}", "--gold", "{bad}"]),
    "mock-llm-gold-overlapping-spans": (
        _OVERLAPPING_SPANS,
        ["mock-llm", "--mode", "echo-gold", "--corpus", "{corpus}", "--gold", "{bad}"]),
    # A document id is a string or an integer; each of these once became a made-up id.
    "documents-id-null": (
        '{"id": null, "text": "hello Ann"}\n', ["detect", "--detector", "rules", "--in", "{bad}"]),
    "documents-source-a-number": (
        '{"id": "a", "text": "x", "source": 5}\n',
        ["detect", "--detector", "rules", "--in", "{bad}"]),
    "token-record-document-null": (
        '{"document": null, "tokens": ["hi"], "labels": ["O"], "trailing_whitespace": [false]}\n',
        _INGEST),
    "span-file-document-a-bool": (
        '[{"document": true, "spans": []}]', ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    # The csv module rejects a field over 131,072 characters with a csv.Error, not a ValueError.
    "pools-field-over-the-csv-limit": (
        "gender,culture,kind,name\nFemale,Africa,first," + "A" * 140_000 + "\n",
        ["detect", "--detector", "rules", "--in", "{corpus}", "--pools", "{bad}"]),
    # A JSON escape of a lone surrogate is valid JSON but not Unicode text, which no writer takes.
    "documents-text-lone-surrogate": (
        '{"id": "a", "text": "\\ud800"}\n', ["detect", "--detector", "rules", "--in", "{bad}"]),
    "token-record-token-lone-surrogate": (
        '{"document": "d", "tokens": ["\\ud800"], "labels": ["O"], '
        '"trailing_whitespace": [false]}\n',
        _INGEST),
    "ledger-key-lone-surrogate": (
        '{"items": {"a": 1}, "tokens_per_stage": {"\\udc00": 5}}', ["cost", "--ledger", "{bad}"]),
    "span-file-surface-lone-surrogate": (
        _JOHN_DOE_SPANS.replace('"John Doe"', '"John \\ud800"'),
        ["evaluate", "--pred", "{bad}", "--gold", "{gold}"]),
    "gender-table-field-over-the-csv-limit": (
        "first_name,gender\n" + "A" * 140_000 + ",Female\n",
        ["bias", "--pred", "{gold}", "--gold", "{gold}", "--gender-table", "{bad}",
         "--surname-table", "{surname}", "--region-table", "{region}"]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_input_is_one_line_error(fixture_paths, tmp_path, capsys, monkeypatch, case):
    content, template = _MALFORMED_INPUTS[case]

    def serve_nothing(*args, **kwargs):  # a mock-llm that passes its checks fails, not serves
        raise AssertionError("mock-llm accepted its inputs and would start serving")

    monkeypatch.setattr(mockllm, "make_server", serve_nothing)
    bad = tmp_path / "malformed.input"
    bad.write_text(content, encoding="utf-8")
    names = {k: str(v) for k, v in fixture_paths.items()} | {"bad": str(bad)}
    argv = [arg.format(**names) for arg in template]
    out = tmp_path / "out.json"
    if not {"ingest", "replace", "mock-llm"} & set(argv):  # none of them has an --out
        argv += ["--out", str(out)]
    code = run_cli(*argv)
    assert code == 1
    assert not out.exists()
    line = one_error_line(capsys.readouterr().err)
    assert str(bad) in line, line


def test_control_character_in_a_pools_name_stops_replace(fixture_paths, tmp_path, capsys):
    pools = tmp_path / "pools.csv"
    pools.write_text(
        fixture_paths["pools"].read_text(encoding="utf-8") + "Female,Europe,first,Bo\tb\n",
        encoding="utf-8",
    )
    out_docs = tmp_path / "anon.jsonl"
    code = run_cli("replace", "--in", str(fixture_paths["corpus"]), "--spans", str(fixture_paths["gold"]),
                   "--pools", str(pools), "--out-docs", str(out_docs),
                   "--out-audit", str(tmp_path / "audit.jsonl"))
    assert code == 1
    assert one_error_line(capsys.readouterr().err) == (
        f"error: {pools}: name 'Bo\\tb' holds a control character")
    assert not out_docs.exists()


# Bytes that are not UTF-8, in each file that is read line by line.
_NOT_UTF8_INPUTS = {
    "documents": (b'{"id": "a", "text": "\xff"}\n', ["detect", "--detector", "rules", "--in", "{bad}"]),
    "pools": (
        b"gender,culture,kind,name\nFemale,Africa,first,\xff\n",
        ["detect", "--detector", "rules", "--in", "{corpus}", "--pools", "{bad}"]),
    "transcript": (
        b"teacher: hi \xff\n",
        ["ingest", "--tscc", "{bad}", "--out-docs", "{bad}.docs.jsonl",
         "--out-gold", "{bad}.gold.json"]),
}


@pytest.mark.parametrize("case", sorted(_NOT_UTF8_INPUTS))
def test_non_utf8_input_names_the_file(fixture_paths, tmp_path, capsys, case):
    content, template = _NOT_UTF8_INPUTS[case]
    bad = tmp_path / "not-utf8.input"
    bad.write_bytes(content)
    names = {k: str(v) for k, v in fixture_paths.items()} | {"bad": str(bad)}
    argv = [arg.format(**names) for arg in template]
    if "ingest" not in argv:
        argv += ["--out", str(tmp_path / "out.json")]
    assert run_cli(*argv) == 1
    line = one_error_line(capsys.readouterr().err)
    assert str(bad) in line and "can't decode" in line, line
    assert sorted(tmp_path.iterdir()) == [bad]


# A text input saved with a leading byte order mark, as Excel's "CSV UTF-8" does.
_BOM_INPUTS = {
    "config": ("config", ["--config", "{input}", "detect", "--in", "{corpus}", "--out", "{out}"]),
    "documents": (
        "corpus",
        ["detect", "--detector", "rules", "--in", "{input}", "--pools", "{pools}", "--out", "{out}"]),
    "pools": (
        "pools",
        ["detect", "--detector", "rules", "--in", "{corpus}", "--pools", "{input}", "--out", "{out}"]),
    "spans": (
        "gold",
        ["replace", "--in", "{corpus}", "--spans", "{input}", "--pools", "{pools}",
         "--group", "Female:Africa", "--out-docs", "{out}", "--out-audit", "{out}.audit.jsonl"]),
    "transcript": (
        "tscc",
        ["ingest", "--tscc", "{input}", "--id", "t1", "--out-docs", "{out}",
         "--out-gold", "{out}.gold.json"]),
}


@pytest.mark.parametrize("case", sorted(_BOM_INPUTS))
def test_leading_byte_order_mark_is_not_data(fixture_paths, tmp_path, case):
    source, template = _BOM_INPUTS[case]
    config = json.dumps({"pools": str(fixture_paths["pools"]), "detector": "rules"})
    content = config if source == "config" else fixture_paths[source].read_text(encoding="utf-8")
    outputs = []
    for prefix in ("", "\ufeff"):
        run_dir = tmp_path / ("bom" if prefix else "plain")
        run_dir.mkdir()
        (run_dir / "input").write_text(prefix + content, encoding="utf-8")
        names = {k: str(v) for k, v in fixture_paths.items()}
        names |= {"input": str(run_dir / "input"), "out": str(run_dir / "out")}
        assert run_cli(*(arg.format(**names) for arg in template)) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(run_dir.glob("out*"))
                        if not path.name.endswith(".manifest.json")})
    assert outputs[0] and outputs[1] == outputs[0]


# Each bad setting exits 1 with a line naming it, before anything is written.
_BAD_SETTINGS = {
    "llm-detector-without-base-url": (
        ["detect", "--detector", "llm-finetuned", "--in", "{corpus}", "--out", "{tmp}/out.json"],
        "--base-url"),
    "verify-without-base-url": (
        ["verify", "--in", "{corpus}", "--spans", "{gold}", "--out", "{tmp}/out.json"],
        "error: verify needs --base-url"),
    "cot-verifier-data-without-base-url": (
        ["make-verifier-data", "--in", "{corpus}", "--gold", "{gold}", "--detections", "{gold}",
         "--variant", "with-cot", "--out", "{tmp}/out.jsonl"],
        "error: make-verifier-data needs --base-url"),
    "base-url-port-out-of-range": (
        ["detect", "--detector", "llm-finetuned", "--in", "{corpus}", "--out", "{tmp}/out.json",
         "--base-url", "http://h:99999/v1"],
        "http://h:99999/v1"),
    "replace-group-without-culture": (
        ["replace", "--in", "{corpus}", "--spans", "{gold}", "--pools", "{pools}",
         "--group", "Female", "--out-docs", "{tmp}/anon.jsonl", "--out-audit", "{tmp}/a.jsonl"],
        "--group"),
    # An empty or extra part once ran with group ["", "Africa"], or blamed the pools file.
    "replace-group-without-gender": (
        ["replace", "--in", "{corpus}", "--group", ":Africa",
         "--out-docs", "{tmp}/anon.jsonl", "--out-audit", "{tmp}/a.jsonl"],
        "--group"),
    "replace-group-with-extra-part": (
        ["replace", "--in", "{corpus}", "--spans", "{gold}", "--pools", "{pools}",
         "--group", "Female:Africa:x", "--out-docs", "{tmp}/anon.jsonl", "--out-audit", "{tmp}/a.jsonl"],
        "--group"),
    "leakage-negative-entities": (
        ["simulate-leakage", "--fn", "0.1", "--entities", "-1", "--out", "{tmp}/out.json"],
        "--entities must be >= 0"),
    "leakage-no-documents": (
        ["simulate-leakage", "--fn", "0.1", "--docs", "0", "--out", "{tmp}/out.json"],
        "--docs positive"),
    "leakage-attacker-rate-above-one": (
        ["simulate-leakage", "--fn", "0.1", "--attacker-rate", "1.5", "--out", "{tmp}/out.json"],
        "--attacker-rate must lie in [0, 1]"),
    "ratios-two-numbers": (
        ["split", "--in", "{corpus}", "--ratios", "0.5,0.5", "--out", "{tmp}/out.json"],
        "--ratios needs three comma-separated numbers"),
    "ratios-not-numbers": (
        ["split", "--in", "{corpus}", "--ratios", "a,b,c", "--out", "{tmp}/out.json"],
        "--ratios needs three comma-separated numbers"),
    # NaN and infinity once passed the sum check: a traceback, or a line without --ratios.
    "ratios-nan": (
        ["split", "--in", "{corpus}", "--ratios", "nan,0.5,0.5", "--out", "{tmp}/out.json"],
        "do not sum to 1"),
    "ratios-infinite": (
        ["split", "--in", "{corpus}", "--ratios", "inf,-inf,1", "--out", "{tmp}/out.json"],
        "do not sum to 1"),
    "ratios-negative-size": (
        ["split", "--in", "{corpus}", "--ratios", "0.9,0.9,-0.8", "--out", "{tmp}/out.json"],
        "produce negative split sizes"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SETTINGS))
def test_bad_setting_is_one_line_error(fixture_paths, tmp_path, capsys, case):
    template, expected = _BAD_SETTINGS[case]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    names = {k: str(v) for k, v in fixture_paths.items()} | {"tmp": str(out_dir)}
    assert run_cli(*[arg.format(**names) for arg in template]) == 1
    assert expected in one_error_line(capsys.readouterr().err)
    assert not any(out_dir.iterdir())


def test_replace_span_out_of_bounds_names_the_span_file(fixture_paths, tmp_path, capsys):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps([{"document": "379", "spans": [
        {"start": 0, "end": 10_000, "category": "EMAIL", "text": "x"}]}]), encoding="utf-8")
    code = run_cli("replace", "--in", str(fixture_paths["corpus"]), "--spans", str(spans),
                   "--pools", str(fixture_paths["pools"]),
                   "--out-docs", str(tmp_path / "anon.jsonl"), "--out-audit", str(tmp_path / "a.jsonl"))
    assert code == 1
    line = one_error_line(capsys.readouterr().err)
    assert str(spans) in line and "out of bounds" in line, line


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
    assert code == 1
    line = one_error_line(capsys.readouterr().err)
    assert "--pools" in line and str(spans) in line, line


def test_replace_pools_without_the_group_names_the_pools_file(fixture_paths, tmp_path, capsys):
    pools = tmp_path / "pools.csv"
    rows = fixture_paths["pools"].read_text(encoding="utf-8").splitlines(keepends=True)
    pools.write_text("".join(row for row in rows if ",Oceania," not in row), encoding="utf-8")
    code = run_cli("replace", "--in", str(fixture_paths["corpus"]),
                   "--spans", str(fixture_paths["gold"]), "--pools", str(pools),
                   "--group", "Female:Oceania",
                   "--out-docs", str(tmp_path / "anon.jsonl"), "--out-audit", str(tmp_path / "a.jsonl"))
    assert code == 1
    assert "(Female, Oceania)" in one_error_line(capsys.readouterr().err, f"error: {pools}: ")


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


def test_llm_temperature_in_the_config_is_ignored(chat_endpoint, fixture_paths, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"llm": {"temperature": "hot"}}), encoding="utf-8")
    endpoint = chat_endpoint(
        http_reply({"choices": [{"message": {"content": "no entities"}}]}, version=b"1.0"))
    code = run_cli("--config", str(config), "detect", "--detector", "llm-finetuned",
                   "--in", str(fixture_paths["corpus"]), "--base-url", endpoint.base_url,
                   "--out", str(tmp_path / "pred.json"))
    assert code == 0
    assert endpoint.requests


def test_replace_has_no_inconsistent_flag(fixture_paths, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("replace", "--in", str(fixture_paths["corpus"]), "--inconsistent",
                "--out-docs", str(tmp_path / "anon.jsonl"), "--out-audit", str(tmp_path / "a.jsonl"))
    assert exit_info.value.code == 2
    assert "--inconsistent" in capsys.readouterr().err


def test_split_has_no_no_stratify_flag(fixture_paths, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("split", "--in", str(fixture_paths["corpus"]), "--no-stratify",
                "--out", str(tmp_path / "split.json"))
    assert exit_info.value.code == 2
    assert "--no-stratify" in capsys.readouterr().err


def test_split_gold_that_cannot_be_stratified_names_the_file(tmp_path, capsys):
    # Three EMAIL entities in two documents cannot reach three splits.
    docs, gold = tmp_path / "docs.jsonl", tmp_path / "gold.json"
    corpus.write_documents(docs, [corpus.Document(f"d{i}", "mail a@b.co") for i in range(10)])
    email = corpus.Span(5, 11, corpus.Category.EMAIL, "a@b.co")
    corpus.write_standoff(gold, {"d0": [email], "d1": [email, corpus.Span(0, 4, email.category, "mail")]})
    out = tmp_path / "split.json"
    assert run_cli("split", "--in", str(docs), "--gold", str(gold), "--out", str(out)) == 1
    assert one_error_line(capsys.readouterr().err) == (
        f"error: {gold}: category EMAIL has 3 entities in only 2 documents; cannot cover 3 splits"
    )
    assert not out.exists()
    # A fault of the ratios is the flag's, not the gold file's.
    assert run_cli("split", "--in", str(docs), "--gold", str(gold), "--ratios", "0.5,0.5,0.5",
                   "--out", str(out)) == 1
    assert one_error_line(capsys.readouterr().err) == (
        "error: ratios (0.5, 0.5, 0.5) do not sum to 1")


@pytest.mark.parametrize("port", ["99999", "-1"])
def test_mock_llm_port_out_of_range_is_one_line_error(capsys, port):
    code = run_cli("mock-llm", "--mode", "echo-gold", "--port", port)
    assert code == 1
    assert "--port" in one_error_line(capsys.readouterr().err)


def test_mock_llm_gold_without_corpus_is_one_line_error(fixture_paths, capsys):
    # Checked before the mock listens, so run_cli returns instead of serving.
    code = run_cli("mock-llm", "--mode", "echo-gold", "--gold", str(fixture_paths["gold"]))
    captured = capsys.readouterr()
    assert code == 1
    assert "listening" not in captured.out
    line = one_error_line(captured.err)
    assert "--gold" in line and "--corpus" in line, line


def test_mock_llm_answers_a_body_that_is_not_json_with_400(mock_endpoint):
    server = mock_endpoint(mockllm.MockLlm("echo-gold", {}))
    replies = {}
    # A well-formed body that is not JSON, a length that is not a number, and
    # a negative length, which would make the handler read until the client closes.
    for length in ("8", "abc", "-1"):
        with socket.create_connection(server.server_address[:2], timeout=3) as sock:
            sock.sendall(b"POST /v1/chat/completions HTTP/1.1\r\nHost: mock\r\n"
                         b"Content-Type: application/json\r\nContent-Length: "
                         + length.encode() + b"\r\n\r\nnot json")
            response = http.client.HTTPResponse(sock)
            response.begin()
            replies[length] = (response.status, response.getheader("Connection"),
                               json.loads(response.read()))
            response.close()
    for length, (status, connection, reply) in replies.items():
        assert status == 400, length
        assert connection == "close", length  # the rest of the body is not read as a request
        assert set(reply) == {"error"} and reply["error"], length


def test_mock_llm_answers_keep_alive_requests_without_waiting_for_an_ack(mock_endpoint):
    # The body of a reply is a second write; with Nagle's algorithm on it waits
    # for the client's delayed ACK, about 40 ms per request on loopback.
    server = mock_endpoint(mockllm.MockLlm("echo-gold", {}))
    with llm.ChatClient(server.base_url, max_retries=0) as client:
        started = time.perf_counter()
        replies = [client.complete([{"role": "user", "content": f"text {i}"}]) for i in range(20)]
        elapsed = time.perf_counter() - started
    assert replies == [f"text {i}" for i in range(20)]
    assert elapsed < 0.3, elapsed


def test_bias_and_evaluate_agree_on_name_recall(fixture_paths, tmp_path):
    gold = corpus.read_standoff(fixture_paths["gold"])
    doc_id, missed = next((d, x) for d, spans in sorted(gold.items()) for x in spans
                          if x.category is corpus.Category.NAME_STUDENT)
    pred = tmp_path / "pred.json"
    corpus.write_standoff(pred, gold | {doc_id: [x for x in gold[doc_id] if x != missed]})
    scored = ["--pred", str(pred), "--gold", str(fixture_paths["gold"])]
    assert run_cli("evaluate", *scored, "--out", str(tmp_path / "metrics.json")) == 0
    assert run_cli("bias", *scored, "--gender-table", str(fixture_paths["gender"]),
                   "--surname-table", str(fixture_paths["surname"]),
                   "--region-table", str(fixture_paths["region"]),
                   "--out", str(tmp_path / "bias.json")) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    bias = json.loads((tmp_path / "bias.json").read_text(encoding="utf-8"))
    name_recall = metrics["per_category"]["NAME_STUDENT"]["recall"]
    assert bias["overall_recall"] == name_recall < 1


def test_bias_without_tables_names_the_missing_flag(fixture_paths, tmp_path, capsys):
    gold = str(fixture_paths["gold"])
    code = run_cli("bias", "--pred", gold, "--gold", gold, "--out", str(tmp_path / "b.json"))
    assert code == 1
    assert "--gender-table" in one_error_line(capsys.readouterr().err)


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


def test_manifest_digests_an_input_as_the_stage_read_it(fixture_paths, tmp_path):
    # replace's --out-gold here overwrites its --spans.
    paths = {k: str(v) for k, v in fixture_paths.items()}
    pred = tmp_path / "pred.json"
    assert run_cli("detect", "--detector", "rules", "--in", paths["corpus"],
                   "--pools", paths["pools"], "--out", str(pred)) == 0
    read = hashlib.sha256(pred.read_bytes()).hexdigest()
    anon = tmp_path / "anon.jsonl"
    assert run_cli("replace", "--in", paths["corpus"], "--spans", str(pred),
                   "--pools", paths["pools"], "--out-docs", str(anon),
                   "--out-audit", str(tmp_path / "audit.jsonl"), "--out-gold", str(pred)) == 0
    assert hashlib.sha256(pred.read_bytes()).hexdigest() != read
    manifest = json.loads(Path(f"{anon}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"][str(pred)] == read


def test_input_that_cannot_be_digested_fails_before_the_stage(
    chat_endpoint, fixture_paths, tmp_path, capsys
):
    # The LLM detector never reads --pools, but the manifest digests it.
    endpoint = chat_endpoint(
        http_reply({"choices": [{"message": {"content": "no entities"}}]}, version=b"1.0"))
    pools, out = tmp_path / "pools", tmp_path / "pred.json"
    pools.mkdir()
    code = run_cli("detect", "--detector", "llm-finetuned", "--in", str(fixture_paths["corpus"]),
                   "--pools", str(pools), "--base-url", endpoint.base_url, "--out", str(out))
    assert code == 1
    assert str(pools) in one_error_line(capsys.readouterr().err)
    assert endpoint.requests == []
    assert sorted(tmp_path.iterdir()) == [pools]


def test_manifest_leaves_out_an_input_read_from_a_pipe(fixture_paths, tmp_path):
    # A digest taken from the pipe would leave the stage nothing to read.
    read_end, write_end = os.pipe()
    os.write(write_end, fixture_paths["corpus"].read_bytes())
    os.close(write_end)
    piped, out = f"/dev/fd/{read_end}", tmp_path / "pred.json"
    try:
        assert run_cli("detect", "--detector", "rules", "--in", piped,
                       "--pools", str(fixture_paths["pools"]), "--out", str(out)) == 0
    finally:
        os.close(read_end)
    assert set(corpus.read_standoff(out)) == set(corpus.read_documents(fixture_paths["corpus"]))
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["inputs"]) == {str(fixture_paths["pools"])}


def test_model_precedence_flag_then_config_then_default(chat_endpoint, fixture_paths, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"llm": {"model": "config-model"}}), encoding="utf-8")
    reply = http_reply({"choices": [{"message": {"content": "T"}}]}, version=b"1.0")
    runs = {
        "gpt-4o-mini": ([], []),
        "config-model": (["--config", str(config)], []),
        "flag-model": (["--config", str(config)], ["--model", "flag-model"]),
    }
    for expected, (config_flags, model_flags) in runs.items():
        endpoint = chat_endpoint(reply)
        code = run_cli(*config_flags, "verify", "--in", str(fixture_paths["corpus"]),
                       "--spans", str(fixture_paths["gold"]), "--base-url", endpoint.base_url,
                       *model_flags, "--out", str(tmp_path / "kept.json"))
        assert code == 0
        assert endpoint.requests and {r.body["model"] for r in endpoint.requests} == {expected}


def test_non_json_reply_is_a_transport_error(chat_endpoint, fixture_paths, tmp_path, capsys):
    endpoint = chat_endpoint(http_reply(b"<html><body>gateway</body></html>", version=b"1.0"))
    code = run_cli("detect", "--detector", "llm-finetuned",
                   "--in", str(fixture_paths["corpus"]), "--base-url", endpoint.base_url,
                   "--max-retries", "0", "--out", str(tmp_path / "x.json"))
    assert endpoint.requests
    assert code == 2
    assert capsys.readouterr().err.startswith("transport error:")


def test_reply_nested_past_the_recursion_limit_is_a_transport_error(
    chat_endpoint, fixture_paths, tmp_path, capsys
):
    out = tmp_path / "pred.json"
    endpoint = chat_endpoint(http_reply(b"[" * 100_000 + b"]" * 100_000, version=b"1.0"))
    code = run_cli("detect", "--detector", "llm-finetuned",
                   "--in", str(fixture_paths["corpus"]), "--base-url", endpoint.base_url,
                   "--max-retries", "0", "--out", str(out))
    assert endpoint.requests
    assert code == 2
    one_error_line(capsys.readouterr().err, "transport error:")
    assert not out.exists()


@pytest.mark.parametrize("stage", ["detect", "verify"])
@pytest.mark.parametrize("content", [5, True, ["a"], {"x": 1}], ids=["int", "bool", "list", "object"])
def test_reply_content_that_is_not_a_string_is_a_transport_error(
    chat_endpoint, fixture_paths, tmp_path, capsys, stage, content
):
    reply = {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}
    stage_argv = {
        "detect": ["detect", "--detector", "llm-finetuned"],
        "verify": ["verify", "--spans", str(fixture_paths["gold"])],
    }[stage]
    out = tmp_path / "out.json"
    endpoint = chat_endpoint(http_reply(reply, version=b"1.0"))
    code = run_cli(*stage_argv, "--in", str(fixture_paths["corpus"]),
                   "--base-url", endpoint.base_url, "--max-retries", "0", "--out", str(out))
    assert endpoint.requests
    assert code == 2
    one_error_line(capsys.readouterr().err, "transport error:")
    assert not out.exists()


@pytest.mark.parametrize("stage", [
    ["detect", "--detector", "llm-finetuned"],
    ["make-verifier-data", "--variant", "with-cot", "--gold", "{gold}", "--detections", "{gold}"],
], ids=["detect", "make-verifier-data"])
def test_reply_with_a_lone_surrogate_is_a_transport_error(
    chat_endpoint, fixture_paths, tmp_path, capsys, stage
):
    # Sent as the escape \ud800, which is valid JSON but not Unicode text.
    endpoint = chat_endpoint(http_reply(
        {"choices": [{"message": {"content": "T \ud800"}, "finish_reason": "stop"}]},
        version=b"1.0"))
    out = tmp_path / "out.jsonl"
    names = {k: str(v) for k, v in fixture_paths.items()}
    code = run_cli(*[arg.format(**names) for arg in stage], "--in", names["corpus"],
                   "--base-url", endpoint.base_url, "--out", str(out))
    assert endpoint.requests
    assert code == 2
    assert "lone surrogate" in one_error_line(capsys.readouterr().err, "transport error:")
    assert not out.exists()


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


def test_empty_document_is_not_sent_to_the_detector(
    mock_endpoint, mini_gold_by_text, tmp_path, mini_docs, mini_gold
):
    # The mock answers an empty text with itself, which is no completion.
    docs, _ = _with_an_empty_document(tmp_path, mini_docs, mini_gold)
    endpoint = mock_endpoint(mockllm.MockLlm("echo-gold", mini_gold_by_text))
    out = tmp_path / "pred.json"
    code = run_cli("detect", "--detector", "llm-finetuned", "--in", str(docs),
                   "--base-url", endpoint.base_url, "--jobs", "2", "--out", str(out))
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
    assert code == 1
    line = one_error_line(capsys.readouterr().err, f"error: {gold}: document '379': ")
    assert "'Jane Doe'" in line
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
    mockllm.MockLlm("perturb", {d.text: gold.get(d.id, []) for d in docs.values()})
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


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter that imports deidkit from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # -S: no site-packages and no .pth file, so only deidkit's own imports are measured.
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_neither_requests_nor_numpy():
    # Every CLI process pays for what ``deidkit.cli`` imports. The package,
    # the chat client and simulate-leakage included, is standard library only.
    assert _fresh_python(
        "import deidkit.cli, sys; "
        "print(sorted({'requests', 'urllib3', 'numpy'} & set(sys.modules)))"
    ) == "[]"


def test_cli_import_loads_no_http_library():
    # The chat client writes HTTP/1.1 over a socket itself, so no stage loads the
    # standard library's HTTP client or its header parser, the mock's server, or TLS
    # for a plain-HTTP endpoint. Only an https client loads ssl.
    assert _fresh_python(
        "import deidkit.cli, sys; from deidkit.llm import ChatClient; "
        "loaded = lambda: sorted({'http.client', 'email.parser', 'ssl', 'http.server'} "
        "& set(sys.modules)); "
        "print(loaded()); ChatClient('http://127.0.0.1:9/v1'); print(loaded()); "
        "ChatClient('https://127.0.0.1:9/v1'); print(loaded())"
    ).splitlines() == ["[]", "[]", "['ssl']"]


def test_cli_import_loads_no_costly_module():
    # Every stage is a fresh process. dataclasses loads inspect, ast and dis, and
    # concurrent.futures loads logging: records are tuples, and the runner uses threads.
    assert _fresh_python(
        "import deidkit.cli, sys; print(sorted({'dataclasses', 'inspect', 'ast', 'dis', "
        "'concurrent.futures', 'logging'} & set(sys.modules)))"
    ) == "[]"


def _package_imports() -> list[tuple[str, str]]:
    """``(file:line, module)`` for every absolute import in the package, at any level;
    ``from a import b`` gives both ``a`` and ``a.b``."""
    package = Path(__file__).resolve().parents[1] / "src" / "deidkit"
    found: list[tuple[str, str]] = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", name) for name in names]
    return found


def test_package_imports_only_the_standard_library():
    # deidkit has no runtime dependency: every absolute import, at module
    # level or inside a function, names a standard-library module.
    foreign = [f"{where}: {name}" for where, name in _package_imports()
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_package_never_imports_dataclasses_or_concurrent_futures():
    # Not even lazily inside a function: a stage that reached one would pay for it.
    banned = [f"{where}: {name}" for where, name in _package_imports()
              if name.split(".")[0] == "dataclasses" or name.startswith("concurrent.futures")]
    assert banned == []


def test_no_class_defines_eq():
    # A data-only record is a NamedTuple, which compares by value already.
    package = Path(__file__).resolve().parents[1] / "src" / "deidkit"
    found = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__eq__" for item in node.body)
    ]
    assert found == []


def test_every_module_level_import_is_used():
    # No linter runs on the package, so a deletion can leave its imports behind.
    # An import line marked "# noqa: F401" is exempt, and a name in __all__ counts as used.
    package = Path(__file__).resolve().parents[1] / "src" / "deidkit"
    unused: list[str] = []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used.update(ast.literal_eval(node.value))
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in "".join(lines[node.lineno - 1 : node.end_lineno])):
                continue
            unused += [
                f"{path.name}:{node.lineno}: {name}"
                for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                if name not in used
            ]
    assert unused == []


def test_package_parses_at_the_python_floor():
    # Every module parses with the grammar of the oldest Python that pyproject.toml allows.
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert floor, "pyproject.toml names no requires-python floor"
    for path in sorted((root / "src" / "deidkit").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=tuple(map(int, floor.groups())))


def test_transport_lives_in_one_module():
    # The chat client owns the HTTP client side and TLS, the mock endpoint the
    # server side, and nothing else in the package speaks the chat protocol.
    package = Path(__file__).resolve().parents[1] / "src" / "deidkit"
    importers: dict[str, set[str]] = {"socket": set(), "ssl": set(), "http.server": set()}
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
    assert importers == {"socket": {"llm.py"}, "ssl": {"llm.py"}, "http.server": {"mockllm.py"}}
    assert completers == {"llm.py"}


def test_one_error_class_per_module():
    # The CLI tells only a validation fault (exit 1) from a transport fault
    # (exit 2); a subclass stays only where a caller tells it apart.
    defined = set()
    for info in pkgutil.iter_modules(deidkit.__path__):
        module = importlib.import_module(f"deidkit.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                defined.add(f"{info.name}.{name}")
    assert defined == {
        "corpus.CorpusError", "hips.HipsError", "hips.EmptyGroup",
        "llm.TransportError",
    }
