from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from deidkit import corpus
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


_TRACE_SCRIPT = r"""
import json, sys
from pathlib import Path

import tracing
from deidkit import cli, corpus, mockllm

tracer = tracing.Tracer()
tracing.install(tracer)
paths, out = json.loads(sys.argv[1]), Path(sys.argv[2])
docs = corpus.read_documents(paths["corpus"])
gold = corpus.read_standoff(paths["gold"])
server = mockllm.make_server(
    mockllm.MockLlm("perturb", {d.text: gold.get(d.id, []) for d in docs})
)
mockllm.serve_forever(server)
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
    }
    assert expected <= names, expected - names
