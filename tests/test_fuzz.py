"""Seeded fuzz of every input file the offline subcommands read.

Each case takes one fixture file, changes one thing in it (a JSON value
replaced or dropped, a list entry or JSON-Lines line repeated, a CSV cell
changed or dropped, a CSV row repeated) and runs one command that reads it.
A bad input must exit 1 with one ``error:`` line; nothing may escape
``cli.main``. No command here contacts an endpoint, so exit 2 is a failure too.
"""

from __future__ import annotations

import copy
import json
import random
import time
from pathlib import Path

from test_cli import run_cli

CASES = 300
SEED = 18

_VALUES = (
    None, True, False, 0, -1, 7, 2**40, 2.5, float("nan"), float("-inf"),
    "", "x", "379", "B-NAME_STUDENT", [], {}, ["x"], {"x": 1},
)
_CELLS = ("", "x", "-1", "2.5", "Female", "Africa", "first", '"', "Ann Lee")

_DETECT = ["detect", "--detector", "rules", "--in", "{docs}", "--pools", "{pools}",
           "--out", "{tmp}/out.json"]


def _replace(docs: str, spans: str) -> list[str]:
    return ["replace", "--in", docs, "--spans", spans, "--pools", "{pools}",
            "--out-docs", "{tmp}/out.docs.jsonl", "--out-audit", "{tmp}/out.audit.jsonl",
            "--out-gold", "{tmp}/out.json"]


_BIAS = ["bias", "--pred", "{gold}", "--gold", "{gold}", "--gender-table", "{gender}",
         "--surname-table", "{surname}", "--region-table", "{region}", "--out", "{tmp}/out.json"]
_INGEST = ["ingest", "--in", "{corpus}", "--out-docs", "{tmp}/out.docs.jsonl",
           "--out-gold", "{tmp}/out.json"]

# (the fixture a case changes, a command that reads it): the command reads
# the changed copy wherever it names that fixture.
_TARGETS = [
    ("corpus", _INGEST),
    ("corpus", [*_INGEST, "--strict"]),
    ("docs", _DETECT),
    ("docs", ["split", "--in", "{docs}", "--gold", "{gold}", "--out", "{tmp}/out.json"]),
    ("docs", _replace("{docs}", "{gold}")),
    ("docs", ["make-finetune", "--in", "{docs}", "--gold", "{gold}", "--out", "{tmp}/out.json"]),
    ("gold", ["evaluate", "--pred", "{gold}", "--gold", "{corpus_gold}", "--out", "{tmp}/out.json"]),
    ("gold", ["evaluate", "--pred", "{corpus_gold}", "--gold", "{gold}"]),
    ("gold", ["split", "--in", "{docs}", "--gold", "{gold}", "--out", "{tmp}/out.json"]),
    ("gold", _replace("{docs}", "{gold}")),
    ("gold", ["make-verifier-data", "--in", "{docs}", "--gold", "{corpus_gold}",
              "--detections", "{gold}", "--out", "{tmp}/out.json"]),
    ("gold", ["make-finetune", "--in", "{docs}", "--gold", "{gold}", "--out", "{tmp}/out.json"]),
    ("gold", _BIAS),
    ("tscc_gold", _replace("{tscc_docs}", "{tscc_gold}")),
    ("split", [*_DETECT, "--split-file", "{split}"]),
    ("split", ["make-finetune", "--in", "{docs}", "--gold", "{gold}", "--split-file", "{split}",
               "--split-name", "base_train", "--out", "{tmp}/out.json"]),
    ("ledger", ["cost", "--ledger", "{ledger}", "--out", "{tmp}/out.json"]),
    ("config", ["--config", "{config}", "detect", "--in", "{docs}", "--out", "{tmp}/out.json"]),
    ("pools", _DETECT),
    ("pools", _replace("{docs}", "{gold}")),
    ("gender", _BIAS),
    ("surname", _BIAS),
    ("region", _BIAS),
]


def _fuzz_json(rng: random.Random, value):
    """A copy of ``value`` with one entry replaced, dropped or repeated."""
    containers = []

    def walk(node) -> None:
        if isinstance(node, (list, dict)) and node:
            containers.append(node)
            for child in node.values() if isinstance(node, dict) else node:
                walk(child)

    value = copy.deepcopy(value)
    walk(value)
    if not containers or rng.random() < 0.03:
        return copy.deepcopy(rng.choice(_VALUES))
    node = rng.choice(containers)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    key, op = rng.choice(keys), rng.randrange(3)
    if op == 0:
        node[key] = copy.deepcopy(rng.choice(_VALUES))
    elif op == 1:
        del node[key]
    elif isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    else:
        node[key] = copy.deepcopy(node[rng.choice(keys)])
    return value


def _fuzz_csv(rng: random.Random, text: str) -> str:
    """``text`` with one cell changed or dropped, or one row repeated."""
    rows = [line.split(",") for line in text.splitlines()]
    row, op = rng.choice(rows), rng.randrange(3)
    col = rng.randrange(len(row))
    if op == 0:
        row[col] = rng.choice(_CELLS)
    elif op == 1:
        del row[col]
    else:
        rows.insert(rows.index(row), list(row))
    return "".join(",".join(r) + "\n" for r in rows)


def _fuzz(rng: random.Random, path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return _fuzz_csv(rng, text)
    if path.suffix == ".jsonl":
        lines = _fuzz_json(rng, [json.loads(line) for line in text.splitlines()])
        return "".join(json.dumps(x) + "\n" for x in (lines if isinstance(lines, list) else [lines]))
    return json.dumps(_fuzz_json(rng, json.loads(text)))


def test_fuzzed_inputs_exit_0_or_1_with_at_most_one_error_line(fixture_paths, tmp_path, capsys):
    names = {k: str(v) for k, v in fixture_paths.items()}
    names |= {
        "corpus_gold": names["gold"], "tmp": str(tmp_path), "docs": str(tmp_path / "docs.jsonl"),
        "tscc_docs": str(tmp_path / "tscc.jsonl"), "tscc_gold": str(tmp_path / "tscc_gold.json"),
        "split": str(tmp_path / "split.json"), "ledger": str(tmp_path / "ledger.json"),
        "config": str(tmp_path / "config.json"),
    }
    assert run_cli("ingest", "--in", names["corpus"], "--out-docs", names["docs"],
                   "--out-gold", str(tmp_path / "gold.json")) == 0
    assert run_cli("ingest", "--tscc", names["tscc"], "--out-docs", names["tscc_docs"],
                   "--out-gold", names["tscc_gold"]) == 0
    assert run_cli("split", "--in", names["docs"], "--gold", names["gold"], "--seed", "7",
                   "--out", names["split"]) == 0
    (tmp_path / "ledger.json").write_text(json.dumps({
        "items": {"base_finetuning": 7.22, "evaluation": 4.71},
        "tokens_per_stage": {"all": 12_967_391},
    }), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "pools": names["pools"], "detector": "rules",
        "llm": {"max_retries": 1, "requests_per_minute": 60},
        "pricing": {"usd_per_1m_input": 0.15, "usd_per_1m_output": 0.6},
    }), encoding="utf-8")
    capsys.readouterr()

    rng = random.Random(SEED)
    bad = tmp_path / "bad"
    faults, codes = [], {0: 0, 1: 0}
    started = time.process_time()
    for case in range(CASES):
        source, template = rng.choice(_TARGETS)
        path = bad.with_suffix(Path(names[source]).suffix)
        path.write_text(_fuzz(rng, Path(names[source])), encoding="utf-8")
        argv = [arg.format(**names | {source: path}) for arg in template]
        try:
            code = run_cli(*argv)
        except BaseException as exc:  # anything out of main is the finding
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if code not in (0, 1) or len(errors) > (code == 1) or (code == 1 and not errors) or (
            "Traceback" in err
        ):
            faults.append((case, source, argv[:2], code, err.strip()[-300:], path.read_text()[:300]))
        else:
            codes[code] += 1
    assert not faults, faults
    assert codes[0] and codes[1], codes  # the mutations reach both outcomes
    assert time.process_time() - started < 10
