"""Second-stage verification of detected spans in their textual context.

A verifier judges each detected entity as true PII (T) or not (F); only
T-verdicts survive. Also builds the verifier training data, where labels come
from exact gold matches and chain-of-thought reasoning must agree with the
gold label within six attempts or the label falls back to T, because wrongly
removing real PII is the costlier mistake.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Document, Span, write_jsonl
from .detect import FINETUNE_SYSTEM_PROMPT
from .llm import SupportsComplete

VERIFIER_SYSTEM_PROMPT = FINETUNE_SYSTEM_PROMPT

#: Every verification question starts with this; the mock endpoint keys on it.
VERIFIER_PROMPT_HEAD = "Determine if "
USER_TEMPLATE_WITHOUT_COT = VERIFIER_PROMPT_HEAD + (
    "{entity} is a privately identifiable information in its "
    "context: {context}, think carefully before saying no to protect against "
    "PII leakage, only output T or F."
)
USER_TEMPLATE_WITH_COT = VERIFIER_PROMPT_HEAD + (
    "{entity} is a privately identifiable information in its "
    "context: {context}. Think step-by-step before outputting T or F."
)

#: Characters of context on each side of a span, the same for training and inference.
CONTEXT_WINDOW = 150
MAX_COT_ATTEMPTS = 6


class VerifierVariant(Enum):
    WITHOUT_COT = "without-cot"
    WITH_COT = "with-cot"


@dataclass
class VerifierExample:
    entity: str
    context: str
    label: str  # "T" | "F"
    reasoning: str | None = None
    forced_default: bool = False
    attempts: int = 0

    def __post_init__(self):
        if self.label not in ("T", "F"):
            raise ValueError(f"label must be T or F, got {self.label!r}")
        if self.entity not in self.context:
            raise ValueError("entity must occur in its context")


def extract_context(doc: Document, span: Span) -> str:
    """Window of text around the span, clipped to the document bounds."""
    start = max(0, span.start - CONTEXT_WINDOW)
    end = min(len(doc.text), span.end + CONTEXT_WINDOW)
    return doc.text[start:end]


def build_verifier_messages(
    entity: str, context: str, variant: VerifierVariant
) -> list[dict[str, str]]:
    template = (
        USER_TEMPLATE_WITH_COT
        if variant is VerifierVariant.WITH_COT
        else USER_TEMPLATE_WITHOUT_COT
    )
    return [
        {"role": "system", "content": VERIFIER_SYSTEM_PROMPT},
        {"role": "user", "content": template.format(entity=entity, context=context)},
    ]


def parse_verdict(completion: str) -> str | None:
    """Read the final T/F token; reasoning before it is ignored.

    Returns None when the completion does not end in a recognizable verdict.
    """
    tokens = completion.split()
    if not tokens:
        return None
    final = tokens[-1].strip(".,!?:;\"'()").upper()
    if final in ("T", "F"):
        return final
    return None


def _effective_verdict(completion: str, variant: VerifierVariant) -> str:
    verdict = parse_verdict(completion)
    if verdict is not None:
        return verdict
    # Asymmetric defaults mirror the two prompts: the bare-verdict prompt
    # demands a clean T/F (anything else reads as a refusal to confirm), the
    # reasoning prompt's failures retain the span to stay privacy-safe.
    return "T" if variant is VerifierVariant.WITH_COT else "F"


def verify_spans(
    doc: Document,
    spans: Sequence[Span],
    client: SupportsComplete,
    variant: VerifierVariant,
) -> list[Span]:
    """Keep exactly the spans the verifier confirms; never adds or reorders."""
    kept: list[Span] = []
    for span in spans:
        context = extract_context(doc, span)
        completion = client.complete(build_verifier_messages(span.surface, context, variant))
        if _effective_verdict(completion, variant) == "T":
            kept.append(span)
    return kept


def build_verifier_dataset(
    detections_by_doc: Mapping[str, Sequence[Span]],
    gold_by_doc: Mapping[str, Sequence[Span]],
    docs: Mapping[str, Document],
    variant: VerifierVariant,
    client: SupportsComplete | None = None,
) -> list[VerifierExample]:
    """Label detections T/F against gold and, for CoT, generate reasoning.

    A detection is T exactly when some gold span matches its offsets and
    category. CoT reasoning must end with the gold letter; after
    ``MAX_COT_ATTEMPTS`` misses the example is emitted with label T regardless.
    """
    if variant is VerifierVariant.WITH_COT and client is None:
        raise ValueError("the CoT variant needs a client to generate reasoning")

    examples: list[VerifierExample] = []
    for doc_id in sorted(detections_by_doc):
        doc = docs[doc_id]
        gold = {(s.start, s.end, s.category) for s in gold_by_doc.get(doc_id, ())}
        for span in detections_by_doc[doc_id]:
            context = extract_context(doc, span)
            label = "T" if (span.start, span.end, span.category) in gold else "F"
            if variant is VerifierVariant.WITHOUT_COT:
                examples.append(VerifierExample(span.surface, context, label))
                continue

            messages = build_verifier_messages(span.surface, context, variant)
            for attempts in range(1, MAX_COT_ATTEMPTS + 1):
                reasoning = client.complete(messages)
                matched = parse_verdict(reasoning) == label
                if matched:
                    break
            # Reasoning that never agreed with gold retains the entity.
            examples.append(
                VerifierExample(
                    span.surface,
                    context,
                    label if matched else "T",
                    _strip_final_verdict(reasoning),
                    forced_default=not matched,
                    attempts=attempts,
                )
            )
    return examples


def _strip_final_verdict(completion: str) -> str:
    if parse_verdict(completion) is None:
        return completion
    return completion[: completion.rfind(completion.split()[-1])].rstrip()


def verifier_training_record(example: VerifierExample, variant: VerifierVariant) -> dict:
    messages = build_verifier_messages(example.entity, example.context, variant)
    if variant is VerifierVariant.WITH_COT and example.reasoning:
        assistant = f"{example.reasoning.rstrip()} {example.label}"
    else:
        assistant = example.label
    return {"messages": messages + [{"role": "assistant", "content": assistant}]}


def write_verifier_training_file(
    path: str | Path, examples: Iterable[VerifierExample], variant: VerifierVariant
) -> int:
    return write_jsonl(path, (verifier_training_record(e, variant) for e in examples))
