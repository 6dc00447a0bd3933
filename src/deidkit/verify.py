"""Second-stage verification of detected spans in their textual context.

A verifier judges each detected entity as true PII (T) or not (F); only
T-verdicts survive. Also builds the verifier training data, where labels come
from exact gold matches and chain-of-thought reasoning must agree with the
gold label within six attempts or the label falls back to T, because wrongly
removing real PII is the costlier mistake.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .corpus import Document, Span
from .detect import FINETUNE_SYSTEM_PROMPT
from .eval import span_key
from .llm import SupportsComplete

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


#: Per variant: the user template, and the verdict for a reply that ends in
#: none. The defaults mirror the two prompts: the bare-verdict prompt demands a
#: clean T/F (anything else reads as a refusal to confirm), the reasoning
#: prompt's failures retain the span to stay privacy-safe.
_VARIANTS = {
    VerifierVariant.WITHOUT_COT: (USER_TEMPLATE_WITHOUT_COT, "F"),
    VerifierVariant.WITH_COT: (USER_TEMPLATE_WITH_COT, "T"),
}


class VerifierExample:
    def __init__(self, entity: str, context: str, label: str, reasoning: str | None = None,
                 forced_default: bool = False):
        if label not in ("T", "F"):
            raise ValueError(f"label must be T or F, got {label!r}")
        if entity not in context:
            raise ValueError("entity must occur in its context")
        self.entity, self.context, self.label = entity, context, label
        self.reasoning, self.forced_default = reasoning, forced_default


def extract_context(doc: Document, span: Span) -> str:
    """Window of text around the span, clipped to the document bounds."""
    start = max(0, span.start - CONTEXT_WINDOW)
    end = min(len(doc.text), span.end + CONTEXT_WINDOW)
    return doc.text[start:end]


def build_verifier_messages(
    entity: str, context: str, variant: VerifierVariant
) -> list[dict[str, str]]:
    template = _VARIANTS[variant][0]
    return [
        {"role": "system", "content": FINETUNE_SYSTEM_PROMPT},
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
        if (parse_verdict(completion) or _VARIANTS[variant][1]) == "T":
            kept.append(span)
    return kept


def verifier_examples(
    doc: Document,
    detections: Sequence[Span],
    gold: Iterable[Span],
    variant: VerifierVariant,
    client: SupportsComplete | None = None,
) -> list[VerifierExample]:
    """Label one document's detections T/F against its gold and, for CoT, generate reasoning.

    A detection is T exactly when some gold span matches its offsets and
    category. CoT reasoning must end with the gold letter; after
    ``MAX_COT_ATTEMPTS`` misses the example is emitted with label T regardless.
    """
    if variant is VerifierVariant.WITH_COT and client is None:
        raise ValueError("the CoT variant needs a client to generate reasoning")

    gold_keys = set(map(span_key, gold))
    examples: list[VerifierExample] = []
    for span in detections:
        context = extract_context(doc, span)
        label = "T" if span_key(span) in gold_keys else "F"
        if variant is VerifierVariant.WITHOUT_COT:
            examples.append(VerifierExample(span.surface, context, label))
            continue

        messages = build_verifier_messages(span.surface, context, variant)
        for _ in range(MAX_COT_ATTEMPTS):
            reasoning = client.complete(messages)
            matched = parse_verdict(reasoning) == label
            if matched:
                break
        # Reasoning that never agreed with gold gets the verdict of a reply that ends in none.
        examples.append(VerifierExample(
            span.surface, context, label if matched else _VARIANTS[variant][1],
            _strip_final_verdict(reasoning), forced_default=not matched,
        ))
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
