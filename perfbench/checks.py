"""Correctness checks on the outputs of each CLI command.

Each check returns a list of problems; an empty list means the output is
correct. The runner counts every command as one operation, failed when the
command exits non-zero or any check on its output reports a problem.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def last_json(stdout: str) -> dict | None:
    """The JSON object a command printed last, if any."""
    for line in reversed(stdout.strip().splitlines()):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            return obj
    return None


def check_build_kb(stdout: str, expected_entities: int) -> list[str]:
    stats = last_json(stdout)
    if stats is None:
        return ["build-kb printed no JSON stats"]
    if stats.get("entity_count") != expected_entities:
        return [f"build-kb entity_count {stats.get('entity_count')} != {expected_entities}"]
    return []


def check_predictions(path: Path, doc_ids: list[str], kb_names: set[str]) -> list[str]:
    """Exactly one prediction per input document, nothing dropped, every
    entity a catalog name."""
    problems: list[str] = []
    seen: dict[str, int] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"line {line_no}: not JSON")
            continue
        if not isinstance(rec, dict):
            problems.append(f"line {line_no}: not an object")
            continue
        doc_id, entities = rec.get("doc_id"), rec.get("entities")
        seen[doc_id] = seen.get(doc_id, 0) + 1
        if rec.get("dropped") != 0:
            problems.append(f"{doc_id}: dropped={rec.get('dropped')}")
        if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
            problems.append(f"{doc_id}: entities is not a list of names")
        elif any(e not in kb_names for e in entities):
            problems.append(f"{doc_id}: entity outside the catalog")
    expected = set(doc_ids)
    missing = expected - set(seen)
    extra = set(seen) - expected
    repeated = [d for d, n in seen.items() if n > 1]
    if missing:
        problems.append(f"{len(missing)} documents without a prediction")
    if extra:
        problems.append(f"{len(extra)} predictions for unknown documents")
    if repeated:
        problems.append(f"{len(repeated)} documents predicted more than once")
    return problems


def check_eval(report_path: Path) -> tuple[float | None, list[str]]:
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
        f1 = float(next(iter(report.values()))["micro"]["f1"])
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return None, [f"eval report unreadable: {exc}"]
    if not 0.0 <= f1 <= 1.0:
        return None, [f"micro-F1 {f1} outside [0, 1]"]
    return f1, []


def check_train(stdout: str, model: Path) -> tuple[float | None, list[str]]:
    out = last_json(stdout)
    loss = None if out is None else out.get("final_loss")
    if not isinstance(loss, (int, float)) or not math.isfinite(loss):
        return None, [f"final NLL missing or not finite: {loss!r}"]
    if not Path(model).is_file():
        return None, ["no checkpoint written"]
    return float(loss), []
