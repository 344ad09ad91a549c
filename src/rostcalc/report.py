"""Verdict reports emitted by the claim verifiers."""

from __future__ import annotations

from .record import Record

VERIFIED = "verified"
REFUTED = "refuted"
NOT_CERTIFIABLE = "not-certifiable"


class TheoremReport(Record):
    _fields = ("id", "params", "verdict", "left", "right", "witnesses", "notes")

    def __init__(
        self, id: str, params: dict, verdict: str, left: dict | None = None,
        right: dict | None = None, witnesses: list | None = None, notes: list | None = None,
    ):
        self.id = id
        self.params = params
        self.verdict = verdict
        self.left = {} if left is None else left
        self.right = {} if right is None else right
        self.witnesses = [] if witnesses is None else witnesses
        self.notes = [] if notes is None else notes

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "verdict": self.verdict,
            "left": self.left,
            "right": self.right,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }
