"""Reports: per-check outcomes with a canonical machine-readable section."""

import json
from fractions import Fraction

from .rat import format_label, format_rational, is_finite
from .records import field, record


def canon(value):
    """Recursively convert values into stable JSON-ready structures.

    Rationals print in lowest terms, sets sort deterministically, and
    domain objects fall back to their repr.
    """
    if isinstance(value, Fraction) or not is_finite(value):
        return format_rational(value)
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, (frozenset, set)):
        return sorted((canon(v) for v in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {format_label(k) if not isinstance(k, str) else k: canon(v)
                for k, v in sorted(value.items(), key=lambda kv: format_label(kv[0]))}
    return repr(value)


@record
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@record
class Report:
    command: str
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add_check(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), str(detail)))

    def put(self, key, value):
        self.data[key] = canon(value)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    @property
    def exit_status(self):
        return 0 if self.all_passed else 1

    def to_text(self):
        lines = [f"command: {self.command}"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"  {mark}  {c.name}{suffix}")
        for key in sorted(self.data):
            lines.append(f"  {key} = {json.dumps(self.data[key], sort_keys=True)}")
        lines.append(f"result: {'ok' if self.all_passed else 'CHECK FAILURES'}")
        return "\n".join(lines)

    def to_json(self):
        payload = {
            "command": self.command,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "data": self.data,
            "ok": self.all_passed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
