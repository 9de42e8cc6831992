"""Report schema: stable, machine-readable run records.

A report carries the tool version, a digest of the input text, the seed and
one record per executed check.  Byte determinism: with timings disabled
(the default) the rendered report depends only on the input text and seed;
the timestamp field stays null and per-check wall times are zeroed.
"""

import hashlib
import json
import time

from . import __version__

SCHEMA_VERSION = 1


def input_digest(text):
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class Report:
    __slots__ = ("version", "digest", "seed", "timestamp", "checks")

    def __init__(self, digest, seed, checks, with_timings=False):
        self.version = __version__
        self.digest = digest
        self.seed = seed
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()) \
            if with_timings else None
        records = []
        for c in sorted(checks, key=lambda c: c["sort_key"]):
            rec = dict(c)
            rec.pop("sort_key", None)
            if not with_timings:
                rec["wall_ms"] = 0
            records.append(rec)
        self.checks = records

    @property
    def failed(self):
        return [c for c in self.checks if c["status"] == "fail"]

    def exit_code(self):
        return 1 if self.failed else 0

    def to_dict(self):
        return {
            "version": self.version,
            "schema": SCHEMA_VERSION,
            "digest": self.digest,
            "seed": self.seed,
            "timestamp": self.timestamp,
            "checks": self.checks,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False,
                          default=_plain) + "\n"

    def to_text(self):
        lines = []
        lines.append(f"tool version : {self.version}")
        lines.append(f"input digest : {self.digest}")
        lines.append(f"seed         : {self.seed}")
        lines.append("")
        width = max((len(c['name']) for c in self.checks), default=4)
        for c in self.checks:
            status = c["status"].upper()
            lines.append(f"{c['name']:<{width}}  {status:<7}  {c['claim']}")
            if c["reason"]:
                lines.append(f"{'':<{width}}           reason: {c['reason']}")
            for key, value in c["witnesses"].items():
                if key.startswith("betti"):
                    row = " ".join(str(v) for v in value)
                    lines.append(f"{'':<{width}}           {key}: {row}")
            lines.append("")
        total = len(self.checks)
        passed = sum(c["status"] == "pass" for c in self.checks)
        skipped = sum(c["status"] == "skipped" for c in self.checks)
        summary = f"{passed}/{total} checks passed"
        if skipped:
            summary += f", {skipped} skipped"
        lines.append(summary)
        return "\n".join(lines) + "\n"


def _plain(obj):
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
