"""Report schema: stable, machine-readable run records.

A report carries the tool version, a digest of the input text, the seed and
one record per executed check.  Byte determinism: with timings disabled
(the default) the rendered report depends only on the input text and seed;
the timestamp field stays null and per-check wall times are zeroed.

A witness holding an integer longer than the interpreter's int-to-str limit
(sys.get_int_max_str_digits) cannot be rendered; it is dropped, and its
record becomes skipped (a failed record stays failed) with a reason that
names the limit.
"""

import json
import sys
import time

# hashlib would give the same digest through OpenSSL, whose libcrypto adds
# about 3.5 MB to the resident size of every run for this one hash of the
# input text; CPython's built-in SHA-256 is lean.
try:
    from _sha2 import sha256            # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__

SCHEMA_VERSION = 1


def input_digest(text):
    return "sha256:" + sha256(text.encode("utf-8")).hexdigest()


class Report:
    __slots__ = ("version", "digest", "seed", "timestamp", "checks")

    def __init__(self, digest, seed, checks, with_timings=False):
        self.version = __version__
        self.digest = digest
        self.seed = seed
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()) \
            if with_timings else None
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        records = []
        for c in sorted(checks, key=lambda c: c["sort_key"]):
            rec = dict(c)
            rec.pop("sort_key", None)
            if not with_timings:
                rec["wall_ms"] = 0
            if limit:
                rec = _within_digit_limit(rec, limit)
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


def _within_digit_limit(rec, limit):
    """rec without the witnesses that hold an integer past the limit."""
    witnesses = rec["witnesses"]
    long = [k for k, v in witnesses.items() if _too_long(v, limit)]
    if not long:
        return rec
    note = (f"{', '.join(long)} dropped: an integer past the {limit}-digit "
            f"limit on int-to-str conversion")
    failed = rec["status"] == "fail"
    return {**rec, "status": "fail" if failed else "skipped",
            "reason": f"{rec['reason']}; {note}" if failed else note,
            "witnesses": {k: v for k, v in witnesses.items() if k not in long}}


def _too_long(value, limit):
    if isinstance(value, int):
        # an int of b bits has at most floor(b log10 2) + 1 digits
        return (value.bit_length() * 0.30103 + 1 > limit
                and abs(value) >= 10 ** limit)
    if isinstance(value, (list, tuple)):
        return any(_too_long(v, limit) for v in value)
    if isinstance(value, dict):
        return any(_too_long(v, limit) for v in value.values())
    return False


def _plain(obj):
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")
