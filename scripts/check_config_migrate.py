#!/usr/bin/env python
"""Gate: config round-trips and migrations are lossless, by digest.

Three properties, each checked over the shipped ``examples/`` configs
plus the built-in defaults and a synthetic version-0 flat document:

* **round-trip** -- ``loads(dumps(cfg))`` fingerprints identically to
  ``cfg`` for both YAML and JSON (the canonical form is a fixed point);
* **migrate idempotence** -- ``migrate(migrate(d)) == migrate(d)``, and
  for a current-version document ``migrate`` is digest-neutral (the
  ``dump -> migrate -> dump`` pipeline changes nothing);
* **validity** -- every shipped example parses strictly and passes
  semantic validation, and the deployment it describes builds.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/check_config_migrate.py
"""

import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")

#: A pre-versioning flat document covering every legacy key class.
LEGACY_V0 = {
    "scenario": "cinder",
    "project_id": "myProject",
    "compiled": True,
    "enforcing": False,
    "volume_quota": 5,
    "probe_planning": True,
    "probe_cache": True,
    "fanout": 2,
    "shards": 4,
    "router_seed": 0,
    "resilient": True,
    "retry": {"max_attempts": 3, "base_delay": 0.05, "seed": 11},
    "failure_threshold": 5,
    "recovery_time": 30.0,
    "manual_clock": True,
}


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_roundtrip(config, label):
    from repro.config import config_digest, dumps, loads

    digest = config_digest(config)
    for format in ("yaml", "json"):
        reparsed = loads(dumps(config, format=format))
        if config_digest(reparsed) != digest:
            fail(f"{label}: {format} round-trip changed the digest")
        if reparsed != config:
            fail(f"{label}: {format} round-trip changed the value")
    return digest


def main() -> int:
    from repro.config import (MonitorConfig, build_from_config,
                              config_digest, migrate)

    checked = 0

    # Built-in defaults: fixed point of dump -> migrate -> dump.
    defaults = MonitorConfig()
    digest = check_roundtrip(defaults, "defaults")
    migrated = MonitorConfig.from_dict(migrate(defaults.to_dict()))
    if config_digest(migrated) != digest:
        fail("defaults: migrate is not digest-neutral on a current doc")
    checked += 1

    # Synthetic version-0 flat document: idempotent, and semantically
    # faithful (every legacy key lands where the setup functions put it).
    lifted = migrate(LEGACY_V0)
    if migrate(lifted) != lifted:
        fail("legacy v0: migrate is not idempotent")
    config = MonitorConfig.from_dict(lifted)
    if not (config.fleet.shards == 4 and config.monitor.fanout == 2
            and config.resilience.enabled
            and config.resilience.seed == 11
            and config.observability.clock == "manual"
            and config.monitor.probe_cache):
        fail("legacy v0: migrated values diverge from the flat document")
    check_roundtrip(config, "legacy v0")
    checked += 1

    # Shipped examples: strict parse, validate, round-trip, build.
    paths = sorted(glob.glob(os.path.join(EXAMPLES, "*.yaml"))
                   + glob.glob(os.path.join(EXAMPLES, "*.json")))
    example_configs = 0
    for path in paths:
        name = os.path.relpath(path, ROOT)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if "config_version" not in text:
            continue  # not a monitor config (other example assets)
        from repro.config import loads

        config = loads(text)
        problems = config.validate()
        if problems:
            fail(f"{name}: {'; '.join(problems)}")
        check_roundtrip(config, name)
        cloud, deployment = build_from_config(config)
        close = getattr(deployment, "close", None)
        if close is not None:
            close()
        checked += 1
        example_configs += 1

    if example_configs == 0:
        fail("no example configs found under examples/")
    print(f"config gate: {checked} config(s) round-trip losslessly by "
          "digest, migrate idempotently, and build")
    return 0


if __name__ == "__main__":
    sys.exit(main())
