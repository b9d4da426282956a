#!/usr/bin/env python
"""Regenerate docs/api.md from the package docstrings.

Run from the repository root::

    python scripts/gen_api_index.py
"""

import importlib
import inspect
import pkgutil

import repro

HEADER = [
    "# API index",
    "",
    "Generated from the package docstrings "
    "(first line of each public item). The authoritative reference is the "
    "docstrings themselves; this index is for orientation. Regenerate "
    "with ``python scripts/gen_api_index.py``.",
    "",
    "Stability notes:",
    "",
    "- ``CloudStateProvider.bindings``/``context`` take a **mandatory** "
    "``roots=`` keyword (``None`` still means \"probe everything\"); the "
    "old positional-only provider signature is no longer sniffed for, so "
    "custom providers must accept it.",
    "- Verdicts serialize through one versioned wire schema "
    "(``repro.core.verdict_schema``, ``schema_version: 2``) shared by "
    "``MonitorVerdict.to_dict``, the audit log, and the JSON exporter; "
    "version-1 rows still load, newer versions are rejected.",
    "- Deployments are built one way: describe them with a "
    "``MonitorConfig`` (``config_version: 1``) and call "
    "``repro.config.build_from_config``; ``repro.config.migrate`` lifts "
    "legacy flat documents.",
    "",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.splitlines()[0] if doc else ""


def main() -> None:
    lines = list(HEADER)
    modules = sorted(
        module.name for module in
        pkgutil.walk_packages(repro.__path__, prefix="repro."))
    for module_name in modules:
        module = importlib.import_module(module_name)
        lines.append(f"## `{module_name}`")
        lines.append("")
        summary = first_line(module)
        if summary:
            lines.append(summary)
            lines.append("")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isclass(obj):
                lines.append(f"- **class `{name}`** — {first_line(obj)}")
                for method_name, method in sorted(vars(obj).items()):
                    if method_name.startswith("_"):
                        continue
                    if callable(method) or isinstance(method, property):
                        target = (method.fget if isinstance(method, property)
                                  else method)
                        doc = first_line(target)
                        if doc:
                            lines.append(f"  - `{method_name}` — {doc}")
            elif inspect.isfunction(obj):
                lines.append(f"- `{name}()` — {first_line(obj)}")
        lines.append("")
    with open("docs/api.md", "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines).rstrip() + "\n")
    print(f"wrote docs/api.md ({len(lines)} lines)")


if __name__ == "__main__":
    main()
