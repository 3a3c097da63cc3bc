"""simlint configuration, loaded from ``[tool.simlint]`` in pyproject.toml.

All tool config lives in pyproject so it stops accumulating in
scattered dotfiles.  The shape::

    [tool.simlint]
    paths = ["src", "tests"]          # default CLI targets
    disable = []                      # rule ids switched off globally
    enable = []                       # empty = everything registered
    entry-globs = ["*/__main__.py"]   # DET005 exemption (CLI surfaces)
    baseline = []                     # grandfathered finding fingerprints

    [tool.simlint.scopes]
    # family or rule id -> path globs (fnmatch; '*' crosses '/')
    DET = { include = ["src/repro/*"], exclude = [] }
    OBS002 = { include = ["src/repro/*"], exclude = ["src/repro/report/*"] }

Scoping resolution: a rule uses its own id's scope if present, else its
family's, else the implicit "everywhere" scope.  Globs use
:func:`fnmatch.fnmatch`, where ``*`` matches across path separators —
``src/repro/*`` covers the whole package tree.
"""

from __future__ import annotations

try:  # stdlib on Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on the 3.10 CI leg
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Optional

#: Scopes shipped as defaults; pyproject entries override per key.
#: DET and the OBS/RES bypass rules police the simulation substrate in
#: src/; tests keep the KERNEL correctness rules (a test registering a
#: yieldless process is broken too) but may print, read clocks, and
#: hand-roll loops freely.
_DEFAULT_SCOPES: dict[str, dict[str, list[str]]] = {
    "DET": {"include": ["src/repro/*"], "exclude": []},
    # The whole-program RACE family reasons about kernel process
    # functions; the simulation substrate is its domain.  Tests spawn
    # throwaway shared state on purpose (and the sanitizer's own
    # fixtures *are* deliberate races).
    "RACE": {"include": ["src/repro/*"], "exclude": []},
    "OBSRES": {"include": ["src/repro/*"], "exclude": []},
    "KERNEL": {"include": ["src/repro/*", "tests/*", "benchmarks/*"], "exclude": []},
    # Tests exercise raw request/release sequencing (queue order,
    # cancellation, leak behaviour) on purpose; the lease-hygiene rule
    # polices production code only.
    "KER004": {"include": ["src/repro/*"], "exclude": []},
    # Polling loops are a production-scheduler smell; tests and
    # benchmarks legitimately use fixed-interval background load
    # generators.
    "KER006": {"include": ["src/repro/*"], "exclude": []},
    # The kernel's heapq-hygiene rule polices the kernel only;
    # queueing.py is the sanctioned import site it points everyone at.
    "KER005": {
        "include": ["src/repro/simkernel/*"],
        "exclude": ["src/repro/simkernel/queueing.py"],
    },
    # stdout is the product for the report/viz CLI surfaces.
    "OBS002": {
        "include": ["src/repro/*"],
        "exclude": ["src/repro/report/*", "src/repro/viz/*", "*/__main__.py"],
    },
    # Direct tracer.spans reads are sink-specific; the obs layer itself
    # is the one place allowed to touch the retained list.
    "OBS003": {
        "include": ["src/repro/*"],
        "exclude": ["src/repro/obs/*"],
    },
}


@dataclass
class LintConfig:
    paths: list[str] = field(default_factory=lambda: ["src", "tests"])
    enable: list[str] = field(default_factory=list)
    disable: list[str] = field(default_factory=list)
    entry_globs: list[str] = field(default_factory=lambda: ["*/__main__.py"])
    baseline: list[str] = field(default_factory=list)
    scopes: dict[str, dict[str, list[str]]] = field(
        default_factory=lambda: {k: dict(v) for k, v in _DEFAULT_SCOPES.items()}
    )

    # -- queries -----------------------------------------------------------

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.disable:
            return False
        if self.enable:
            return rule_id in self.enable
        return True

    def rule_applies(self, rule_id: str, family: str, relpath: str) -> bool:
        """Does ``rule_id`` apply to the file at ``relpath``?"""
        scope = self.scopes.get(rule_id) or self.scopes.get(family)
        if scope is None:
            return True
        include = scope.get("include", [])
        exclude = scope.get("exclude", [])
        if include and not any(fnmatch(relpath, g) for g in include):
            return False
        return not any(fnmatch(relpath, g) for g in exclude)

    def is_entry_point(self, relpath: str) -> bool:
        return any(fnmatch(relpath, g) for g in self.entry_globs)


def load_config(root: Path, pyproject: Optional[Path] = None) -> LintConfig:
    """Config from ``<root>/pyproject.toml`` (or an explicit file)."""
    cfg = LintConfig()
    path = pyproject or root / "pyproject.toml"
    if not path.is_file():
        return cfg
    if tomllib is None:
        raise RuntimeError(
            f"cannot read {path}: no TOML parser available "
            "(Python >= 3.11 ships tomllib; on 3.10 install `tomli`)"
        )
    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    section = doc.get("tool", {}).get("simlint", {})
    if not isinstance(section, dict):
        return cfg
    if "paths" in section:
        cfg.paths = [str(p) for p in section["paths"]]
    if "enable" in section:
        cfg.enable = [str(r) for r in section["enable"]]
    if "disable" in section:
        cfg.disable = [str(r) for r in section["disable"]]
    if "entry-globs" in section:
        cfg.entry_globs = [str(g) for g in section["entry-globs"]]
    if "baseline" in section:
        cfg.baseline = [str(b) for b in section["baseline"]]
    for key, scope in section.get("scopes", {}).items():
        if isinstance(scope, dict):
            cfg.scopes[key] = {
                "include": [str(g) for g in scope.get("include", [])],
                "exclude": [str(g) for g in scope.get("exclude", [])],
            }
    return cfg


def find_project_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` holding a pyproject.toml (else start)."""
    start = start.resolve()
    for candidate in [start, *start.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start
