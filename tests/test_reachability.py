"""Every public function and class of the package has a caller in the package.

A public module-level ``def`` or ``class`` of ``src/scfosim`` must be named
by package code outside its own body, be exported from ``__init__``, or be
listed in ``KEEP`` with the reason it stays.  Code that only tests reach is
otherwise deleted, not kept alive by its own tests.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scfosim"

# name -> why it stays although no package code calls it yet
KEEP = {
    "export_bank": "writes the coefficient table, the hw-datapath scenario's FPGA LUT contents (ROADMAP item 5)",
    "export_response_csv": "writes the bank's response file of the hw-datapath scenario (ROADMAP item 5)",
    "resample_error": "the in-band resampling error the hw-datapath scenario reports (ROADMAP item 5)",
    "verify_demux": "the demux-equals-direct check at the core of the hw-datapath scenario (ROADMAP item 5)",
    "coherence_loss": "the phase-LUT loss bound of the hw-datapath scenario (ROADMAP item 5)",
    "estimate": "the FPGA resource ledger of the hw-datapath scenario (ROADMAP item 5)",
    "quantizer_efficiency": "the analytic Q4 term of the requant-loss breakdown (ROADMAP item 7)",
    "pps_sample_indices": "1PPS ticks on the sample grid, for the pps-alignment scenario (ROADMAP item 5)",
    "synchronize_pps": "multi-phase 1PPS capture, for the pps-alignment scenario (ROADMAP item 5)",
    "align_fifo": "FIFO centroid alignment, for the pps-alignment scenario (ROADMAP item 5)",
    "tick_trace_rows": "tick_trace.csv of the pps-alignment scenario (ROADMAP item 5)",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node):
    """Every identifier that ``node`` loads, as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _public_definitions(modules):
    return {
        (module, stmt.name)
        for module, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    }


def _referenced(modules):
    """Names loaded anywhere in the package, except inside the body of the
    top-level definition of that same name (recursion is not a caller)."""
    seen = set()
    for tree in modules.values():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            seen.update(name for name in _names(stmt) if name != own)
    return seen


def _exported(modules):
    for stmt in modules["__init__"].body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
            return set(ast.literal_eval(stmt.value))
    return set()


def test_every_public_definition_has_a_package_caller_or_a_reason():
    modules = _modules()
    reached = _referenced(modules) | _exported(modules) | set(KEEP)
    orphans = sorted(
        f"{module}.{name}" for module, name in _public_definitions(modules) if name not in reached
    )
    assert orphans == [], f"reached only from tests; delete them or add them to KEEP: {orphans}"


def test_keep_set_names_only_uncalled_definitions():
    modules = _modules()
    defined = {name for _, name in _public_definitions(modules)}
    assert set(KEEP) <= defined, f"KEEP names what is gone: {sorted(set(KEEP) - defined)}"
    called = sorted(set(KEEP) & (_referenced(modules) | _exported(modules)))
    assert called == [], f"KEEP names what the package already calls: {called}"
    assert all(reason.strip() for reason in KEEP.values())
