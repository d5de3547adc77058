"""Model inspection: a layer tree with parameter counts.

The torchinfo-style summary: walks the module hierarchy and reports each
submodule's own (non-child) parameters, so Table III's parameter budgets
can be attributed to specific components (e.g. STSGCN's per-horizon heads).
"""

from __future__ import annotations

from .module import Module

__all__ = ["summarize"]


def summarize(model: Module, max_depth: int | None = None) -> str:
    """Render the module tree with per-module and cumulative param counts."""
    lines = [f"{'module':<46} {'own params':>12} {'total':>12}"]

    def total_params(module: Module) -> int:
        return sum(p.size for p in module.parameters())

    for path, module in model.named_modules():
        depth = path.count(".") + (1 if path else 0)
        if max_depth is not None and depth > max_depth:
            continue
        own = sum(p.size for p in module._parameters.values())
        label = ("  " * depth) + (path.rsplit(".", 1)[-1] if path
                                  else type(module).__name__)
        lines.append(f"{label:<46} {own:>12,} {total_params(module):>12,}")
    lines.append(f"{'TOTAL':<46} {'':>12} {total_params(model):>12,}")
    return "\n".join(lines)
