"""The benchmark's tracer skips a name the package no longer defines, and
that layer then reads zero; this keeps a refactor from doing so unseen."""

from perfbench.tracing import PATCH_TARGETS


def test_every_traced_name_exists():
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in PATCH_TARGETS
        if attr not in vars(owner)
    ]
    assert missing == []
