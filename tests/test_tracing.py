"""The benchmark's tracer looks up every function it wraps by name, so a
renamed or deleted traced function breaks the traced benchmark run. This
test catches that in the ordinary suite."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_traced_function_and_unwraps_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import FUNCTIONS, Tracer, submodule

    originals = {(home, name): getattr(submodule(home), name) for home, name, *_ in FUNCTIONS}
    tracer = Tracer()
    tracer.install()
    try:
        for (home, name), original in originals.items():
            assert getattr(submodule(home), name).__wrapped__ is original, f"{home}.{name}"
    finally:
        tracer.uninstall()
    for (home, name), original in originals.items():
        assert getattr(submodule(home), name) is original, f"{home}.{name}"
